"""CSV serialization for points, labels, and adjacency matrices.

Points are written one per row (so the file is N rows by D columns) with 17
significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from .graph import Adjacency
from .synth import DataSet

FLOAT_FMT = "{:.17g}"


class ParseError(ValueError):
    """Malformed CSV input; the message carries the 1-based row/column."""


def write_points_csv(path, points: np.ndarray) -> None:
    """Write one point per row; columns of the array become CSV rows."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array, one point per column")
    # FLOAT_FMT's cells, and the "\r\n" line ends of csv.writer, which the
    # other writers here use
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, points.T, fmt="%.17g", delimiter=",", newline="\r\n")


def _load_csv(path) -> np.ndarray | None:
    """The CSV file as a 2-d float array read by numpy, or None when numpy
    refuses it; every file numpy reads, _scan_csv reads to the same values."""
    with open(path, newline="") as fh, warnings.catch_warnings():
        # an empty file is the scan's "no data rows found", not a warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            return np.loadtxt(
                fh, delimiter=",", dtype=float, ndmin=2, quotechar='"', comments=None
            )
        except ValueError:
            return None


def read_points_csv(path) -> np.ndarray:
    """Read points back into a D x N array (one CSV row per point).

    A cell that is not a finite number (text, nan, inf) is a ParseError
    naming its row and column.
    """
    values = _load_csv(path)
    if values is not None and values.size and np.isfinite(values).all():
        return values.T
    # numpy refused the file, or read a non-finite value: the per-cell scan
    # names the bad cell, or accepts the rare cell only Python's float reads
    return _scan_points_csv(path)


def _scan_csv(path, cell_ok, what: str, width: int | None = None) -> np.ndarray:
    """The non-blank rows of a CSV file as a float array, one cell at a time
    with Python's float.

    Every row must hold width cells (the first row's count when None). A cell
    that is no number or fails cell_ok is a ParseError naming its row and
    column as not {what}; so are a row of another width and a file of no rows.
    """
    values = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            width = width or len(row)
            if len(row) != width:
                raise ParseError(f"row {i}: expected {width} values, got {len(row)}")
            for j, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not cell_ok(value):
                    raise ParseError(f"row {i}, column {j}: {cell!r} is not {what}")
                values.append(value)
    if not values:
        raise ParseError("no data rows found")
    return np.array(values).reshape(-1, width)


def _scan_points_csv(path) -> np.ndarray:
    """read_points_csv cell by cell."""
    return _scan_csv(path, math.isfinite, "a finite number").T


def write_labels_csv(path, labels) -> None:
    """Write one integer label per line, with csv.writer's "\r\n" line ends."""
    text = "".join(map("{}\r\n".format, map(int, np.asarray(labels).tolist())))
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _is_label(value: float) -> bool:
    return value.is_integer() and abs(value) < 2.0**63  # false for nan and inf too


def read_labels_csv(path) -> np.ndarray:
    """Read one integer label per line; 1.0 is accepted, 1.5 is a ParseError."""
    values = _load_csv(path)
    if (
        values is not None
        and values.size
        and values.shape[1] == 1
        and np.all((np.floor(values) == values) & (np.abs(values) < 2.0**63))
    ):
        return values.ravel().astype(int)
    # as for points: the scan names the bad cell or row
    return _scan_csv(path, _is_label, "an integer label", width=1).ravel().astype(int)


def write_dataset(data: DataSet, points_path, labels_path=None) -> None:
    """Write a dataset's points, and labels when present and a path is given."""
    write_points_csv(points_path, data.points)
    if labels_path is not None:
        if data.labels is None:
            raise ValueError("dataset has no labels to write")
        write_labels_csv(labels_path, data.labels)


def read_dataset(points_path, labels_path=None) -> DataSet:
    """Read points (and optional labels) back into a DataSet."""
    points = read_points_csv(points_path)
    labels = read_labels_csv(labels_path) if labels_path is not None else None
    return DataSet(points, labels)


def write_adjacency_csv(path, adj: Adjacency) -> None:
    """Write the full N x N weight matrix, one matrix row per CSV row.

    Rows are streamed from the sparse weights, zeros written as "0".
    """
    w = adj.weights
    zero = FLOAT_FMT.format(0.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(adj.n):
            lo, hi = w.indptr[i], w.indptr[i + 1]
            row = [zero] * adj.n
            for j, v in zip(w.indices[lo:hi], w.data[lo:hi]):
                row[j] = FLOAT_FMT.format(v)
            writer.writerow(row)
