"""CSV serialization for points, labels, and adjacency matrices.

Points are written one per row (so the file is N rows by D columns) with 17
significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .ssc import Adjacency
from .synth import DataSet

FLOAT_FMT = "{:.17g}"


class ParseError(ValueError):
    """Malformed CSV input; the message carries the 1-based row/column."""


def write_points_csv(path, points: np.ndarray) -> None:
    """Write one point per row; columns of the array become CSV rows."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array, one point per column")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for col in points.T:
            writer.writerow([FLOAT_FMT.format(v) for v in col])


def read_points_csv(path) -> np.ndarray:
    """Read points back into a D x N array (one CSV row per point).

    A cell that is not a finite number (text, nan, inf) is a ParseError
    naming its row and column.
    """
    rows = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            parsed = []
            for j, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ParseError(
                        f"row {i}, column {j}: {cell!r} is not a finite number"
                    )
                parsed.append(value)
            if rows and len(parsed) != len(rows[0]):
                raise ParseError(
                    f"row {i}: expected {len(rows[0])} values, got {len(parsed)}"
                )
            rows.append(parsed)
    if not rows:
        raise ParseError("no data rows found")
    return np.array(rows, dtype=float).T


def write_labels_csv(path, labels) -> None:
    """Write one integer label per line."""
    labels = np.asarray(labels)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for v in labels:
            writer.writerow([int(v)])


def read_labels_csv(path) -> np.ndarray:
    """Read one integer label per line."""
    out = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 1:
                raise ParseError(f"row {i}: expected a single label, got {len(row)}")
            try:
                out.append(int(float(row[0])))
            except (ValueError, OverflowError):
                raise ParseError(
                    f"row {i}, column 1: {row[0]!r} is not an integer label"
                ) from None
    if not out:
        raise ParseError("no labels found")
    return np.array(out, dtype=int)


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
    """Write the full N x N weight matrix, one matrix row per CSV row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in adj.weights:
            writer.writerow([FLOAT_FMT.format(v) for v in row])


def read_adjacency_csv(path) -> Adjacency:
    """Read an adjacency matrix written by write_adjacency_csv."""
    values = read_points_csv(path).T
    return Adjacency(values)
