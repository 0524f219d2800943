import csv
import warnings

import numpy as np
import pytest

from rpcluster import Adjacency, DataSet
from rpcluster.io import (
    ParseError,
    _is_label,
    _scan_csv,
    _scan_points_csv,
    read_dataset,
    read_labels_csv,
    read_points_csv,
    write_adjacency_csv,
    write_dataset,
    write_labels_csv,
    write_points_csv,
)


def test_points_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((7, 13)) * 10.0 ** rng.integers(-8, 8, size=(7, 13))
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    back = read_points_csv(path)
    # 17 significant digits reproduce doubles bit for bit
    assert np.array_equal(back, pts)


def test_points_round_trip_special_values(tmp_path):
    pts = np.array([[0.0, -0.0, 1e-300], [np.pi, -np.e, 1e300]])
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    assert np.array_equal(read_points_csv(path), pts)


def test_write_points_bytes(tmp_path):
    # the bytes `rpcluster gen` writes: %.17g cells, "," separators, CRLF ends
    pts = np.array([[-0.0, 1e-300, 1e300], [np.pi, -np.e, 1.0]])
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    assert path.read_bytes() == (
        b"-0,3.1415926535897931\r\n"
        b"1e-300,-2.7182818284590451\r\n"
        b"1.0000000000000001e+300,1\r\n"
    )


def parse_outcome(read, path):
    """(values, None) when read returns, (None, message) on a ParseError."""
    try:
        values = read(path)
    except ParseError as exc:
        return None, str(exc)
    return values, None


@pytest.mark.parametrize(
    "text",
    [
        b"1,2\n# comment\n3,4\n",
        b"1,2\n   \n3,4\n",
        b"\xef\xbb\xbf1,2\n3,4\n",
        b"1,2,\n3,4,\n",
        b"1,1e400\n",
        b"1,infinity\n",
        b"1_0,2\n3,4\n",
        b'"1.5",2\n3,"-4e-3"\n',
        b"1,2\r\n3,4\r\n",
        b"1,2\n3,4",
        b"1,2,3\n",
        b"1\n2\n3\n",
    ],
    ids=[
        "comment", "blank-line", "bom", "trailing-comma", "1e400", "infinity",
        "underscore", "quoted", "crlf", "no-final-newline", "one-row", "one-column",
    ],
)
def test_read_points_agrees_with_scan(tmp_path, text):
    path = tmp_path / "pts.csv"
    path.write_bytes(text)
    values, message = parse_outcome(read_points_csv, path)
    scan_values, scan_message = parse_outcome(_scan_points_csv, path)
    assert message == scan_message
    if scan_values is not None:
        assert values.shape == scan_values.shape
        assert np.array_equal(values, scan_values)


@pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["empty", "all-blank"])
def test_read_points_no_data_warns_nothing(tmp_path, text):
    path = tmp_path / "pts.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError):
            read_points_csv(path)


def test_read_points_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0\n")
    with pytest.raises(ParseError, match="row 3"):
        read_points_csv(path)


def test_read_points_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError, match="row 2"):
        read_points_csv(path)
    with pytest.raises(ParseError, match="column 2"):
        read_points_csv(path)


def test_read_points_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        read_points_csv(path)


def test_labels_round_trip(tmp_path):
    labels = np.array([0, 2, 2, 1, 0, 3])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    assert np.array_equal(read_labels_csv(path), labels)


@pytest.mark.parametrize(
    "labels",
    [
        np.array([0, 2, 2, 1, 0, 3]),
        np.arange(-3, 3, dtype=np.int32),
        np.array([True, False]),
        np.array([1.0, 2.0, -0.0]),
        [2**62, -(2**62), 7],
        np.array([], dtype=int),
    ],
    ids=["int64", "int32-negative", "bool", "integral-floats", "large-python-ints", "empty"],
)
def test_write_labels_bytes_match_csv_writer(tmp_path, labels):
    # the bytes csv.writer writes one label a row at a time, "\r\n" ends and all
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        for v in np.asarray(labels):
            writer.writerow([int(v)])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    assert path.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "text",
    ["0\r\n1\r\n", "0\n1.0\n\n2.\n-0.0\n3e0\n", ' 4 \n"5"\n+6\n', "1_0\n2\n", "\u0663\n"],
    ids=["written", "integral-floats", "spaces-quotes-plus", "underscore", "arabic-digit"],
)
def test_read_labels_matches_cell_scan(tmp_path, text):
    # numpy reads the first three, only Python's float the last two
    path = tmp_path / "labels.csv"
    path.write_text(text, encoding="utf-8")
    expected = _scan_csv(path, _is_label, "an integer label", width=1).ravel().astype(int)
    labels = read_labels_csv(path)
    assert labels.dtype == expected.dtype
    assert np.array_equal(labels, expected)


def test_labels_reject_non_integer(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("0\n1\ntwo\n")
    with pytest.raises(ParseError, match="row 3"):
        read_labels_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_read_points_non_finite_cell(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"1.0,2.0\n\n3.0,{cell}\n")
    with pytest.raises(ParseError, match=f"row 3, column 2: '{cell}' is not a finite number"):
        read_points_csv(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "nan"])
def test_labels_reject_non_finite(tmp_path, cell):
    path = tmp_path / "labels.csv"
    path.write_text(f"0\n{cell}\n1\n")
    with pytest.raises(ParseError, match="row 2, column 1"):
        read_labels_csv(path)


@pytest.mark.parametrize("cell", ["1.5", "2.9", "0.5", "-0.5", "1e-3", "1e300"])
def test_labels_reject_fractional_or_overflowing(tmp_path, cell):
    path = tmp_path / "labels.csv"
    path.write_text(f"0\n{cell}\n1\n")
    with pytest.raises(ParseError, match=f"row 2, column 1: '{cell}' is not an integer label"):
        read_labels_csv(path)


@pytest.mark.parametrize("text, message", [
    ("0\n1,1\n", "row 2: expected 1 values, got 2"),
    ("0,1\n1,0\n", "row 1: expected 1 values, got 2"),
    ("\n\n", "no data rows found"),
])
def test_labels_one_per_row(tmp_path, text, message):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        read_labels_csv(path)


def test_labels_accept_integral_floats(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("0\n1.0\n2.\n-0.0\n3e0\n")
    assert read_labels_csv(path).tolist() == [0, 1, 2, 0, 3]


def test_dataset_round_trip(tmp_path):
    pts = np.random.default_rng(1).standard_normal((4, 9))
    data = DataSet(pts, labels=np.arange(9) % 3)
    write_dataset(data, tmp_path / "d.csv", tmp_path / "l.csv")
    back = read_dataset(tmp_path / "d.csv", tmp_path / "l.csv")
    assert np.array_equal(back.points, pts)
    assert np.array_equal(back.labels, data.labels)
    write_dataset(DataSet(pts), tmp_path / "plain.csv")
    plain = read_dataset(tmp_path / "plain.csv")
    assert plain.labels is None


def test_adjacency_round_trip(tmp_path):
    w = np.abs(np.random.default_rng(2).standard_normal((6, 6)))
    w = np.triu(w, k=1)
    w = w + w.T
    path = tmp_path / "adj.csv"
    write_adjacency_csv(path, Adjacency(w))
    # one matrix row per CSV row, which the points reader takes as one point
    assert np.array_equal(read_points_csv(path).T, w)


def test_missing_file_error(tmp_path):
    with pytest.raises(OSError):
        read_points_csv(tmp_path / "nope.csv")
