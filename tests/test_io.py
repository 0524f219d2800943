import numpy as np
import pytest

from rpcluster import Adjacency, DataSet
from rpcluster.io import (
    ParseError,
    read_adjacency_csv,
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
    back = read_adjacency_csv(path)
    assert np.array_equal(back.weights, w)


def test_read_adjacency_rejects_asymmetric(tmp_path):
    path = tmp_path / "adj.csv"
    path.write_text("0,1\n2,0\n")
    with pytest.raises(ValueError):
        read_adjacency_csv(path)


def test_missing_file_error(tmp_path):
    with pytest.raises(OSError):
        read_points_csv(tmp_path / "nope.csv")
