import numpy as np
import pytest
from scipy.linalg import subspace_angles

from rpcluster import (
    DataSet,
    SubspaceBasis,
    UnionModel,
    affinity,
    generate,
    intersecting_pair,
    principal_angle_cosines,
    random_orthonormal_basis,
)


def test_basis_columns_orthonormal():
    for seed in range(5):
        b = random_orthonormal_basis(3, 3, seed)
        assert np.max(np.abs(b.matrix.T @ b.matrix - np.eye(3))) < 1e-10


def test_basis_deterministic():
    a = random_orthonormal_basis(2, 1, seed=42)
    b = random_orthonormal_basis(2, 1, seed=42)
    assert np.array_equal(a.matrix, b.matrix)


def test_basis_dimension_error():
    with pytest.raises(ValueError):
        random_orthonormal_basis(3, 4, seed=0)
    with pytest.raises(ValueError):
        random_orthonormal_basis(0, 0, seed=0)


def test_subspace_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        SubspaceBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_random_pair_affinity_strictly_interior():
    # two independent 5-dim subspaces of R^50 are neither aligned nor orthogonal
    for seed in range(100):
        a = random_orthonormal_basis(50, 5, 2 * seed)
        b = random_orthonormal_basis(50, 5, 2 * seed + 1)
        val = affinity(a, b)
        assert 0.0 < val < 1.0


def test_affinity_matches_principal_angle_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_orthonormal_basis(60, 6, int(rng.integers(2**31)))
        b = random_orthonormal_basis(60, 6, int(rng.integers(2**31)))
        # oracle route: principal angles via scipy, then the root-mean-square formula
        cos = np.cos(subspace_angles(a.matrix, b.matrix))
        oracle = np.sqrt(np.sum(cos**2)) / np.sqrt(6)
        assert abs(affinity(a, b) - oracle) < 1e-10
        mine = principal_angle_cosines(a, b)
        assert np.allclose(np.sort(mine), np.sort(cos), atol=1e-10)


def test_affinity_symmetry_and_range():
    rng = np.random.default_rng(3)
    for _ in range(30):
        da, db = rng.integers(1, 7, size=2)
        a = random_orthonormal_basis(40, int(da), int(rng.integers(2**31)))
        b = random_orthonormal_basis(40, int(db), int(rng.integers(2**31)))
        ab = affinity(a, b)
        ba = affinity(b, a)
        assert abs(ab - ba) < 1e-12
        assert 0.0 <= ab <= 1.0


def test_affinity_nested_subspace():
    b = random_orthonormal_basis(20, 6, seed=11)
    sub = SubspaceBasis(b.matrix[:, :3])
    assert abs(affinity(sub, b) - 1.0) < 1e-10


def test_affinity_ambient_mismatch():
    a = random_orthonormal_basis(10, 2, seed=0)
    b = random_orthonormal_basis(12, 2, seed=0)
    with pytest.raises(ValueError):
        affinity(a, b)
    with pytest.raises(ValueError):
        principal_angle_cosines(a, b)


def test_principal_angles_identical_and_orthogonal():
    b = random_orthonormal_basis(9, 4, seed=5)
    assert np.allclose(principal_angle_cosines(b, b), 1.0, atol=1e-10)
    w = random_orthonormal_basis(10, 6, seed=8).matrix
    a = SubspaceBasis(w[:, :3])
    c = SubspaceBasis(w[:, 3:])
    assert np.allclose(principal_angle_cosines(a, c), 0.0, atol=1e-10)


def test_principal_angles_two_lines_at_45_degrees():
    a = SubspaceBasis(np.array([[1.0], [0.0]]))
    b = SubspaceBasis(np.array([[1.0], [1.0]]) / np.sqrt(2))
    cos = principal_angle_cosines(a, b)
    assert cos.shape == (1,)
    assert abs(cos[0] - np.sqrt(2) / 2) < 1e-12


def test_intersecting_pair_affinity():
    # aff = sqrt(t/d) exactly for this construction
    for m, d, t in [(10, 4, 1), (12, 5, 0), (12, 5, 5), (30, 6, 3)]:
        a, b = intersecting_pair(m, d, t, seed=m + t)
        assert abs(affinity(a, b) - np.sqrt(t / d)) < 1e-10
    a, b = intersecting_pair(9, 4, 1, seed=2)
    assert abs(affinity(a, b) - 0.5) < 1e-10


def test_intersecting_pair_errors():
    with pytest.raises(ValueError):
        intersecting_pair(5, 4, 1, seed=0)  # needs 2d - t <= m
    with pytest.raises(ValueError):
        intersecting_pair(20, 4, 5, seed=0)  # t > d


def test_generate_unit_norm_and_in_subspace():
    model = UnionModel(
        tuple(random_orthonormal_basis(25, 4, s) for s in (0, 1, 2)),
        (10, 15, 5),
        seed=77,
    )
    data = generate(model)
    assert data.points.shape == (25, 30)
    assert np.allclose(np.linalg.norm(data.points, axis=0), 1.0, atol=1e-10)
    start = 0
    for basis, count in zip(model.bases, model.counts):
        block = data.points[:, start : start + count]
        resid = block - basis.matrix @ (basis.matrix.T @ block)
        assert np.max(np.linalg.norm(resid, axis=0)) < 1e-10
        start += count


def test_generate_labels_single_block():
    model = UnionModel((random_orthonormal_basis(6, 2, 1),), (10,), seed=3)
    data = generate(model)
    assert np.array_equal(data.labels, np.zeros(10, dtype=int))


def test_generate_deterministic_and_block_stable():
    bases = tuple(random_orthonormal_basis(12, 3, s) for s in (4, 5))
    m1 = UnionModel(bases, (8, 8), seed=123)
    d1 = generate(m1)
    d2 = generate(m1)
    assert np.array_equal(d1.points, d2.points)
    # appending a third block must not perturb the first two
    m2 = UnionModel(bases + (random_orthonormal_basis(12, 3, 6),), (8, 8, 8), seed=123)
    d3 = generate(m2)
    assert np.array_equal(d3.points[:, :16], d1.points)


def test_generate_one_dimensional_blocks_collinear():
    line = random_orthonormal_basis(7, 1, seed=9)
    model = UnionModel((line, line), (10, 10), seed=2)
    data = generate(model)
    u = line.matrix[:, 0]
    dots = np.abs(u @ data.points)
    assert np.allclose(dots, 1.0, atol=1e-10)


def test_union_model_validation():
    b = random_orthonormal_basis(8, 2, seed=0)
    with pytest.raises(ValueError):
        UnionModel((), (), seed=0)
    with pytest.raises(ValueError):
        UnionModel((b,), (0,), seed=0)
    with pytest.raises(ValueError):
        UnionModel((b, random_orthonormal_basis(9, 2, 1)), (3, 3), seed=0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        DataSet(np.zeros(5))
    with pytest.raises(ValueError):
        DataSet(np.zeros((3, 4)), labels=[0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_point(bad):
    pts = np.ones((3, 5))
    pts[1, 2] = bad
    pts[0, 4] = bad
    with pytest.raises(ValueError, match="column 2 has a non-finite entry"):
        DataSet(pts)


@pytest.mark.parametrize(
    "labels", [[0.5, 1.0, 2.0], [0, 1.9, 2], [0, 1, np.nan], [0, 1, np.inf], [0, 1e300, 1]]
)
def test_dataset_rejects_non_integer_labels(labels):
    bad = next(i for i, v in enumerate(labels) if not (float(v).is_integer() and v < 2**63))
    with pytest.raises(ValueError, match=f"label {bad} is .*, not an integer"):
        DataSet(np.ones((2, 3)), labels=labels)


def test_dataset_keeps_integral_float_labels():
    data = DataSet(np.ones((2, 4)), labels=np.array([0.0, 1.0, -0.0, 2.0]))
    assert data.labels.dtype.kind == "i"
    assert data.labels.tolist() == [0, 1, 0, 2]
