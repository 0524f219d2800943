import numpy as np
import pytest

from rpcluster import (
    TscConfig,
    UnionModel,
    generate,
    random_orthonormal_basis,
    tsc_adjacency,
    tsc_neighbors,
)


def dense_adjacency_oracle(x, q):
    """Loop construction of the adjacency: per-point sort, spherical weights."""
    n = x.shape[1]
    norms = np.linalg.norm(x, axis=0)
    z = np.zeros((n, n))
    for j in range(n):
        scores = [
            (-abs(x[:, j] @ x[:, i]), i) for i in range(n) if i != j
        ]
        scores.sort()
        for _, i in scores[:q]:
            c = abs(x[:, j] @ x[:, i]) / (norms[j] * norms[i])
            z[i, j] = np.exp(-2.0 * np.arccos(min(max(c, 0.0), 1.0)))
    return z + z.T


def test_closest_point_selected():
    x = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    nbrs = tsc_neighbors(x, TscConfig(q=1))
    assert nbrs[0].tolist() == [1]
    assert nbrs[1].tolist() == [0]


def test_full_q_selects_everyone_else():
    x = np.random.default_rng(0).standard_normal((5, 8))
    nbrs = tsc_neighbors(x, TscConfig(q=7))
    for j in range(8):
        assert sorted(nbrs[j].tolist()) == sorted(set(range(8)) - {j})


def test_neighbors_match_brute_force_sort():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 30))
    scores = np.abs(x.T @ x)
    nbrs = tsc_neighbors(x, TscConfig(q=6))
    for j in range(30):
        ranked = sorted(
            (i for i in range(30) if i != j),
            key=lambda i: (-scores[j, i], i),
        )
        assert nbrs[j].tolist() == ranked[:6]


def test_normalized_neighbors_match_brute_force_cosine_sort():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 30))
    norms = np.linalg.norm(x, axis=0)
    config = TscConfig(q=6, normalize_selection=True)
    nbrs = tsc_neighbors(x, config)
    for j in range(30):
        ranked = sorted(
            (i for i in range(30) if i != j),
            key=lambda i: (-abs(x[:, j] @ x[:, i]) / (norms[j] * norms[i]), i),
        )
        assert nbrs[j].tolist() == ranked[:6]
    # power-of-two column scales are exact in floating point
    scaled = x * 2.0 ** rng.integers(-8, 9, size=30)
    assert np.array_equal(tsc_neighbors(scaled, config), nbrs)


def test_ties_break_toward_lower_index():
    # columns 1 and 2 are identical, both tie as neighbors of column 0
    base = np.array([1.0, 0.0])
    x = np.column_stack([base, [0.8, 0.6], [0.8, 0.6], [0.0, 1.0]])
    nbrs = tsc_neighbors(x, TscConfig(q=1))
    assert nbrs[0].tolist() == [1]


def test_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 20))
    x /= np.linalg.norm(x, axis=0)
    adj = tsc_adjacency(x, TscConfig(q=5))
    assert np.max(np.abs(adj.weights - dense_adjacency_oracle(x, 5))) < 1e-12


def test_collinear_pair_weight():
    # mutual nearest neighbors on the same line: weight exp(0) = 1 each way
    x = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    adj = tsc_adjacency(x, TscConfig(q=1))
    assert adj.weights[0, 1] == 2.0


def test_orthogonal_pair_forced_weight():
    # q = 2 forces the orthogonal point into every neighborhood
    s = np.sqrt(2) / 2
    x = np.array([[1.0, 0.0, s], [0.0, 1.0, s]])
    adj = tsc_adjacency(x, TscConfig(q=2))
    expected = 2.0 * np.exp(-np.pi)
    assert abs(adj.weights[0, 1] - expected) < 1e-12
    assert abs(np.exp(-np.pi) - 0.043214) < 1e-6


def test_scale_invariance_exact_for_power_of_two():
    x = np.random.default_rng(3).standard_normal((6, 15))
    a = tsc_adjacency(x, TscConfig(q=4))
    b = tsc_adjacency(4.0 * x, TscConfig(q=4))
    assert np.array_equal(a.weights, b.weights)


def test_scale_invariance_close_for_any_scale():
    x = np.random.default_rng(4).standard_normal((6, 15))
    a = tsc_adjacency(x, TscConfig(q=4))
    b = tsc_adjacency(10.0 * x, TscConfig(q=4))
    assert np.max(np.abs(a.weights - b.weights)) < 1e-12


def test_selection_uses_raw_products_by_default():
    # a long vector wins raw selection, a unit vector wins after normalization
    x = np.column_stack([[1.0, 0.0], 10.0 * np.array([0.6, 0.8]), [0.98, np.sqrt(1 - 0.98**2)]])
    raw = tsc_neighbors(x, TscConfig(q=1))
    normed = tsc_neighbors(x, TscConfig(q=1, normalize_selection=True))
    assert raw[0].tolist() == [1]
    assert normed[0].tolist() == [2]


def test_every_point_keeps_at_least_q_connections():
    data = generate(
        UnionModel(
            tuple(random_orthonormal_basis(12, 3, s) for s in (0, 1)),
            (12, 12),
            seed=5,
        )
    )
    adj = tsc_adjacency(data, TscConfig(q=4))
    assert np.min((adj.weights > 0).sum(axis=1)) >= 4


def test_symmetry_and_zero_diagonal():
    x = np.random.default_rng(6).standard_normal((5, 12))
    adj = tsc_adjacency(x, TscConfig(q=3))
    assert np.array_equal(adj.weights, adj.weights.T)
    assert np.all(np.diag(adj.weights) == 0)


def test_q_out_of_range():
    x = np.eye(3)
    with pytest.raises(ValueError):
        tsc_neighbors(x, TscConfig(q=3))
    with pytest.raises(ValueError):
        TscConfig(q=0)


def test_zero_column_rejected():
    x = np.eye(4)
    x[:, 1] = 0.0
    with pytest.raises(ValueError, match="column 1"):
        tsc_adjacency(x, TscConfig(q=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_column_rejected(bad):
    x = np.random.default_rng(5).standard_normal((4, 6))
    x[1, 2] = bad
    x[0, 4] = bad
    for build in (tsc_adjacency, tsc_neighbors):
        for normalize in (False, True):
            config = TscConfig(q=2, normalize_selection=normalize)
            with pytest.raises(ValueError, match="column 2 has a non-finite entry"):
                build(x, config)
