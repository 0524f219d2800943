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
from rpcluster import tsc


def dense_adjacency_oracle(x, q):
    """Loop construction of the adjacency: per-point |cosine| sort, spherical weights."""
    n = x.shape[1]
    norms = np.linalg.norm(x, axis=0)
    z = np.zeros((n, n))
    for j in range(n):
        scores = [
            (-abs(x[:, j] @ x[:, i]) / (norms[j] * norms[i]), i)
            for i in range(n) if i != j
        ]
        scores.sort()
        for neg_c, i in scores[:q]:
            z[i, j] = np.exp(-2.0 * np.arccos(min(max(-neg_c, 0.0), 1.0)))
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
    # on unit-norm points the |cosine| is the raw |product|
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 30))
    x /= np.linalg.norm(x, axis=0)
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
    config = TscConfig(q=6)
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


def score_in_blocks_of(rows, n, monkeypatch):
    """Make _select score `rows` rows of an n-point input per block."""
    monkeypatch.setattr(tsc, "BLOCK_ENTRIES", rows * n)
    monkeypatch.setattr(tsc, "BLOCK_MIN_ROWS", 1)


def test_block_row_floor_matches_brute_force_sort(monkeypatch):
    # 2 rows' worth of BLOCK_ENTRIES, as at N=65536: the floor scores blocks
    # of BLOCK_MIN_ROWS rows, and 100 = 6 * 16 + 4 leaves a short last block
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 100))
    monkeypatch.setattr(tsc, "BLOCK_ENTRIES", 2 * x.shape[1])
    rows = []
    partition = np.partition
    monkeypatch.setattr(
        tsc.np, "partition", lambda a, *args, **kw: rows.append(len(a)) or partition(a, *args, **kw)
    )
    nbrs, cosines = tsc._select(x, TscConfig(q=5))
    monkeypatch.undo()
    assert rows == [16] * 6 + [4]
    x = x / np.linalg.norm(x, axis=0)
    scores = np.abs(x.T @ x)
    np.fill_diagonal(scores, -np.inf)
    expected = np.argsort(-scores, axis=1, kind="stable")[:, :5]
    assert np.array_equal(nbrs, expected)
    # the products differ in shape from x.T @ x, so only in rounding
    assert np.max(np.abs(cosines - np.take_along_axis(scores, expected, axis=1))) < 1e-14


TIE_CASES = [(q, scaled) for q in (1, 5) for scaled in (False, True)]


@pytest.mark.parametrize(
    "q, scaled, block_rows",
    [pytest.param(q, sc, None, id=f"{q}-{sc}") for q, sc in TIE_CASES]
    + [pytest.param(q, sc, 3, id=f"{q}-{sc}-3-row-blocks") for q, sc in TIE_CASES],
)
def test_tied_neighbors_match_brute_force_sort(q, scaled, block_rows, monkeypatch):
    # points with four +-1 entries in R^5 have norm 2, so normalizing is exact
    # and the |cosines| are exact multiples of 1/4: many rows tie at the q-th
    # place and the tie rule decides the neighbor set. Scaled by powers of
    # two, the norms stay exact but raw products no longer rank like cosines.
    rng = np.random.default_rng(8)
    x = rng.choice([-1.0, 1.0], size=(5, 60))
    x[rng.integers(0, 5, size=60), np.arange(60)] = 0.0
    if scaled:
        x *= 2.0 ** rng.integers(-3, 4, size=60)
    if block_rows:
        x = x[:, :59]  # the last block is short
        score_in_blocks_of(block_rows, x.shape[1], monkeypatch)
    n = x.shape[1]
    norms = np.linalg.norm(x, axis=0)

    def score(j, i):
        return abs(x[:, j] @ x[:, i]) / (norms[j] * norms[i])

    ranked = [
        sorted((i for i in range(n) if i != j), key=lambda i: (-score(j, i), i))
        for j in range(n)
    ]
    tied_rows = sum(score(j, r[q - 1]) == score(j, r[q]) for j, r in enumerate(ranked))
    assert tied_rows >= 10
    nbrs = tsc_neighbors(x, TscConfig(q=q))
    assert nbrs.tolist() == [r[:q] for r in ranked]


NEAR_TIE_GAPS = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8)


def near_tie_points(dim, q, rng):
    """Unit points in R^dim, shuffled: each gap g in NEAR_TIE_GAPS gets four
    anchors whose q+1 nearest points have |cosines| 0.999 - k*g, k = 0..q,
    with random signs, among 20 random points."""
    points = []
    for gap in np.repeat(NEAR_TIE_GAPS, 4):
        anchor = rng.standard_normal(dim)
        anchor /= np.linalg.norm(anchor)
        points.append(anchor)
        for k in range(q + 1):
            w = rng.standard_normal(dim)
            w -= (w @ anchor) * anchor
            w /= np.linalg.norm(w)
            c = 0.999 - k * gap
            points.append(rng.choice([-1.0, 1.0]) * (c * anchor + np.sqrt(1 - c * c) * w))
    points.extend(rng.standard_normal((20, dim)))
    x = np.column_stack(points)[:, rng.permutation(len(points))]
    return x / np.linalg.norm(x, axis=0)


@pytest.mark.parametrize("block_rows", [None, 3], ids=["one-block", "3-row-blocks"])
@pytest.mark.parametrize("dim", [5, 20, 1000])
def test_near_tied_neighbors_match_brute_force_sort(dim, block_rows, monkeypatch):
    # the q-th and (q+1)-th |cosines| of each anchor differ by 1e-12 to 1e-8:
    # below float32 resolution near 1 (2^-24 = 6e-8), far above float64 rounding
    q = 5
    x = near_tie_points(dim, q, np.random.default_rng(dim))
    n = x.shape[1]
    if block_rows:
        score_in_blocks_of(block_rows, n, monkeypatch)  # 160 = 53 * 3 + 1
    scores = np.array([[abs(x[:, j] @ x[:, i]) for i in range(n)] for j in range(n)])
    ranked = [
        sorted((i for i in range(n) if i != j), key=lambda i: (-scores[j, i], i))
        for j in range(n)
    ]
    gaps = [scores[j, r[q - 1]] - scores[j, r[q]] for j, r in enumerate(ranked)]
    for gap in NEAR_TIE_GAPS:
        assert any(0.5 * gap < g < 2 * gap for g in gaps)
    nbrs, cosines = tsc._select(x, TscConfig(q=q))
    assert nbrs.tolist() == [r[:q] for r in ranked]
    chosen = np.take_along_axis(scores, nbrs, axis=1)
    assert np.max(np.abs(cosines - chosen)) <= 4 * dim * 2.0**-53


def test_ties_break_toward_lower_index():
    # columns 1 and 2 are identical, both tie as neighbors of column 0
    base = np.array([1.0, 0.0])
    x = np.column_stack([base, [0.8, 0.6], [0.8, 0.6], [0.0, 1.0]])
    nbrs = tsc_neighbors(x, TscConfig(q=1))
    assert nbrs[0].tolist() == [1]


@pytest.mark.parametrize("block_rows", [None, 3], ids=["one-block", "3-row-blocks"])
def test_adjacency_matches_dense_oracle(block_rows, monkeypatch):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 20))
    x /= np.linalg.norm(x, axis=0)
    if block_rows:
        score_in_blocks_of(block_rows, x.shape[1], monkeypatch)  # 20 = 6 * 3 + 2
    adj = tsc_adjacency(x, TscConfig(q=5))
    assert np.max(np.abs(adj.weights.toarray() - dense_adjacency_oracle(x, 5))) < 1e-12


def test_collinear_pair_weight():
    # mutual nearest neighbors on the same line: weight exp(0) = 1 each way
    x = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    adj = tsc_adjacency(x, TscConfig(q=1))
    assert adj.weights.toarray()[0, 1] == 2.0


def test_orthogonal_pair_forced_weight():
    # q = 2 forces the orthogonal point into every neighborhood
    s = np.sqrt(2) / 2
    x = np.array([[1.0, 0.0, s], [0.0, 1.0, s]])
    adj = tsc_adjacency(x, TscConfig(q=2))
    expected = 2.0 * np.exp(-np.pi)
    assert abs(adj.weights.toarray()[0, 1] - expected) < 1e-12
    assert abs(np.exp(-np.pi) - 0.043214) < 1e-6


def test_scale_invariance_exact_for_power_of_two():
    x = np.random.default_rng(3).standard_normal((6, 15))
    a = tsc_adjacency(x, TscConfig(q=4))
    b = tsc_adjacency(4.0 * x, TscConfig(q=4))
    assert np.array_equal(a.weights.toarray(), b.weights.toarray())


def test_scale_invariance_close_for_any_scale():
    x = np.random.default_rng(4).standard_normal((6, 15))
    a = tsc_adjacency(x, TscConfig(q=4))
    b = tsc_adjacency(10.0 * x, TscConfig(q=4))
    assert np.max(np.abs(a.weights.toarray() - b.weights.toarray())) < 1e-12


def test_selection_ranks_by_cosine_not_raw_product():
    # the long vector has the larger raw product with point 0 (6 against
    # 0.98), the unit vector the larger |cosine| (0.98 against 0.6)
    x = np.column_stack([[1.0, 0.0], 10.0 * np.array([0.6, 0.8]), [0.98, np.sqrt(1 - 0.98**2)]])
    assert tsc_neighbors(x, TscConfig(q=1))[0].tolist() == [2]


def test_every_point_keeps_at_least_q_connections():
    data = generate(
        UnionModel(
            tuple(random_orthonormal_basis(12, 3, s) for s in (0, 1)),
            (12, 12),
            seed=5,
        )
    )
    adj = tsc_adjacency(data, TscConfig(q=4))
    assert np.min((adj.weights.toarray() > 0).sum(axis=1)) >= 4


def test_symmetry_and_zero_diagonal():
    x = np.random.default_rng(6).standard_normal((5, 12))
    adj = tsc_adjacency(x, TscConfig(q=3))
    assert np.array_equal(adj.weights.toarray(), adj.weights.toarray().T)
    assert np.all(np.diag(adj.weights.toarray()) == 0)


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
        with pytest.raises(ValueError, match="column 2 has a non-finite entry"):
            build(x, TscConfig(q=2))
