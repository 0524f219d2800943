import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from rpcluster import (
    Adjacency,
    SscConfig,
    TscConfig,
    UnionModel,
    clustering_error,
    connected_components,
    eigengap_estimate,
    generate,
    kmeans,
    laplacian_eigenvalues,
    make_projector,
    project_columns,
    random_orthonormal_basis,
    spectral,
    spectral_cluster,
    ssc_adjacency,
    tsc_adjacency,
)

from test_graph import projected_union


def block_adjacency(sizes, rng=None, off_value=0.0):
    """Block-diagonal affinity: within-block weights 1 (or random), off-block off_value."""
    n = sum(sizes)
    w = np.full((n, n), off_value)
    start = 0
    for s in sizes:
        block = np.ones((s, s)) if rng is None else rng.uniform(0.5, 1.0, (s, s))
        block = (block + block.T) / 2
        w[start : start + s, start : start + s] = block
        start += s
    np.fill_diagonal(w, 0.0)
    return Adjacency(w)


def union_find_components(w):
    parent = list(range(w.shape[0]))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(w.shape[0]):
        for j in range(i + 1, w.shape[1]):
            if w[i, j] > 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    roots = {}
    labels = np.empty(w.shape[0], dtype=int)
    for i in range(w.shape[0]):
        r = find(i)
        labels[i] = roots.setdefault(r, len(roots))
    return labels


def test_laplacian_two_components_two_zero_eigenvalues():
    adj = block_adjacency([5, 7])
    vals = laplacian_eigenvalues(adj)
    assert np.sum(np.abs(vals) < 1e-8) == 2
    assert vals.shape == (12,)


def test_laplacian_isolated_vertex_row():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    lap = normalized_laplacian(Adjacency(w))
    assert np.array_equal(lap[2], np.eye(4)[2])
    assert np.array_equal(lap[3], np.eye(4)[3])
    vals = laplacian_eigenvalues(Adjacency(w))
    assert np.sum(np.abs(vals - 1.0) < 1e-12) >= 2


def test_eigenvalues_within_normalized_range():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = rng.uniform(0, 1, (20, 20))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        vals = laplacian_eigenvalues(Adjacency(w))
        assert vals.min() > -1e-8
        assert vals.max() < 2 + 1e-8
        assert np.all(np.diff(vals) >= -1e-12)


def test_eigengap_counts_ideal_blocks():
    assert eigengap_estimate(block_adjacency([6, 6, 6])) == 3
    assert eigengap_estimate(block_adjacency([4, 9])) == 2
    assert eigengap_estimate(block_adjacency([5, 6, 7, 8])) == 4


def test_eigengap_single_well_connected_graph():
    rng = np.random.default_rng(1)
    adj = block_adjacency([15], rng=rng)
    assert eigengap_estimate(adj) == 1


def test_eigengap_survives_weak_off_block_noise():
    adj = block_adjacency([8, 8], off_value=1e-3)
    assert eigengap_estimate(adj) == 2


def test_eigengap_respects_l_max():
    adj = block_adjacency([3, 3, 3, 3, 3])
    assert eigengap_estimate(adj) == 5
    assert eigengap_estimate(adj, l_max=3) <= 3


def test_spectral_cluster_ideal_two_blocks():
    adj = block_adjacency([10, 15])
    result = spectral_cluster(adj, seed=0)
    assert result.n_clusters == 2
    truth = np.array([0] * 10 + [1] * 15)
    assert clustering_error(result.labels, truth) == 0.0


def test_spectral_cluster_single_cluster():
    adj = block_adjacency([12])
    result = spectral_cluster(adj, n_clusters=1, seed=0)
    assert np.array_equal(result.labels, np.zeros(12, dtype=int))


@pytest.mark.parametrize("n_blocks", [2, 3, 4, 5, 6])
def test_spectral_matches_component_oracle_on_ideal_graphs(n_blocks):
    rng = np.random.default_rng(n_blocks)
    sizes = [int(s) for s in rng.integers(4, 9, size=n_blocks)]
    adj = block_adjacency(sizes, rng=rng)
    result = spectral_cluster(adj, seed=1)
    oracle = union_find_components(adj.weights.toarray())
    assert result.n_clusters == n_blocks
    assert clustering_error(result.labels, oracle) == 0.0


def test_spectral_cluster_metadata_and_eigenvalues():
    adj = block_adjacency([5, 5])
    result = spectral_cluster(adj, seed=3)
    assert result.eigenvalues[0] < 1e-8
    assert result.labels.max() < result.n_clusters


def test_connected_components_labels():
    adj = block_adjacency([4, 3, 5])
    labels = connected_components(adj)
    assert np.array_equal(labels, union_find_components(adj.weights.toarray()))
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = (rng.uniform(0, 1, (15, 15)) < 0.08).astype(float)
        w = np.maximum(w, w.T)
        np.fill_diagonal(w, 0.0)
        adj = Adjacency(w)
        mine = connected_components(adj)
        oracle = union_find_components(w)
        assert np.array_equal(mine, oracle)


def test_kmeans_deterministic_and_reasonable():
    rng = np.random.default_rng(7)
    pts = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(3, 0.1, (25, 2))])
    labels1, inertia1 = kmeans(pts, 2, seed=0)
    labels2, inertia2 = kmeans(pts, 2, seed=0)
    assert np.array_equal(labels1, labels2)
    assert inertia1 == inertia2
    truth = np.array([0] * 20 + [1] * 25)
    assert clustering_error(labels1, truth) == 0.0


def sq_dists_in_order(points, centers):
    """(N, k) squared distances, the coordinates summed one at a time, in order."""
    squares = (points[:, None, :] - centers[None, :, :]) ** 2
    total = squares[..., 0]
    for j in range(1, points.shape[1]):
        total = total + squares[..., j]
    return total


def reference_kmeans_pp_init(points, k, rng, zero_totals=None):
    """One k-means++ start; the center index at which the distance total is 0
    goes into zero_totals."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = sq_dists_in_order(points, centers[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total == 0:
            if zero_totals is not None:
                zero_totals.append(i)
            idx = int(rng.choice(n, p=np.full(n, 1 / n)))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = points[idx]
        d2 = np.minimum(d2, sq_dists_in_order(points, centers[i : i + 1])[:, 0])
    return centers


def reference_lloyd(points, centers, revived):
    """Lloyd's iteration, one restart alone; the Lloyd iteration at which a
    cluster is revived goes into revived."""
    k = centers.shape[0]
    labels = np.full(points.shape[0], -1)
    for it in range(spectral.KMEANS_MAX_ITER):
        dists = sq_dists_in_order(points, centers)
        new_labels = np.argmin(dists, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # empty clusters first, in order: each takes the point farthest from
        # its center among the clusters of two or more points
        for c in range(k):
            if not np.any(labels == c):
                revived.append(it)
                sizes = np.bincount(labels, minlength=k)
                spread = np.where(sizes[labels] >= 2, dists[np.arange(len(labels)), labels], -1.0)
                labels[int(np.argmax(spread))] = c
        for c in range(k):
            # the members added one at a time, in point order
            members = points[labels == c]
            total = members[0].copy()
            for point in members[1:]:
                total += point
            centers[c] = total / len(members)
    dists = sq_dists_in_order(points, centers)
    labels = np.argmin(dists, axis=1)
    inertia = float(dists[np.arange(len(labels)), labels].sum())
    return labels, inertia


def reference_kmeans(points, k, seed, revived, zero_totals=None, runs=None):
    """k-means++ restarts one after another, each drawn just before its Lloyd
    run: the oracle that kmeans must match bit for bit. A (restart, Lloyd
    iteration) pair goes into revived for each cluster revived, and each
    restart's (labels, inertia) into runs."""
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for restart in range(spectral.KMEANS_RESTARTS):
        centers = reference_kmeans_pp_init(points, k, rng, zero_totals)
        run_revived = []
        labels, inertia = reference_lloyd(points, centers, run_revived)
        revived.extend((restart, it) for it in run_revived)
        if runs is not None:
            runs.append((labels, inertia))
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels, best_inertia


@pytest.mark.parametrize("dim", [1, 3, 7, 8, 10, 16, 23, 128, 130, 300])
def test_squared_distances_bitwise_equal_broadcast_sum(dim):
    # coordinates of very different scales, so any other order of the sum
    # rounds differently (numpy's pairwise sum, from 8 terms on, among them);
    # cumsum adds the broadcast squares one by one, in coordinate order
    rng = np.random.default_rng(dim)
    scales = 10.0 ** rng.uniform(-8, 8, dim)
    points = rng.standard_normal((40, dim)) * scales
    for centers in (points[:5], rng.standard_normal((3, 5, dim)) * scales):
        squares = (points[:, None, :] - centers[..., None, :, :]) ** 2
        expected = np.cumsum(squares, axis=-1)[..., -1]
        assert np.array_equal(spectral._sq_dists(points, centers), expected)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 12])
def test_cluster_means_bitwise_equal_in_order_sum(dim):
    # coordinates of very different scales: summed in another order than
    # point order (reversed, or numpy's pairwise sum of one column) the
    # means round differently; cumsum adds the points one by one, in order
    rng = np.random.default_rng(dim)
    points = rng.standard_normal((300, dim)) * 10.0 ** rng.uniform(-8, 8, dim)
    labels = rng.integers(0, 4, size=(3, 300))
    counts = np.array([np.bincount(row, minlength=4) for row in labels])
    assert counts.min() > 0
    means = spectral._cluster_means(points, labels, counts)
    for r in range(3):
        for c in range(4):
            members = points[labels[r] == c]
            assert np.array_equal(means[r, c], np.cumsum(members, axis=0)[-1] / len(members))
            if dim > 1:
                # numpy's mean over the rows of two or more columns adds them in order too
                assert np.array_equal(means[r, c], members.mean(axis=0))


def spectral_embedding(adj, k):
    """Row-normalized bottom-k eigenvectors, as spectral_cluster embeds them."""
    vecs = spectral._bottom_eigh(adj, k)[1]
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def tsc_embedding(n_subspaces, per_subspace, k):
    bases = [random_orthonormal_basis(30, 4, seed) for seed in range(n_subspaces)]
    data = generate(UnionModel(bases, (per_subspace,) * n_subspaces, seed=1))
    return spectral_embedding(tsc_adjacency(data.points, TscConfig(q=6)), k)


def two_places_points():
    # 30 points at one place and 20 at another: with k=4 the seeding's
    # distance total is 0 from the third center on, in every restart
    return np.repeat(np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]]), [30, 20], axis=0)


def mid_lloyd_empty_points():
    # one of its k=3 restarts empties a cluster at the second Lloyd pass
    rng = np.random.default_rng(472)
    return rng.standard_normal((10, 2)) * rng.uniform(0.1, 3, (10, 1))


def revival_case(seed):
    """A few points of one or two columns at random scales and the k they
    are clustered into: such inputs often revive a cluster mid-run."""
    rng = np.random.default_rng(seed)
    n, dim, k = rng.integers(8, 16), rng.integers(1, 3), rng.integers(3, 6)
    return rng.standard_normal((n, dim)) * rng.uniform(0.1, 3, (n, 1)), int(k)


@pytest.mark.parametrize(
    "make_points, k, seed, revive, zero_at",
    [
        pytest.param(lambda: tsc_embedding(3, 50, 3), 3, 5, None, None, id="N=150"),
        pytest.param(lambda: tsc_embedding(6, 400, 6), 6, 6, None, None, id="N=2400"),
        # 10 and 130 columns: numpy's pairwise sum would add them in another order
        pytest.param(lambda: tsc_embedding(3, 50, 10), 10, 7, None, None, id="N=150-dim-10"),
        pytest.param(
            lambda: np.random.default_rng(2).standard_normal((90, 130)), 4, 8, None, None,
            id="dim-130",
        ),
        pytest.param(lambda: np.ones((40, 3)), 4, 9, "init", 1, id="all-identical"),
        pytest.param(two_places_points, 4, 12, "init", 2, id="zero-total-mid-seeding"),
        pytest.param(mid_lloyd_empty_points, 3, 472, "lloyd", None, id="empty-mid-lloyd"),
        # one column: its means add the points in point order, where numpy's mean would
        # sum them pairwise
        pytest.param(
            lambda: np.random.default_rng(3).standard_normal((60, 1)), 3, 10, None, None,
            id="one-column",
        ),
        # revived at the second Lloyd pass: one column (k=3), two columns (k=4)
        pytest.param(
            lambda: revival_case(9834)[0], 3, 9834, "lloyd", None, id="one-column-revival"
        ),
        pytest.param(lambda: revival_case(18138)[0], 4, 18138, "lloyd", None, id="revival-k=4"),
    ],
)
def test_kmeans_bitwise_equals_reference(make_points, k, seed, revive, zero_at):
    points = make_points()
    revived, zero_totals, runs = [], [], []
    expected_labels, expected_inertia = reference_kmeans(
        points, k, seed, revived, zero_totals, runs
    )
    labels, inertia = kmeans(points, k, seed)
    assert np.array_equal(labels, expected_labels)
    assert inertia == expected_inertia
    # every restart matches its serial run, not only the best: a revival in a
    # restart that loses shows here
    starts = spectral._kmeans_pp_starts(points, k, np.random.default_rng(seed))
    all_labels, all_inertia = spectral._lloyd_restarts(points, starts)
    assert np.array_equal(all_labels, np.array([run[0] for run in runs]))
    assert all_inertia.tolist() == [run[1] for run in runs]
    # a distance total reaches 0 first at center zero_at, or never
    assert min(zero_totals, default=None) == zero_at
    if revive is None:
        assert revived == []
    else:
        # revived at the first Lloyd pass (the starts coincide) or a later one
        assert (min(it for _, it in revived) == 0) == (revive == "init")


def test_revival_takes_clusters_in_order_and_the_farthest_point_first():
    # restart 0 starts with clusters 2 and 3 empty, restart 1 with 0 and 3.
    # The first empty cluster takes point 2, the farthest from its center
    # (distance 4); the next takes point 1, the first of the points at
    # distance 1 (points 1, 3 and 5). The labels then repeat.
    points = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    starts = np.array([[[0.0], [11.0], [100.0], [200.0]], [[100.0], [0.0], [11.0], [200.0]]])
    labels, inertia = spectral._lloyd_restarts(points, starts.copy())
    assert labels.tolist() == [[0, 3, 2, 1, 1, 1], [1, 3, 0, 2, 2, 2]]
    assert inertia.tolist() == [2.0, 2.0]
    for start, expected in zip(starts, labels):
        assert np.array_equal(reference_lloyd(points, start.copy(), [])[0], expected)


def test_kmeans_pp_starts_equal_reference_starts_at_zero_totals():
    # with a total of 0 every point sits on a center, and labels rarely show
    # which place a further center is drawn at; the starts do
    points = two_places_points()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        starts = spectral._kmeans_pp_starts(points, 4, np.random.default_rng(seed))
        for start in starts:
            assert np.array_equal(start, reference_kmeans_pp_init(points, 4, rng))


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_kmeans_iteration_cap_matches_reference(max_iter, monkeypatch):
    # restarts still moving after KMEANS_MAX_ITER updates are scored as they stand
    monkeypatch.setattr(spectral, "KMEANS_MAX_ITER", max_iter)
    points = np.random.default_rng(5).standard_normal((300, 3))
    labels, inertia = kmeans(points, 5, seed=4)
    expected_labels, expected_inertia = reference_kmeans(points, 5, 4, [])
    assert np.array_equal(labels, expected_labels)
    assert inertia == expected_inertia


def test_kmeans_restart_groups_match_one_group(monkeypatch):
    # groups of 3 restarts: the same result as all 10 in one lockstep group
    points = tsc_embedding(3, 50, 3)
    whole = kmeans(points, 3, seed=11)
    monkeypatch.setattr(spectral, "LOCKSTEP_ENTRIES", 3 * 150 * 3)
    groups = []
    restarts = spectral._lloyd_restarts
    monkeypatch.setattr(
        spectral, "_lloyd_restarts", lambda p, c: groups.append(len(c)) or restarts(p, c)
    )
    labels, inertia = kmeans(points, 3, seed=11)
    assert groups == [3, 3, 3, 1]
    assert np.array_equal(labels, whole[0]) and inertia == whole[1]


def test_kmeans_more_clusters_than_points_rejected():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4, seed=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "points must be finite"),
        (-np.inf, "points must be finite"),
        # finite points whose squared distances overflow
        (1e200, "squared distances between the points overflow"),
    ],
    ids=["nan", "inf", "overflow"],
)
def test_kmeans_rejects_bad_points(bad, message, k):
    points = np.random.default_rng(0).standard_normal((20, 2))
    points[4, 1] = bad
    with pytest.raises(ValueError, match=message):
        kmeans(points, k, seed=0)


# spectral_cluster labels as (label, run length) pairs, recorded when the
# k-means distances still copied numpy's pairwise sum, which adds fewer than
# 8 coordinates one at a time, in order, as they are added now
PINNED_LABEL_RUNS = {
    "ssc_lasso_proj": [(2, 50), (1, 50), (0, 50)],
    "tsc_large_n": [
        (3, 400), (1, 400), (5, 400), (4, 400), (2, 355), (0, 1), (2, 44), (0, 400),
    ],
}


@pytest.mark.parametrize("workload", sorted(PINNED_LABEL_RUNS))
def test_spectral_cluster_labels_pinned(workload):
    # the benchmark's shapes: SSC at N=150 with k=3, TSC at N=2400 (q=8) with k=6
    if workload == "ssc_lasso_proj":
        seed, k = 7, 3
        adj = ssc_adjacency(projected_union(seed, k, 50), SscConfig())
    else:
        seed, k = 2, 6
        adj = tsc_adjacency(projected_union(seed, k, 400), TscConfig(q=8))
    values, runs = zip(*PINNED_LABEL_RUNS[workload])
    labels = spectral_cluster(adj, k, seed=seed).labels
    assert np.array_equal(labels, np.repeat(values, runs))


def test_spectral_cluster_invalid_cluster_count():
    adj = block_adjacency([4, 4])
    with pytest.raises(ValueError):
        spectral_cluster(adj, n_clusters=0)
    with pytest.raises(ValueError):
        spectral_cluster(adj, n_clusters=9)


@pytest.mark.parametrize("n_clusters", [None, 2])
def test_spectral_cluster_rejects_l_max_below_one(n_clusters):
    adj = block_adjacency([4, 4])
    for bad in (0, -3):
        with pytest.raises(ValueError, match="l_max must be at least 1"):
            spectral_cluster(adj, n_clusters=n_clusters, l_max=bad)


def test_spectral_cluster_deterministic():
    rng = np.random.default_rng(11)
    adj = block_adjacency([7, 7, 7], rng=rng, off_value=0.01)
    a = spectral_cluster(adj, seed=5)
    b = spectral_cluster(adj, seed=5)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def large_block_graph(n):
    """n vertices: 6 random-weight blocks, then two isolated vertices."""
    rng = np.random.default_rng(n)
    sizes = [(n - 2) // 6] * 5
    sizes.append(n - 2 - sum(sizes))
    w = np.zeros((n, n))
    w[: n - 2, : n - 2] = block_adjacency(sizes, rng=rng).weights.toarray()
    return Adjacency(w), sizes


@pytest.mark.parametrize("offset", [-1, 0], ids=["numpy-eigh", "sparse"])
def test_bottom_eigenpairs_on_large_block_graph(offset, monkeypatch):
    # on both sides of SPARSE_SOLVE_MIN_N the graph is solved per component:
    # 6 blocks of about 66 vertices, each by the dense solve, with no Lanczos,
    # for 11 - 6 + 1 = 6 pairs: the other 5 blocks' zeros come before a
    # block's sixth eigenvalue, and the 2 isolated vertices do not count
    n = spectral.SPARSE_SOLVE_MIN_N + offset
    adj, sizes = large_block_graph(n)
    component_calls = []
    component_solve = spectral._component_bottom_eigh
    monkeypatch.setattr(
        spectral,
        "_component_bottom_eigh",
        lambda flipped, k, *rest: component_calls.append((flipped.shape[0], k))
        or component_solve(flipped, k, *rest),
    )
    calls = counting_eigsh(monkeypatch)
    result = spectral_cluster(adj, seed=0)
    assert eigengap_estimate(adj) == 6
    assert component_calls == [(size, 6) for size in sizes] * 2
    assert calls == []
    assert result.n_clusters == 6
    # six repeated zeros, then the first nonzero eigenvalue
    full = np.linalg.eigvalsh(normalized_laplacian(adj))
    assert np.max(np.abs(result.eigenvalues - full[:7])) < 1e-12
    assert np.all(np.abs(result.eigenvalues[:6]) < 1e-12)
    blocks = np.repeat(np.arange(6), sizes)  # the components, isolated vertices aside
    assert clustering_error(result.labels[: n - 2], blocks) == 0.0


def test_both_eigensolvers_give_the_same_labels():
    # the per-component solve against one dense eigh of the whole Laplacian,
    # embedded and clustered the way spectral_cluster does it
    adj, _ = large_block_graph(spectral.SPARSE_SOLVE_MIN_N)
    per_component = spectral_cluster(adj, n_clusters=6, seed=2)
    vals, vecs = np.linalg.eigh(normalized_laplacian(adj))
    embedding = vecs[:, :6].copy()
    row_norms = np.linalg.norm(embedding, axis=1)
    nz = row_norms > 0
    embedding[nz] = embedding[nz] / row_norms[nz, None]
    dense_labels, _ = kmeans(embedding, 6, seed=2)
    assert np.array_equal(per_component.labels, dense_labels)
    assert np.max(np.abs(per_component.eigenvalues - vals[:7])) < 1e-12


def test_large_graph_cluster_count_checked_before_solve(monkeypatch):
    adj, _ = large_block_graph(spectral.SPARSE_SOLVE_MIN_N)

    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve ran before the range check")

    monkeypatch.setattr(spectral, "_bottom_eigh", no_solve)
    for bad in (0, adj.n + 1):
        with pytest.raises(ValueError, match=f"cluster count {bad} is out of range"):
            spectral_cluster(adj, n_clusters=bad)


def connected_tsc_graph():
    """TSC graph (q=8) of 3 x 200 points on random 5-dim subspaces of R^10: one component."""
    bases = [random_orthonormal_basis(10, 5, seed) for seed in range(3)]
    data = generate(UnionModel(bases, (200, 200, 200), seed=3))
    return tsc_adjacency(data.points, TscConfig(q=8))


def counting_eigsh(monkeypatch):
    """Replace spectral.eigsh by a wrapper that counts its calls; returns the count list."""
    calls = []
    eigsh = spectral.eigsh
    monkeypatch.setattr(spectral, "eigsh", lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
    return calls


def test_sparse_solve_is_bitwise_repeatable(monkeypatch):
    adj = connected_tsc_graph()
    assert adj.n >= spectral.SPARSE_SOLVE_MIN_N
    assert connected_components(adj).max() == 0
    calls = counting_eigsh(monkeypatch)
    first = spectral_cluster(adj, seed=0)
    second = spectral_cluster(adj, seed=0)
    assert len(calls) == 2  # ARPACK ran, from its fixed start vector
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    vals_a, vecs_a = spectral._bottom_eigh(adj, 7)
    vals_b, vecs_b = spectral._bottom_eigh(adj, 7)
    assert np.array_equal(vals_a, vals_b)
    assert np.array_equal(vecs_a, vecs_b)


def test_values_only_solves_skip_eigenvectors(monkeypatch):
    adj = connected_tsc_graph()
    wanted = []
    eigsh = spectral.eigsh
    monkeypatch.setattr(
        spectral, "eigsh", lambda *a, **kw: wanted.append(kw["return_eigenvectors"]) or eigsh(*a, **kw)
    )
    estimate = eigengap_estimate(adj)
    result = spectral_cluster(adj, seed=0)
    assert wanted == [False, True]
    assert estimate == result.n_clusters
    only_vals = spectral._bottom_eigh(adj, 11, eigvals_only=True)
    assert np.max(np.abs(only_vals[: len(result.eigenvalues)] - result.eigenvalues)) < 1e-12


def test_lanczos_non_convergence_raises(monkeypatch):
    # one restart cycle is too few on this graph: ARPACK's error must reach the
    # caller, never pairs it did not converge
    adj = connected_tsc_graph()
    eigsh = spectral.eigsh
    monkeypatch.setattr(spectral, "eigsh", lambda *a, **kw: eigsh(*a, **{**kw, "maxiter": 1}))
    with pytest.raises(ArpackNoConvergence):
        spectral_cluster(adj, n_clusters=3, seed=0)
    with pytest.raises(ArpackNoConvergence):
        eigengap_estimate(adj)


def identical_blocks(n_blocks, size, seed):
    """n_blocks copies of one random-weight block: every eigenvalue n_blocks-fold."""
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.5, 1.0, (size, size))
    block = (block + block.T) / 2
    np.fill_diagonal(block, 0.0)
    return Adjacency(np.kron(np.eye(n_blocks), block))


@pytest.mark.parametrize("arpack_blocks", [False, True], ids=["dense-blocks", "arpack-blocks"])
def test_repeated_eigenvalue_across_components(arpack_blocks, monkeypatch):
    # a single shift-invert eigsh for 12 pairs of the whole graph misses
    # copies of the first nonzero eigenvalue here (error 1.4e-4); blocks of
    # 240 vertices are large enough for Lanczos at 12 - 6 + 1 = 7 pairs a
    # block (25 * k <= n)
    adj = identical_blocks(6, 240, seed=0)
    assert adj.n >= spectral.SPARSE_SOLVE_MIN_N
    calls = counting_eigsh(monkeypatch)
    if arpack_blocks:
        monkeypatch.setattr(spectral, "SPARSE_SOLVE_MIN_N", 240)
    vals = spectral._bottom_eigh(adj, 12, eigvals_only=True)
    full = np.linalg.eigvalsh(normalized_laplacian(adj))
    assert np.max(np.abs(vals - full[:12])) < 1e-12
    assert np.all(np.abs(vals[:6]) < 1e-12)
    assert full[6] > 0.5
    assert np.max(np.abs(vals[6:] - full[6])) < 1e-12  # all six copies
    assert eigengap_estimate(adj, l_max=11) == 6
    assert len(calls) == (12 if arpack_blocks else 0)  # one eigsh per block and solve


def complete_graph(n):
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    return Adjacency(w)


def cycle_graph(n):
    w = np.zeros((n, n))
    i = np.arange(n)
    w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0
    return Adjacency(w)


def star_graph(n):
    """A hub joined to vertex 0 of each of 6 identical random-weight blocks of n/6 vertices."""
    size = n // 6
    blocks = identical_blocks(6, size, seed=0).weights.toarray()
    w = np.zeros((n + 1, n + 1))
    w[:n, :n] = blocks
    w[n, np.arange(6) * size] = w[np.arange(6) * size, n] = 1.0
    return Adjacency(w)


@pytest.mark.parametrize(
    "graph, ks",
    [(complete_graph, (7,)), (cycle_graph, (7,)), (star_graph, (6, 11, 12))],
    ids=["complete", "cycle", "star"],
)
def test_repeated_eigenvalue_within_one_component(graph, ks, monkeypatch):
    # one component whose nonzero eigenvalues repeat: n-1 copies of n/(n-1)
    # on the complete graph, pairs 1 - cos(2 pi j / n) on the cycle, 5-fold
    # ones on the star; asking eigsh for exactly k=11 or 12 pairs of the star
    # returned the next distinct eigenvalue for the last copy (errors 6.1e-5
    # and 2.1e-4)
    adj = graph(600)
    calls = counting_eigsh(monkeypatch)
    full = np.linalg.eigvalsh(normalized_laplacian(adj))
    for k in ks:
        vals = spectral._bottom_eigh(adj, k, eigvals_only=True)
        assert np.max(np.abs(vals - full[:k])) < 1e-12
    assert len(calls) == len(ks)


@pytest.mark.parametrize("n, k", [(520, 11), (720, 8), (1000, 13)])
def test_complete_graph_lanczos_converges(n, k):
    # with Lanczos stopping at machine precision, ARPACK raised error 3 ("No
    # shifts could be applied") on these and 8 more of 320 complete graphs
    # (n = 400..1000 in steps of 40, k = 2..21)
    vals = spectral._bottom_eigh(complete_graph(n), k, eigvals_only=True)
    expected = np.r_[0.0, np.full(k - 1, n / (n - 1))]
    assert np.max(np.abs(vals - expected)) < 1e-12


def assert_bottom_pairs_match_dense(adj, k):
    lap = normalized_laplacian(adj)
    vals, vecs = spectral._bottom_eigh(adj, k)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(lap)[:k])) < 1e-12
    assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) < 1e-12
    assert np.max(np.abs(lap @ vecs - vecs * vals)) < 1e-12


@pytest.mark.parametrize("k", [4, 11, 150], ids=["k=4", "k=11-eigengap", "k=n"])
def test_partial_dense_solve_matches_full_eigh(k, monkeypatch):
    # one component of 150 vertices takes the dense branch: LAPACK's partial
    # solve for the bottom k pairs, numpy's full eigh when k = n
    adj = block_adjacency([50, 60, 40], rng=np.random.default_rng(4), off_value=1e-3)
    assert connected_components(adj).max() == 0
    partial_calls = []
    eigh = spectral.linalg.eigh
    monkeypatch.setattr(
        spectral.linalg, "eigh", lambda *a, **kw: partial_calls.append(kw) or eigh(*a, **kw)
    )
    lap = normalized_laplacian(adj)
    full_vals, _ = np.linalg.eigh(lap)
    vals, vecs = spectral._bottom_eigh(adj, k)
    assert np.max(np.abs(vals - full_vals[:k])) < 1e-12
    assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) < 1e-12
    assert np.max(np.abs(lap @ vecs - vecs * vals)) < 1e-12
    only_vals = spectral._bottom_eigh(adj, k, eigvals_only=True)
    assert np.max(np.abs(only_vals - full_vals[:k])) < 1e-12
    expected = [] if k == adj.n else [False, True]
    assert [kw["eigvals_only"] for kw in partial_calls] == expected
    assert all(kw["subset_by_index"] == [0, k - 1] for kw in partial_calls)


def test_all_isolated_vertices():
    for n in (2400, 150):
        adj = Adjacency(np.zeros((n, n)))
        vals, vecs = spectral._bottom_eigh(adj, 11)
        assert np.array_equal(vals, np.ones(11))
        assert np.array_equal(vecs, np.eye(n)[:, :11])
        assert_bottom_pairs_match_dense(adj, 11)


def test_tsc_graph_with_many_components():
    # q=1 on standard-normal points in R^20: a forest of small components (603
    # at N=2400, 78 at N=300), so k=11 stays inside the zero eigenvalues and
    # the larger k reaches past them
    for n, n_comp, ks in ((2400, 603, (11, 700)), (300, 78, (11, 100))):
        x = np.random.default_rng(0).standard_normal((20, n))
        adj = tsc_adjacency(x, TscConfig(q=1))
        assert connected_components(adj).max() + 1 == n_comp
        for k in ks:
            assert_bottom_pairs_match_dense(adj, k)


def inv_sqrt_degree(w):
    """D^{-1/2} as a vector, with 0 for isolated (zero-degree) vertices."""
    deg = w.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    return inv_sqrt


def normalized_laplacian(adj):
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}, as a dense array:
    the oracle for the eigenpairs the solver finds without forming it.

    Isolated vertices (zero degree) keep an identity row/column, i.e. they
    contribute an eigenvalue of exactly 1. The result is exactly symmetric,
    since W is and inv_sqrt[i] * inv_sqrt[j] commutes.
    """
    inv_sqrt = inv_sqrt_degree(adj.weights)
    lap = -adj.weights.toarray() * np.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(lap, 1.0)
    return lap


def flipped_laplacian(adj):
    """2I - L = I + D^{-1/2} W D^{-1/2} of the whole graph as one CSR matrix,
    by scipy's sparse sum: the oracle for the per-component blocks the
    solver fills from W's arrays."""
    w = adj.weights
    inv_sqrt = inv_sqrt_degree(w)
    rows = np.repeat(np.arange(adj.n), np.diff(w.indptr))
    off = sparse.csr_array(
        (w.data * (inv_sqrt[rows] * inv_sqrt[w.indices]), w.indices, w.indptr),
        shape=w.shape,
    )
    return off + sparse.csr_array(sparse.identity(adj.n, format="csr"))


def projected_tsc_graph(seed):
    """TSC graph (q=4) of 6 x 100 points on random 5-dim subspaces of R^100
    after a Gaussian projection to p=20: a few components of 100-300 vertices."""
    bases = [random_orthonormal_basis(100, 5, seed * 10 + i) for i in range(6)]
    data = generate(UnionModel(bases, (100,) * 6, seed=seed))
    proj = make_projector("gaussian", 100, 20, seed)
    return tsc_adjacency(project_columns(proj, data.points), TscConfig(q=4))


@pytest.mark.parametrize("lanczos", [False, True], ids=["dense-blocks", "lanczos-blocks"])
def test_components_solve_for_their_share_of_the_pairs(lanczos, monkeypatch):
    # each nontrivial component has one zero eigenvalue, which comes before
    # any other component's nonzero ones, so a component of more than k
    # vertices holds at most k - n_nontrivial + 1 of the bottom k (at least
    # 1); isolated vertices do not count, and a component of at most k
    # vertices is solved whole. Every dense Laplacian is filled straight from
    # the permuted CSR arrays of W, bytewise the negated slice of the whole
    # graph's 2I - L; Lanczos gets a CSR block with that slice's arrays
    if lanczos:
        # SPARSE_SOLVE_MIN_N lowered so Lanczos runs on every component of
        # 25 k_c vertices or more: at k=7 on all five components of seed 7
        # (3 pairs each), on 2 of 3 components of seed 3 (5 pairs each)
        monkeypatch.setattr(spectral, "SPARSE_SOLVE_MIN_N", 60)
        graphs = ((projected_tsc_graph(7), 5, (7, 11)), (projected_tsc_graph(3), 3, (7, 11)))
        # Lanczos stops at residuals of LANCZOS_TOL times eigenvalues of
        # 2I - L, up to 2: 1.55e-14 on 40 graphs of this shape (k = 3, 7,
        # 11), 1.70e-14 on 8 tsc_large_n-shaped ones, so 1e-14 is not met
        tol = 2 * spectral.LANCZOS_TOL
    else:
        # a forest, 6 blocks with 2 isolated vertices, and one component
        forest = tsc_adjacency(np.random.default_rng(0).standard_normal((20, 300)), TscConfig(q=1))
        blocks, _ = large_block_graph(200)
        whole = block_adjacency([50, 60, 40], rng=np.random.default_rng(4), off_value=1e-3)
        graphs = ((forest, 78, (11, 100)), (blocks, 6, (3, 11)), (whole, 1, (4, 150)))
        tol = 1e-14
    calls = []
    component_solve = spectral._component_bottom_eigh
    monkeypatch.setattr(
        spectral,
        "_component_bottom_eigh",
        lambda block, k, *rest: calls.append((block, k)) or component_solve(block, k, *rest),
    )
    n_lanczos = 0
    for adj, n_nontrivial, ks in graphs:
        labels = connected_components(adj)
        sizes = np.bincount(labels)
        assert np.count_nonzero(sizes > 1) == n_nontrivial
        order = np.argsort(labels, kind="stable")
        flipped = flipped_laplacian(adj)[order][:, order]
        starts = np.cumsum(sizes) - sizes
        full = np.linalg.eigvalsh(normalized_laplacian(adj))
        nontrivial = np.flatnonzero(sizes > 1)
        for k in ks:
            for eigvals_only in (True, False):
                calls.clear()
                found = spectral._bottom_eigh(adj, k, eigvals_only=eigvals_only)
                vals = found if eigvals_only else found[0]
                assert np.max(np.abs(vals - full[:k])) < tol
                assert [k_c for _, k_c in calls] == [
                    sizes[c] if sizes[c] <= k else min(k, max(1, k - n_nontrivial + 1))
                    for c in nontrivial
                ]
                for (block, k_c), c in zip(calls, nontrivial):
                    a, b = starts[c], starts[c] + sizes[c]
                    if b - a >= spectral.SPARSE_SOLVE_MIN_N and 25 * k_c <= b - a:
                        n_lanczos += 1
                        expected = flipped[a:b, a:b]
                        assert np.array_equal(block.indptr, expected.indptr)
                        assert np.array_equal(block.indices, expected.indices)
                        assert block.data.tobytes() == expected.data.tobytes()
                        continue
                    lap = -flipped[a:b, a:b].toarray()
                    np.fill_diagonal(lap, 1.0)
                    assert isinstance(block, np.ndarray)
                    # bitwise, signed zeros too: LAPACK's reflectors take their sign
                    assert block.tobytes() == lap.tobytes()
    assert (n_lanczos > 0) == lanczos
