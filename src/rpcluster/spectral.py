"""Normalized spectral clustering with eigengap-based model selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import LinearOperator, eigsh

from .graph import Adjacency


@dataclass
class ClusteringResult:
    """Predicted labels plus the spectrum used to pick the cluster count."""

    labels: np.ndarray
    n_clusters: int
    eigenvalues: np.ndarray


def laplacian_eigenvalues(adj: Adjacency) -> np.ndarray:
    """All eigenvalues of the normalized Laplacian, ascending."""
    return _bottom_eigh(adj, adj.n, eigvals_only=True)


# Every graph is solved one connected component at a time: by Lanczos
# (ARPACK eigsh, on the component's CSR block of 2I - L) on components of
# this many vertices or more that are asked for few pairs (25k <= n, see
# _bottom_eigh), by a dense LAPACK
# solve for the bottom pairs otherwise. ARPACK runs per component
# because a Krylov space finds a repeated eigenvalue one copy at a time: on
# whole TSC graphs with 6 zero eigenvalues it returned only 4 of them, and
# whole-graph shift-invert missed copies of the 6-fold eigenvalues of 6
# identical blocks in 6 of 10 seeds. Inside a component the zero eigenvalue
# is simple. spectral_cluster with 6 clusters on one-component TSC graphs (6
# subspaces of R^100, Gaussian p=20, q=8), 2 vCPUs, median of 15 interleaved
# calls, dense against Lanczos: N=150 10.4 against 12.2 ms, N=198 11.2
# against 13.2 ms, N=300 14.1 against 12.8 ms, N=402 24.0 against 17.8 ms,
# N=600 37.5 against 24.9 ms, N=1002 92 against 39 ms. The crossover lies
# between 200 and 400 vertices, inside the spread between runs (the
# quartiles overlap at N=300 and at N=402); the switch stays at 400.
SPARSE_SOLVE_MIN_N = 400

# Lanczos stops when every Ritz residual is at most LANCZOS_TOL times its
# eigenvalue of 2I - L. At eigsh's default, machine epsilon, that test can be
# out of reach: on complete graphs, whose nonzero eigenvalue repeats n - 1
# times, ARPACK gave up with error 3 ("No shifts could be applied") in 11 of
# 320 solves (n = 400..1000 in steps of 40, k = 2..21), and in 14 of 1920
# over 40 restart seeds each (complete, cycle and star graphs of 400-1200
# vertices, k = 2..40). At 1e-14 none raised; the largest residual entry was
# 1e-12 (a cycle of 1000 at k=4, 2.9e-15 at the default), mostly below 4e-15.
LANCZOS_TOL = 1e-14


def _component_bottom_eigh(block, k: int, eigvals_only: bool = False):
    """Bottom k Laplacian eigenpairs, ascending, of one connected component,
    given as its dense Laplacian or as its CSR block of 2I - L; only the
    eigenvalues when eigvals_only."""
    n = block.shape[0]
    if not sparse.issparse(block):
        if k == n:
            return np.linalg.eigvalsh(block) if eigvals_only else np.linalg.eigh(block)
        # LAPACK's dsyevr stops after the bottom k pairs: 1.1 ms at n=150
        # and k=4, against 2.4-3.6 ms for numpy's eigh of all of them
        return linalg.eigh(
            block, subset_by_index=[0, k - 1], eigvals_only=eigvals_only, check_finite=False
        )
    # L's spectrum lies in [0, 2], so its bottom is the top of the PSD matrix
    # 2I - L, which plain Lanczos finds from products alone, with no factor.
    # The start vector and the vectors ARPACK draws when it restarts come
    # from one seeded generator (left alone, eigsh seeds the restarts from OS
    # entropy), so repeated calls are bitwise equal. Lanczos can return the
    # next distinct eigenvalue in place of the last copy of a repeated one
    # inside a component, so it asks for 2k < n pairs and keeps the top k: on
    # a hub joined to one vertex of each of 6 identical 100-vertex blocks
    # (also 10 x 60 and 3 x 200; seeds 0-9, k = 2..21), asking for k was off
    # by more than 1e-12 in 213 of 600 cases (by up to 0.98), 2k in none
    # (4.1e-14 at most)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    # given the CSR block itself, eigsh multiplies through scipy's matrix
    # operator, a matrix-matrix product on an (n, 1) reshape with its checks
    # at every step; the block's own @ adds the same terms in the same order.
    # eigsh on a 400-vertex tsc_large_n component, k = 3, 2 vCPUs, median of
    # 60 alternating calls: 5.86 against 6.59 ms, bitwise equal pairs
    product = LinearOperator(block.shape, matvec=block.__matmul__, dtype=block.dtype)
    found = eigsh(
        product, 2 * k, which="LA", v0=v0, rng=rng, tol=LANCZOS_TOL,
        return_eigenvectors=not eigvals_only,
    )
    vals, vecs = (found, None) if eigvals_only else found
    order = np.argsort(-vals)[:k]
    return 2.0 - vals[order] if eigvals_only else (2.0 - vals[order], vecs[:, order])


def _bottom_eigh(adj: Adjacency, k: int, eigvals_only: bool = False):
    """The min(k, N) smallest Laplacian eigenvalues, ascending, and their vectors,
    solved per connected component and merged.

    Like scipy.linalg.eigh, returns only the eigenvalues when eigvals_only.
    """
    k = min(k, adj.n)
    w = adj.weights
    # D^{-1/2} as a vector, with 0 for isolated (zero-degree) vertices
    deg = w.sum(axis=1)
    nz = deg > 0
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    n_comp, comp = csgraph.connected_components(w, directed=False)
    sizes = np.bincount(comp)
    # isolated vertices: eigenvalue exactly 1 with the unit vector, all at once
    isolated = np.flatnonzero(sizes[comp] == 1)[:k]
    parts = [(np.ones(len(isolated)), isolated, np.eye(len(isolated)))]
    # one permutation makes every component a contiguous diagonal block; a
    # row's columns stay in their order, since each component keeps its
    # vertices in index order
    order = np.argsort(comp, kind="stable")
    if n_comp > 1:
        w, inv_sqrt = w[order][:, order], inv_sqrt[order]
    # the off-diagonal entries of 2I - L = I + D^{-1/2} W D^{-1/2}, entry for
    # entry in W's CSR order
    rows = np.repeat(np.arange(adj.n), np.diff(w.indptr))
    off = w.data * (inv_sqrt[rows] * inv_sqrt[w.indices])
    # each other component's zero eigenvalue comes first, so a component
    # holds at most k - n_nontrivial + 1 of the bottom k. A component of at
    # most k vertices is still solved whole: numpy's eigh of all pairs takes
    # 6-20 us on 2-10 vertices, scipy's partial solve 18-40 us
    bound = max(1, k - int(np.count_nonzero(sizes > 1)) + 1)
    ends = np.cumsum(sizes)
    for a, b in zip((ends - sizes).tolist(), ends.tolist()):
        n = b - a
        if n < 2:
            continue
        k_c = n if n <= k else min(k, bound)
        lo, hi = w.indptr[a], w.indptr[b]
        # Lanczos work grows faster than linearly in k. On one-component TSC
        # graphs (as above), median of 5 alternating calls, the partial dense
        # solve against Lanczos at n = 402, 600, 1002, 1500 and 2400: k = n/20
        # 12/13, 28/31, 87/111, 294/635 and 967/1314 ms; k = n/22 11/13,
        # 32/37, 92/99, 247/377 and 873/1047 ms; k = n/25 11/11, 25/24, 83/73,
        # 253/315 and 964/877 ms; k = n/30 Lanczos wins at every n
        if n >= SPARSE_SOLVE_MIN_N and 25 * k_c <= n:
            # the component's CSR block of 2I - L, built only here
            off_block = sparse.csr_array(
                (off[lo:hi], w.indices[lo:hi] - a, w.indptr[a : b + 1] - lo), shape=(n, n)
            )
            block = off_block + sparse.eye_array(n, format="csr")
        else:
            # L's block straight from the CSR arrays: a CSR slice costs more
            # than the solve on components of a few vertices, and slicing then
            # densifying takes 1.2-1.7 times as long as this at 400-1600
            # vertices (0.87 against 0.72 ms at 1002). Entries that W does
            # not store are -0.0, as in the negated dense copy of 2I - L;
            # LAPACK's reflectors take the sign of a zero
            block = np.full((n, n), -0.0)
            block[rows[lo:hi] - a, w.indices[lo:hi] - a] = -off[lo:hi]
            np.fill_diagonal(block, 1.0)
        found = _component_bottom_eigh(block, k_c, eigvals_only)
        vals, vecs = (found, None) if eigvals_only else found
        parts.append((vals, order[a:b], vecs))
    vals = np.concatenate([p[0] for p in parts])
    keep = np.argsort(vals, kind="stable")[:k]
    if eigvals_only:
        return vals[keep]
    out = np.zeros((adj.n, len(keep)))
    start = 0
    for part_vals, members, vecs in parts:
        cols = np.flatnonzero((keep >= start) & (keep < start + len(part_vals)))
        out[members[:, None], cols] = vecs[:, keep[cols] - start]
        start += len(part_vals)
    return vals[keep], out


# Default number of leading eigengaps the cluster-count estimate compares
L_MAX = 10


def _largest_gap(vals: np.ndarray, l_max: int) -> int:
    """1 + argmax of the first l_max gaps of ascending vals; 1 when there is no gap."""
    top = min(l_max, vals.shape[0] - 1)
    if top < 1:
        return 1
    gaps = vals[1 : top + 1] - vals[:top]
    return int(np.argmax(gaps)) + 1


def eigengap_estimate(adj: Adjacency, l_max: int = L_MAX) -> int:
    """Estimated cluster count: argmax of lambda_{i+1} - lambda_i for i <= l_max.

    Eigenvalues are ascending; ties go to the smallest i.
    """
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    return _largest_gap(_bottom_eigh(adj, l_max + 1, eigvals_only=True), l_max)


KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100
# Restarts run in lockstep in groups whose (restarts, N, max(k, dim)) arrays
# hold at most this many entries (256 KB of float64): all 10 restarts at
# N=150 and k=3, 2 at a time at N=2400 and k=6, one at a time from N=2731
# (k=6). kmeans on 2 vCPUs, median of 21 calls, against the serial loop:
# N=150 (k=3) 1.04 against 2.44 ms; N=2400 (k=6) 15.1 against 27.9 ms at a
# traced peak of 1.11 against 1.02 MB. All 10 restarts of N=2400 at once
# took 18.2 ms and 4.24 MB, and 2.3 MB more peak RSS on tsc_large_n.
LOCKSTEP_ENTRIES = 2**15


def _kmeans_pp_starts(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """KMEANS_RESTARTS k-means++ starts, (R, k, dim), drawn in lockstep.

    Each restart draws its first index and then one uniform per further
    center, in restart order, before any center is picked. A restart picks
    each further center as rng.choice does with p = d2 / total: the
    cumulative sum of the weights scaled by its last entry, and the count of
    its entries at most the uniform. A restart whose total is 0 (its centers
    already cover every point) weighs every point 1 / N. Raises ValueError
    when a total overflows.
    """
    n = points.shape[0]
    draws = [(rng.integers(n), rng.random(k - 1)) for _ in range(KMEANS_RESTARTS)]
    uniforms = np.array([u for _, u in draws])
    centers = np.empty((KMEANS_RESTARTS, k, points.shape[1]))
    centers[:, 0] = points[[first for first, _ in draws]]
    with np.errstate(over="ignore"):  # an overflow raises the ValueError below
        d2 = _sq_dists(points, centers[:, :1])[..., 0]
    # d2 only falls as centers are added, so every later total is finite too
    if not np.isfinite(d2.sum(axis=1)).all():
        raise ValueError("squared distances between the points overflow")
    for i in range(1, k):
        weights, total = d2, d2.sum(axis=1)
        zero = total == 0
        if zero.any():
            weights, total = np.where(zero[:, None], 1.0, d2), np.where(zero, n, total)
        cdf = np.cumsum(weights / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
        centers[:, i] = points[np.count_nonzero(cdf <= uniforms[:, i - 1, None], axis=1)]
        d2 = np.minimum(d2, _sq_dists(points, centers[:, i : i + 1])[..., 0])
    return centers


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each point to each center: (..., N, k) for centers
    of shape (..., k, dim), the coordinates added one at a time, in order."""

    def term(j):
        diff = points[:, j, None] - centers[..., None, :, j]
        return np.multiply(diff, diff, out=diff)

    total = term(0)
    for j in range(1, points.shape[1]):
        total += term(j)
    return total


def _cluster_means(points: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(R, k, dim) cluster means for (R, N) labels with (R, k) nonzero counts:
    np.bincount adds each (restart, cluster, coordinate) bin's points in point
    order, one column included, and each sum is divided by its count."""
    n_restarts, k = counts.shape
    dim = points.shape[1]
    bins = (labels + k * np.arange(n_restarts)[:, None])[..., None] * dim + np.arange(dim)
    sums = np.bincount(bins.ravel(), np.tile(points.ravel(), n_restarts), counts.size * dim)
    return sums.reshape(n_restarts, k, dim) / counts[..., None]


def _lloyd_restarts(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's iteration from each of the (R, k, dim) centers: (R, N) labels,
    (R,) inertias.

    The restarts iterate in lockstep, each until its labels repeat or for
    KMEANS_MAX_ITER updates, and are scored on the distances of their last
    pass, with the arithmetic of Lloyd's iteration run alone from its start.
    Before a pass takes its centers from _cluster_means it revives empty
    clusters in order: each restart in which cluster c is empty moves into c
    its point farthest from its current center, by that pass's distances and
    the labels as earlier revivals left them; only points of clusters of two
    or more qualify, and ties go to the smaller index.
    """
    n_restarts, k = centers.shape[:2]
    labels = np.full((n_restarts, points.shape[0]), -1)
    inertia = np.empty(n_restarts)
    live = np.arange(n_restarts)
    current = centers
    for it in range(KMEANS_MAX_ITER + 1):
        dists = _sq_dists(points, current)
        new_labels = np.argmin(dists, axis=2)
        # done when the labels repeat, or after KMEANS_MAX_ITER updates
        done = (new_labels == labels[live]).all(axis=1) | (it == KMEANS_MAX_ITER)
        labels[live[done]] = new_labels[done]
        picked = np.take_along_axis(dists, new_labels[..., None], axis=2)[..., 0]
        inertia[live[done]] = picked[done].sum(axis=1)
        moving = np.flatnonzero(~done)
        live, new_labels, picked = live[moving], new_labels[moving], picked[moving]
        if not len(live):
            break
        bins = (new_labels + k * np.arange(len(live))[:, None]).ravel()
        counts = np.bincount(bins, minlength=k * len(live)).reshape(-1, k)
        # picked keeps a revived point's old distance; alone, it never qualifies
        for c in np.flatnonzero((counts == 0).any(axis=0)):
            r = np.flatnonzero(counts[:, c] == 0)
            qualify = np.take_along_axis(counts[r], new_labels[r], axis=1) >= 2
            worst = np.where(qualify, picked[r], -1.0).argmax(axis=1)
            counts[r, new_labels[r, worst]] -= 1
            counts[r, c] = 1
            new_labels[r, worst] = c
        current = _cluster_means(points, new_labels, counts)
        labels[live] = new_labels
    return labels, inertia


def kmeans(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, float]:
    """Seeded k-means++ with restarts; returns (labels, inertia) of the best run.

    Restarts share one generator stream, and the best run wins on strictly
    smaller inertia, so results are reproducible for a fixed seed. Points with
    NaN or inf, or whose squared distances overflow, raise ValueError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an (n, k) array, one row per point")
    if not 1 <= k <= points.shape[0]:
        raise ValueError(f"k={k} must be between 1 and the number of points")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite: no NaN or inf")
    # Lloyd draws nothing, so every start can be drawn before any restart runs
    starts = _kmeans_pp_starts(points, k, np.random.default_rng(seed))
    group = max(1, LOCKSTEP_ENTRIES // (points.shape[0] * max(k, points.shape[1])))
    runs = [_lloyd_restarts(points, starts[g : g + group]) for g in range(0, len(starts), group)]
    labels = np.concatenate([run[0] for run in runs])
    inertia = np.concatenate([run[1] for run in runs])
    best = int(np.argmin(inertia))  # the first of equal inertias
    return labels[best].copy(), float(inertia[best])


def spectral_cluster(
    adj: Adjacency,
    n_clusters: int | None = None,
    seed: int = 0,
    l_max: int = L_MAX,
) -> ClusteringResult:
    """Cluster the rows of the normalized Laplacian eigenvector embedding.

    When n_clusters is None, the count is picked by the eigengap heuristic
    over the first l_max gaps. Embedding rows are unit-normalized, except
    all-zero rows, which are left at zero. Only the bottom n_clusters + 1
    eigenpairs are computed (l_max + 1 when the count is picked).
    """
    if n_clusters is not None and not 1 <= n_clusters <= adj.n:
        raise ValueError(f"cluster count {n_clusters} is out of range")
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    k = (l_max if n_clusters is None else n_clusters) + 1
    vals, vecs = _bottom_eigh(adj, k)
    if n_clusters is None:
        n_clusters = _largest_gap(vals, l_max)
    embedding = vecs[:, :n_clusters].copy()
    row_norms = np.linalg.norm(embedding, axis=1)
    nz = row_norms > 0
    embedding[nz] = embedding[nz] / row_norms[nz, None]
    labels, _ = kmeans(embedding, n_clusters, seed)
    return ClusteringResult(
        labels=labels,
        n_clusters=n_clusters,
        eigenvalues=vals[: min(adj.n, n_clusters + 1)],
    )


def connected_components(adj: Adjacency) -> np.ndarray:
    """Component label per vertex; components numbered by smallest member index."""
    return csgraph.connected_components(adj.weights, directed=False)[1].astype(int)
