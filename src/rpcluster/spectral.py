"""Normalized spectral clustering with eigengap-based model selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import eigsh

from .graph import Adjacency


@dataclass
class ClusteringResult:
    """Predicted labels plus the spectrum used to pick the cluster count."""

    labels: np.ndarray
    n_clusters: int
    eigenvalues: np.ndarray


def _inv_sqrt_degree(w: sparse.csr_array) -> np.ndarray:
    """D^{-1/2} as a vector, with 0 for isolated (zero-degree) vertices."""
    deg = w.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    return inv_sqrt


def normalized_laplacian(adj: Adjacency) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}, as a dense array.

    Isolated vertices (zero degree) keep an identity row/column, i.e. they
    contribute an eigenvalue of exactly 1. The result is exactly symmetric,
    since W is and inv_sqrt[i] * inv_sqrt[j] commutes.
    """
    inv_sqrt = _inv_sqrt_degree(adj.weights)
    lap = -adj.weights.toarray() * np.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(lap, 1.0)
    return lap


def _sparse_flipped_laplacian(adj: Adjacency) -> sparse.csr_array:
    """2I - L = I + D^{-1/2} W D^{-1/2} as CSR: normalized_laplacian(adj) with
    its off-diagonal negated and its diagonal 1 kept, entry for entry."""
    w = adj.weights
    inv_sqrt = _inv_sqrt_degree(w)
    rows = np.repeat(np.arange(adj.n), np.diff(w.indptr))
    off = sparse.csr_array(
        (w.data * (inv_sqrt[rows] * inv_sqrt[w.indices]), w.indices, w.indptr),
        shape=w.shape,
    )
    return off + sparse.csr_array(sparse.identity(adj.n, format="csr"))


def laplacian_eigenvalues(adj: Adjacency) -> np.ndarray:
    """All eigenvalues of the normalized Laplacian, ascending."""
    return _bottom_eigh(adj, adj.n, eigvals_only=True)


# Every graph is solved as 2I - L in CSR, one connected component at a time:
# by Lanczos (ARPACK eigsh) on components of this many vertices or more, by
# numpy's dense eigh below. ARPACK runs per component because a Krylov space
# finds a repeated eigenvalue one copy at a time: on whole TSC graphs with 6
# zero eigenvalues it returned only 4 of them, and whole-graph shift-invert
# missed copies of the 6-fold eigenvalues of 6 identical blocks in 6 of 10
# seeds. Inside a component the zero eigenvalue is simple. spectral_cluster
# with 6 clusters on one-component TSC graphs (6 subspaces of R^100, Gaussian
# p=20, q=8), 2 vCPUs, median per call, dense eigh against Lanczos: N=150
# 11-17 against 14-19 ms, N=200 16-22 against 15-22 ms, N=300 23-30 against
# 19-23 ms, N=402 34-48 against 18-29 ms, N=600 67 against 23 ms, N=1000 197
# against 36 ms, N=2400 2.0 s against 0.095 s. Lanczos wins from about
# N=250; the switch stays at 400, where the gain clears the spread between
# runs. Smaller components also stay off scipy's own OpenBLAS thread pool:
# with Lanczos at N=150, a loop of N=150 lasso SSC graph + spectral_cluster
# (3 subspaces, Gaussian p=20) took 0.031-0.035 s a job, against
# 0.021-0.027 s with the dense solve.
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


def _component_bottom_eigh(flipped: sparse.csr_array, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom k Laplacian eigenpairs, ascending, of one connected component,
    given as its block of 2I - L."""
    n = flipped.shape[0]
    # Lanczos work grows faster than linearly in k. On one-component TSC
    # graphs, Lanczos against the dense solve: k = n/15 at n=400 and 600, 25
    # against 26 ms and 53 against 60 ms; k = n/20 at n=1000, 1500 and 2400,
    # 158 against 185 ms, 488 against 431 ms and 1.6 against 2.4 s; k = n/10
    # took 1.6-4.9x the dense time
    if n < SPARSE_SOLVE_MIN_N or 20 * k > n:
        lap = -flipped.toarray()
        np.fill_diagonal(lap, 1.0)
        vals, vecs = np.linalg.eigh(lap)
        return vals[:k], vecs[:, :k]
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
    vals, vecs = eigsh(flipped, 2 * k, which="LA", v0=v0, rng=rng, tol=LANCZOS_TOL)
    order = np.argsort(-vals)[:k]
    return 2.0 - vals[order], vecs[:, order]


def _bottom_eigh(adj: Adjacency, k: int, eigvals_only: bool = False):
    """The min(k, N) smallest Laplacian eigenvalues, ascending, and their vectors,
    solved per connected component and merged.

    Like scipy.linalg.eigh, returns only the eigenvalues when eigvals_only.
    """
    k = min(k, adj.n)
    flipped = _sparse_flipped_laplacian(adj)
    _, comp = csgraph.connected_components(adj.weights, directed=False)
    sizes = np.bincount(comp)
    # isolated vertices: eigenvalue exactly 1 with the unit vector, all at once
    isolated = np.flatnonzero(sizes[comp] == 1)[:k]
    parts = [(np.ones(len(isolated)), isolated, np.eye(len(isolated)))]
    for members in np.split(np.argsort(comp, kind="stable"), np.cumsum(sizes)[:-1]):
        if len(members) > 1:
            vals, vecs = _component_bottom_eigh(
                flipped[members][:, members], min(k, len(members))
            )
            parts.append((vals, members, vecs))
    vals = np.concatenate([p[0] for p in parts])
    keep = np.argsort(vals, kind="stable")[:k]
    if eigvals_only:
        return vals[keep]
    out = np.zeros((adj.n, len(keep)))
    start = 0
    for part_vals, members, vecs in parts:
        cols = np.flatnonzero((keep >= start) & (keep < start + len(part_vals)))
        out[np.ix_(members, cols)] = vecs[:, keep[cols] - start]
        start += len(part_vals)
    return vals[keep], out


def _largest_gap(vals: np.ndarray, l_max: int) -> int:
    """1 + argmax of the first l_max gaps of ascending vals; 1 when there is no gap."""
    top = min(l_max, vals.shape[0] - 1)
    if top < 1:
        return 1
    gaps = vals[1 : top + 1] - vals[:top]
    return int(np.argmax(gaps)) + 1


def eigengap_estimate(adj: Adjacency, l_max: int = 10) -> int:
    """Estimated cluster count: argmax of lambda_{i+1} - lambda_i for i <= l_max.

    Eigenvalues are ascending; ties go to the smallest i.
    """
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    return _largest_gap(_bottom_eigh(adj, l_max + 1, eigvals_only=True), l_max)


KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total == 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    labels = np.full(points.shape[0], -1)
    for _ in range(KMEANS_MAX_ITER):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = labels == c
            if np.any(members):
                centers[c] = points[members].mean(axis=0)
            else:
                # revive an empty cluster at the point farthest from its center
                worst = int(np.argmax(dists[np.arange(len(labels)), labels]))
                centers[c] = points[worst]
                labels[worst] = c
    dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(dists, axis=1)
    inertia = float(dists[np.arange(len(labels)), labels].sum())
    return labels, inertia


def kmeans(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, float]:
    """Seeded k-means++ with restarts; returns (labels, inertia) of the best run.

    Restarts share one generator stream, and the best run wins on strictly
    smaller inertia, so results are reproducible for a fixed seed.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an (n, k) array, one row per point")
    if not 1 <= k <= points.shape[0]:
        raise ValueError(f"k={k} must be between 1 and the number of points")
    rng = np.random.default_rng(seed)
    best_labels = None
    best_inertia = np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp_init(points, k, rng)
        labels, inertia = _lloyd(points, centers)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels, best_inertia


def spectral_cluster(
    adj: Adjacency,
    n_clusters: int | None = None,
    seed: int = 0,
    l_max: int = 10,
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
