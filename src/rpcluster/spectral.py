"""Normalized spectral clustering with eigengap-based model selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .ssc import Adjacency


@dataclass
class ClusteringResult:
    """Predicted labels plus the spectrum used to pick the cluster count."""

    labels: np.ndarray
    n_clusters: int
    eigenvalues: np.ndarray
    metadata: dict = field(default_factory=dict)


def normalized_laplacian(adj: Adjacency) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}.

    Isolated vertices (zero degree) keep an identity row/column, i.e. they
    contribute an eigenvalue of exactly 1. The result is exactly symmetric,
    since W is and inv_sqrt[i] * inv_sqrt[j] commutes.
    """
    w = adj.weights
    deg = w.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    lap = -w * np.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(lap, 1.0)
    return lap


def laplacian_eigenvalues(adj: Adjacency) -> np.ndarray:
    """All eigenvalues of the normalized Laplacian, ascending."""
    return np.linalg.eigvalsh(normalized_laplacian(adj))


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
    return _largest_gap(laplacian_eigenvalues(adj), l_max)


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


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    labels = np.full(points.shape[0], -1)
    for _ in range(max_iter):
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


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    n_restarts: int = 10,
    max_iter: int = 100,
) -> tuple[np.ndarray, float]:
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
    for _ in range(n_restarts):
        centers = _kmeans_pp_init(points, k, rng)
        labels, inertia = _lloyd(points, centers, max_iter)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels, best_inertia


def spectral_cluster(
    adj: Adjacency,
    n_clusters: int | None = None,
    seed: int = 0,
    l_max: int = 10,
    n_restarts: int = 10,
    max_iter: int = 100,
) -> ClusteringResult:
    """Cluster the rows of the normalized Laplacian eigenvector embedding.

    When n_clusters is None, the count is picked by the eigengap heuristic
    over the first l_max gaps. Embedding rows are unit-normalized, except
    all-zero rows, which are left at zero.
    """
    vals, vecs = np.linalg.eigh(normalized_laplacian(adj))
    if n_clusters is None:
        n_clusters = _largest_gap(vals, l_max)
    if not 1 <= n_clusters <= adj.n:
        raise ValueError(f"cluster count {n_clusters} is out of range")
    embedding = vecs[:, :n_clusters].copy()
    row_norms = np.linalg.norm(embedding, axis=1)
    nz = row_norms > 0
    embedding[nz] = embedding[nz] / row_norms[nz, None]
    labels, inertia = kmeans(
        embedding, n_clusters, seed, n_restarts=n_restarts, max_iter=max_iter
    )
    return ClusteringResult(
        labels=labels,
        n_clusters=n_clusters,
        eigenvalues=vals[: min(adj.n, n_clusters + 1)],
        metadata={
            "seed": seed,
            "n_restarts": n_restarts,
            "max_iter": max_iter,
            "inertia": inertia,
            "l_max": l_max,
        },
    )


def connected_components(adj: Adjacency) -> np.ndarray:
    """Component label per vertex; components numbered by smallest member index."""
    return csgraph.connected_components(adj.weights, directed=False)[1].astype(int)
