"""Thresholding-based subspace clustering: q nearest neighbors by |inner product|."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ssc import Adjacency, check_columns


@dataclass(frozen=True)
class TscConfig:
    """Neighborhood size q and whether selection scores are norm-normalized.

    With normalize_selection=False (the default) point j keeps the q other
    points with the largest raw |<x_j, x_i>|; with True the scores are divided
    by ||x_j|| ||x_i|| first, which matters only for unnormalized data.
    Projected points are unnormalized data: a Gaussian projection to p
    dimensions spreads ||Phi x|| by about 1/sqrt(2p), so raw selection favors
    long vectors. Callers clustering projected points should pass
    normalize_selection=True.
    """

    q: int = 4
    normalize_selection: bool = False

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be at least 1")


def tsc_neighbors(data, config: TscConfig | None = None) -> np.ndarray:
    """Index sets S_j of the q largest scores, one row per point.

    Ties are broken toward the smaller index; a point is never its own
    neighbor. Returns an (N, q) integer array.
    """
    if config is None:
        config = TscConfig()
    x = np.asarray(getattr(data, "points", data), dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-d array of column points")
    n_pts = x.shape[1]
    if config.q > n_pts - 1:
        raise ValueError(
            f"q={config.q} needs at least q+1 points, got {n_pts}"
        )
    scores = np.abs(x.T @ x)
    if config.normalize_selection:
        norms = np.linalg.norm(x, axis=0)
        if np.any(norms == 0):
            raise ValueError("normalized selection needs nonzero columns")
        scores = scores / np.outer(norms, norms)
    np.fill_diagonal(scores, -np.inf)
    # stable sort on (-score, index): descending score, ties toward lower index
    order = np.argsort(-scores, axis=1, kind="stable")
    return order[:, : config.q]


def tsc_adjacency(data, config: TscConfig | None = None) -> Adjacency:
    """Adjacency Z + Z^T with spherical-distance weights on selected neighbors.

    The weight on a selected edge (j, i) is exp(-2 * arccos(c_ji)) with
    c_ji = |<x_j, x_i>| / (||x_j|| ||x_i||), clamped into [0, 1].
    """
    if config is None:
        config = TscConfig()
    x = np.asarray(getattr(data, "points", data), dtype=float)
    n_pts = x.shape[1]
    check_columns(x)
    norms = np.linalg.norm(x, axis=0)
    neighbors = tsc_neighbors(data, config)
    cosines = np.clip(np.abs(x.T @ x) / np.outer(norms, norms), 0.0, 1.0)
    weights = np.exp(-2.0 * np.arccos(cosines))
    mask = np.zeros((n_pts, n_pts), dtype=bool)
    rows = np.repeat(np.arange(n_pts), config.q)
    mask[rows, neighbors.ravel()] = True
    z = np.where(mask, weights, 0.0).T  # column j carries the weights of S_j
    return Adjacency(z + z.T)
