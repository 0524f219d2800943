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


def _select(data, config: TscConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked |X^T X|, the column norms, and the (N, q) selected neighbors.

    Row j ranks the other points by score, descending, with a stable sort so
    that ties go to the smaller index.
    """
    x = np.asarray(getattr(data, "points", data), dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-d array of column points")
    check_columns(x)
    n_pts = x.shape[1]
    if config.q > n_pts - 1:
        raise ValueError(
            f"q={config.q} needs at least q+1 points, got {n_pts}"
        )
    gram = np.abs(x.T @ x)
    norms = np.linalg.norm(x, axis=0)
    scores = gram / np.outer(norms, norms) if config.normalize_selection else gram
    ranking = -scores
    np.fill_diagonal(ranking, np.inf)  # a point is never its own neighbor
    order = np.argsort(ranking, axis=1, kind="stable")
    return gram, norms, order[:, : config.q]


def tsc_neighbors(data, config: TscConfig | None = None) -> np.ndarray:
    """Index sets S_j of the q largest scores, one row per point.

    Ties are broken toward the smaller index; a point is never its own
    neighbor. A point with a NaN/inf entry or a zero norm is rejected.
    Returns an (N, q) integer array.
    """
    return _select(data, config or TscConfig())[2]


def tsc_adjacency(data, config: TscConfig | None = None) -> Adjacency:
    """Adjacency Z + Z^T with spherical-distance weights on selected neighbors.

    The weight on a selected edge (j, i) is exp(-2 * arccos(c_ji)) with
    c_ji = |<x_j, x_i>| / (||x_j|| ||x_i||), clamped into [0, 1].
    """
    gram, norms, neighbors = _select(data, config or TscConfig())
    rows = np.repeat(np.arange(neighbors.shape[0]), neighbors.shape[1])
    cols = neighbors.ravel()
    cosines = np.clip(gram[rows, cols] / (norms[rows] * norms[cols]), 0.0, 1.0)
    z = np.zeros_like(gram)
    z[cols, rows] = np.exp(-2.0 * np.arccos(cosines))  # column j carries S_j
    return Adjacency(z + z.T)
