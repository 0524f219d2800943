"""Thresholding-based subspace clustering: q nearest neighbors by |cosine|."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import Adjacency
from .synth import check_columns


@dataclass(frozen=True)
class TscConfig:
    """Neighborhood size q: each point keeps the q others of largest |cosine|."""

    q: int = 4

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be at least 1")


# Score matrix entries held per block of rows. Scoring a block takes about
# five arrays of this size (products, scores, ranking, partition copy, mask),
# so the memory the selection needs does not grow with N beyond O(Nq).
# tsc_adjacency at N=2400 (p=20, q=8) on 2 vCPUs, median of 25 interleaved
# calls: 61-73 ms from 2^14 to 2^18 entries (6 to 109 rows), 77 ms at 2^19,
# 101 ms at 2^21 and 150 ms for all rows at once, as blocks outgrow the
# cache; the traced peak is 5.5 MB at 2^17 against 84 MB at 2^21 and 145 MB
# for all rows.
BLOCK_ENTRIES = 2**17


def _select(data, config: TscConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (N, q) selected neighbors and the |cosines| of those selected pairs.

    The columns are normalized once, so a block's |X_b^T X| is its |cosine|
    matrix: the score that ranks neighbors and the cosine in the edge weight.
    Row j ranks the other points by |cosine|, descending, and ties go to the
    smaller index: exactly the first q of a stable argsort of -score. Only the
    candidates at or above each row's q-th score are sorted. Rows are scored
    in blocks of BLOCK_ENTRIES score entries, so no N x N array is formed.
    """
    x = np.asarray(getattr(data, "points", data), dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-d array of column points")
    check_columns(x)
    x = x / np.linalg.norm(x, axis=0)
    n_pts = x.shape[1]
    if config.q > n_pts - 1:
        raise ValueError(
            f"q={config.q} needs at least q+1 points, got {n_pts}"
        )
    q = config.q
    neighbors = np.empty((n_pts, q), dtype=np.intp)
    cosines = np.empty((n_pts, q))
    step = max(1, BLOCK_ENTRIES // n_pts)
    for start in range(0, n_pts, step):
        block = slice(start, min(start + step, n_pts))
        local = np.arange(block.stop - start)
        scores = np.abs(x[:, block].T @ x)
        ranking = -scores
        ranking[local, start + local] = np.inf  # a point is never its own neighbor
        # q <= N-1 and finite scores make every row's cut finite; ties at the
        # cut keep more than q candidates, and the lexsort puts the smaller
        # index first
        cut = np.partition(ranking, q - 1, axis=1)[:, q - 1]
        # flat indices are row-major, so rows come out ascending
        rows, cols = np.divmod(np.flatnonzero(ranking <= cut[:, None]), n_pts)
        cols = cols[np.lexsort((cols, ranking[rows, cols], rows))]
        first = np.searchsorted(rows, local)
        chosen = cols[first[:, None] + np.arange(q)]
        neighbors[block] = chosen
        cosines[block] = np.take_along_axis(scores, chosen, axis=1)
    return neighbors, cosines


def tsc_neighbors(data, config: TscConfig | None = None) -> np.ndarray:
    """Index sets S_j of the q largest |cosines| |<x_j, x_i>| / (||x_j|| ||x_i||).

    Ties are broken toward the smaller index; a point is never its own
    neighbor. A point with a NaN/inf entry or a zero norm is rejected.
    Returns an (N, q) integer array.
    """
    return _select(data, config or TscConfig())[0]


def tsc_adjacency(data, config: TscConfig | None = None) -> Adjacency:
    """Adjacency Z + Z^T with spherical-distance weights on selected neighbors.

    The weight on a selected edge (j, i) is exp(-2 * arccos(c_ji)), with c_ji
    the |cosine| that selected it, clamped into [0, 1]. Z is built
    sparse, with q entries per column.
    """
    neighbors, cosines = _select(data, config or TscConfig())
    n_pts, q = neighbors.shape
    weights = np.exp(-2.0 * np.arccos(np.clip(cosines, 0.0, 1.0)))
    # row j of Z^T holds S_j, that is column j of Z
    zt = sparse.csr_array(
        (weights.ravel(), neighbors.ravel(), np.arange(0, n_pts * q + 1, q)),
        shape=(n_pts, n_pts),
    )
    return Adjacency(zt.T + zt)
