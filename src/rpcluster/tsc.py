"""Thresholding-based subspace clustering: q nearest neighbors by |cosine|."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import Adjacency, adjacency_from_coefficients
from .synth import check_columns


@dataclass(frozen=True)
class TscConfig:
    """Neighborhood size q: each point keeps the q others of largest |cosine|."""

    q: int = 4

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be at least 1")

    def check_points(self, n_pts: int) -> None:
        """Each of n_pts points needs q others to pick its neighbors from."""
        if self.q > n_pts - 1:
            raise ValueError(f"q={self.q} needs at least q+1 points, got {n_pts}")


# Score entries (float32) held per block of rows. Scoring a block takes two
# float32 arrays of this size (the scores and the partition copy) and a
# boolean mask, so beyond two copies of the points and the (N, q) output the
# memory the selection needs does not grow with N up to N=8192 (then the
# BLOCK_MIN_ROWS floor holds 16 N scores). tsc_adjacency at N=2400
# (p=20, q=8) on 2 vCPUs, median of 21 interleaved calls: 39 ms at 2^14
# entries (6 rows), 28-32 ms from 2^15 to 2^19 (13 to 218 rows), 45 ms at
# 2^21 and 92 ms for all rows at once, as blocks outgrow the cache; at
# N=6000 (p=20, q=6) the traced peak is 4.4 MB at 2^17 against 28 MB at 2^21
# and 867 MB for all rows.
BLOCK_ENTRIES = 2**17

# Fewest rows a block holds. Each block's float32 product streams all of the
# points, so a block of a few rows pays that read for little output: at
# N=50k (p=20), x32[:, s:s+B].T @ x32 took 236 us a row at B=2 (2^17 // N),
# 59 at B=8 and 27 at B=32. Every N <= 8192 keeps BLOCK_ENTRIES // N rows.
BLOCK_MIN_ROWS = 16


def _screen_margin(dim: int) -> float:
    """Twice a bound e on |float32 score - float64 score| for unit columns in R^dim.

    gamma_k(u) = k u / (1 - k u) bounds the relative rounding of a k-term
    inner product (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1). Rounding the float64 columns to float32 and taking their
    product in float32 lands within gamma_{dim+2}(2^-24) of the exact product
    of the float64 columns; the float64 product lands within
    gamma_dim(2^-53) of it; the float64 columns have norms within
    gamma_{dim+2}(2^-53) of 1. To first order e = (dim+2) 2^-24 + dim 2^-53.
    Rounding 2e up to float32 adds more than float32 underflow can cost
    (3 dim 2^-150).
    """

    def gamma(k, unit):
        return k * unit / (1 - k * unit)

    norm = 1 + gamma(dim + 2, 2.0**-53)
    return 2 * (gamma(dim + 2, 2.0**-24) + gamma(dim, 2.0**-53)) * norm**2


def _select(data, config: TscConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (N, q) selected neighbors and the |cosines| of those selected pairs.

    The columns are normalized once, so |X^T X| is the |cosine| matrix: the
    score that ranks neighbors and the cosine in the edge weight. Row j ranks
    the other points by float64 |cosine|, descending, and ties go to the
    smaller index: exactly the first q of a stable argsort of -score.

    Rows are scored in blocks of BLOCK_ENTRIES scores, on a float32 copy of
    the points, so no N x N array is formed. Each row's q-th largest float32
    score c comes from one partition. Every float32 score is within e of its
    float64 score (_screen_margin), so if t is the row's q-th largest float64
    score, at most q - 1 float32 scores exceed t + e, c <= t + e, and each of
    the q chosen neighbors has a float32 score >= t - e >= c - 2e. The
    entries at or above c - 2e are the candidates; only they are scored in
    float64 and sorted. At q=8 a row keeps 8.001 candidates on average
    (N=2400, p=20). On 2 vCPUs tsc_adjacency at p=20 takes 26 ms at N=2400
    and 0.45 s at N=12k, where scoring and partitioning every block in
    float64 took 46 ms and 0.94 s. A block holds BLOCK_MIN_ROWS rows at least.
    """
    x = check_columns(data)
    x = x / np.linalg.norm(x, axis=0)
    n_pts = x.shape[1]
    config.check_points(n_pts)
    q = config.q
    x32 = x.astype(np.float32)
    # rounded up, and each floor rounded down, so no floor exceeds c - 2e
    margin = np.nextafter(np.float32(_screen_margin(x.shape[0])), np.float32(np.inf))
    neighbors = np.empty((n_pts, q), dtype=np.intp)
    cosines = np.empty((n_pts, q))
    step = max(BLOCK_MIN_ROWS, BLOCK_ENTRIES // n_pts)
    for start in range(0, n_pts, step):
        block = slice(start, min(start + step, n_pts))
        local = np.arange(block.stop - start)
        scores = x32[:, block].T @ x32
        np.abs(scores, out=scores)
        scores[local, start + local] = -np.inf  # a point is never its own neighbor
        # q <= N-1 and finite scores make every row's cut finite. Scores >= 0
        # and -inf order like their int32 bit patterns, which np.partition
        # selects on about 3x faster than on float32
        bits = np.partition(scores.view(np.int32), n_pts - q, axis=1)
        cut = bits[:, n_pts - q].view(np.float32)
        floor = np.nextafter(cut - margin, -np.inf)
        # flat indices are row-major, so rows come out ascending
        rows, cols = np.divmod(np.flatnonzero(scores >= floor[:, None]), n_pts)
        used, col_in_used = np.unique(cols, return_inverse=True)
        exact = np.abs(x[:, block].T @ x[:, used])[rows, col_in_used]
        # every row keeps at least q candidates; among equal scores the
        # smaller index goes first
        order = np.lexsort((cols, -exact, rows))
        chosen = order[np.searchsorted(rows, local)[:, None] + np.arange(q)]
        neighbors[block] = cols[chosen]
        cosines[block] = exact[chosen]
    return neighbors, cosines


def tsc_neighbors(data, config: TscConfig | None = None) -> np.ndarray:
    """Index sets S_j of the q largest |cosines| |<x_j, x_i>| / (||x_j|| ||x_i||).

    Ties are broken toward the smaller index; a point is never its own
    neighbor. A point with a NaN/inf entry or a zero norm is rejected.
    Returns an (N, q) integer array.
    """
    return _select(data, config or TscConfig())[0]


def tsc_adjacency(data, config: TscConfig | None = None) -> Adjacency:
    """Adjacency |Z| + |Z|^T with spherical-distance weights on selected neighbors.

    The weight on a selected edge (j, i) is exp(-2 * arccos(c_ji)), with c_ji
    the |cosine| that selected it, clamped into [0, 1]. Z is built
    sparse, with q entries per column, and symmetrized by
    adjacency_from_coefficients, as SSC's is.
    """
    neighbors, cosines = _select(data, config or TscConfig())
    n_pts, q = neighbors.shape
    weights = np.exp(-2.0 * np.arccos(np.clip(cosines, 0.0, 1.0)))
    # row j of Z^T holds S_j, that is column j of Z
    zt = sparse.csr_array(
        (weights.ravel(), neighbors.ravel(), np.arange(0, n_pts * q + 1, q)),
        shape=(n_pts, n_pts),
    )
    # Z^T gives the same graph as Z, without a conversion from CSC
    return adjacency_from_coefficients(zt)
