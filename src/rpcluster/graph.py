"""The affinity graph shared by SSC, TSC, spectral clustering and the metrics.

SSC and TSC both build it from their coefficient matrix Z as W = |Z| + |Z|^T,
through adjacency_from_coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class Adjacency:
    """Symmetric nonnegative affinity matrix with zero diagonal, stored sparse.

    weights is a canonical scipy.sparse.csr_array: sorted indices, duplicates
    summed and explicit zeros dropped, so every stored entry is an edge. The
    constructor accepts a dense array or any scipy sparse matrix and checks
    the stored entries only, so a graph with Nq edges costs O(Nq) memory.
    """

    weights: sparse.csr_array
    n: int = field(init=False)

    def __post_init__(self):
        w = self.weights
        if not sparse.issparse(w):
            w = np.asarray(w, dtype=float)
            if w.ndim != 2:
                raise ValueError("adjacency must be a square matrix")
        # a copy, so canonicalizing never writes to the caller's matrix
        w = sparse.csr_array(w, dtype=float, copy=True)
        if w.shape[0] != w.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        w.sum_duplicates()
        w.eliminate_zeros()
        if not np.all(np.isfinite(w.data)):
            raise ValueError("adjacency weights must be finite")
        # canonical CSR arrays are equal exactly when the matrices are
        t = w.T.tocsr()
        if not (
            np.array_equal(w.indptr, t.indptr)
            and np.array_equal(w.indices, t.indices)
            and np.array_equal(w.data, t.data)
        ):
            raise ValueError("adjacency must be exactly symmetric")
        if np.any(w.data < 0):
            raise ValueError("adjacency weights must be nonnegative")
        if np.any(w.diagonal() != 0):
            raise ValueError("adjacency diagonal must be zero")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "n", w.shape[0])


def adjacency_from_coefficients(z) -> Adjacency:
    """Symmetrize a coefficient matrix, dense or sparse, into |Z| + |Z|^T."""
    a = abs(sparse.csr_array(z, dtype=float))
    return Adjacency(a + a.T)
