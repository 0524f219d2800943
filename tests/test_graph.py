import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from rpcluster import (
    Adjacency,
    TscConfig,
    UnionModel,
    false_connections,
    generate,
    random_orthonormal_basis,
    spectral_cluster,
    tsc_adjacency,
)

# one N x N float64 array at N=6000 is 288 MB
STAGE_PEAK_MB = 32
# TSC alone scores float32 blocks and re-scores only its candidates in
# float64: it traces 4.4 MB here, where float64 blocks traced 6.6 MB
TSC_PEAK_MB = 5


def test_tsc_spectral_metrics_memory_is_bounded():
    # 4 random 3-dim subspaces of R^20, 1500 points each: N = 6000
    bases = tuple(random_orthonormal_basis(20, 3, seed) for seed in range(4))
    data = generate(UnionModel(bases, (1500,) * 4, seed=0))
    peaks = {}
    tracemalloc.start()
    try:
        adj = tsc_adjacency(data, TscConfig(q=6))
        peaks["tsc_adjacency"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.reset_peak()
        result = spectral_cluster(adj, 4)
        peaks["spectral_cluster"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.reset_peak()
        report = false_connections(adj, data.labels)
        peaks["false_connections"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert result.labels.shape == (6000,)
    assert report.total_edges > 0
    assert max(peaks.values()) <= STAGE_PEAK_MB, peaks
    assert peaks["tsc_adjacency"] <= TSC_PEAK_MB, peaks


def directed_cycle(n):
    """Weight 1 from each vertex to the next: every row and column holds one
    entry, so W and its transpose have the same indptr and data."""
    return np.roll(np.eye(n), 1, axis=1)


@pytest.mark.parametrize(
    "make_w",
    [
        # in value: the same entries, one of them one ulp off
        lambda: np.array([[0.0, 1.0], [2.0, 0.0]]),
        lambda: np.array([[0.0, 0.3, 0.0], [0.3, 0.0, np.nextafter(0.7, 1)], [0.0, 0.7, 0.0]]),
        # in structure: an entry whose mirror is missing, and entries whose
        # mirrors sit elsewhere in rows of the same lengths
        lambda: np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        lambda: directed_cycle(5),
    ],
    ids=["value-2x2", "value-one-ulp", "structure-missing-mirror", "structure-directed-cycle"],
)
def test_adjacency_rejects_asymmetry(make_w):
    w = make_w()
    for fmt in (np.asarray, sparse.csr_array, sparse.coo_array):
        with pytest.raises(ValueError, match="^adjacency must be exactly symmetric$"):
            Adjacency(fmt(w))
