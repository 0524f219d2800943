import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from rpcluster import (
    Adjacency,
    SscConfig,
    TscConfig,
    UnionModel,
    false_connections,
    generate,
    make_projector,
    project_columns,
    random_orthonormal_basis,
    spectral_cluster,
    ssc,
    ssc_adjacency,
    tsc,
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


def projected_union(seed, n_subspaces, per_subspace):
    """Points on n_subspaces random 5-dim subspaces of R^100, per_subspace
    each, after a Gaussian projection to p=20."""
    bases = [random_orthonormal_basis(100, 5, seed * 10 + i) for i in range(n_subspaces)]
    data = generate(UnionModel(bases, (per_subspace,) * n_subspaces, seed=seed))
    return project_columns(make_projector("gaussian", 100, 20, seed), data.points)


def assert_same_csr(mine, oracle):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(mine, name), getattr(oracle, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tsc_graph_bytes_match_sum_of_z_and_its_transpose(seed):
    # N=2400, q=8: the oracle sums the CSR Z^T of the selected neighbors and
    # its transpose, as tsc_adjacency once did itself
    x = projected_union(seed, 6, 400)
    neighbors, cosines = tsc._select(x, TscConfig(q=8))
    n_pts, q = neighbors.shape
    weights = np.exp(-2.0 * np.arccos(np.clip(cosines, 0.0, 1.0)))
    zt = sparse.csr_array(
        (weights.ravel(), neighbors.ravel(), np.arange(0, n_pts * q + 1, q)),
        shape=(n_pts, n_pts),
    )
    assert_same_csr(tsc_adjacency(x, TscConfig(q=8)).weights, Adjacency(zt.T + zt).weights)


@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_ssc_graph_bytes_match_abs_z_plus_its_transpose(seed):
    # N=150, lasso: the oracle adds |Z|, as a CSR array, to its transpose
    x = projected_union(seed, 3, 50)
    z, _ = ssc._self_representation(x, SscConfig())
    a = abs(sparse.csr_array(z))
    assert_same_csr(ssc_adjacency(x, SscConfig()).weights, Adjacency(a + a.T).weights)
