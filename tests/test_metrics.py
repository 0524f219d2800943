import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import sparse

from rpcluster import (
    Adjacency,
    ProjectorCalibration,
    SubspaceBasis,
    TheoremReport,
    TscConfig,
    UnionModel,
    affinity,
    clustering_error,
    explicit_projector,
    false_connections,
    make_projector,
    perturbation_norm,
    project_columns,
    projected_affinity,
    pseudoinverse_affinity,
    random_orthonormal_basis,
    theorem_report,
    tsc_adjacency,
)


def brute_force_ce(pred, truth):
    """Minimum misclassification fraction over every bijection of label sets."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pred_ids = np.unique(pred)
    truth_ids = np.unique(truth)
    k = max(len(pred_ids), len(truth_ids))
    pred_pos = {v: i for i, v in enumerate(pred_ids)}
    truth_pos = {v: i for i, v in enumerate(truth_ids)}
    p = np.array([pred_pos[v] for v in pred])
    t = np.array([truth_pos[v] for v in truth])
    best = 0
    for perm in itertools.permutations(range(k)):
        mapping = np.array(perm)
        best = max(best, int(np.sum(mapping[p] == t)))
    return 1.0 - best / len(pred)


def labels_using_all(rng, k, n, values=None):
    """n labels drawn from k values, each of which occurs at least once."""
    idx = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
    return idx if values is None else np.asarray(values)[idx]


def test_clustering_error_examples():
    assert clustering_error([0, 1, 0, 1], [0, 1, 0, 1]) == 0.0
    assert clustering_error([1, 1, 0, 0], [0, 0, 1, 1]) == 0.0
    assert clustering_error([0, 1, 1, 1], [0, 0, 1, 1]) == 0.25


def test_clustering_error_matches_brute_force():
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(200):
        n = int(rng.integers(2, 41))
        k_true = int(rng.integers(1, 6))
        k_pred = int(rng.integers(1, 6))
        truth = rng.integers(0, k_true, size=n)
        cases.append((rng.integers(0, k_pred, size=n), truth))
    # label values that are not contiguous, or are negative
    for _ in range(20):
        n = int(rng.integers(3, 30))
        pred = labels_using_all(rng, 3, n, values=[-3, 7, 100])
        truth = labels_using_all(rng, 3, n, values=[-5, 0, 42])
        cases.append((pred, truth))
        cases.append((pred, labels_using_all(rng, 2, n, values=[1000, -1])))
    # unequal label counts, up to 7 on either side
    for k_pred, k_true in [(7, 2), (2, 7), (7, 6), (6, 7), (7, 7), (5, 3)]:
        for n in (7, 25):
            cases.append((labels_using_all(rng, k_pred, n), labels_using_all(rng, k_true, n)))
    # one point
    cases += [([0], [0]), ([4], [-1])]
    # a single predicted or a single true cluster
    for k in (1, 2, 4, 7):
        labels = labels_using_all(rng, k, 20)
        cases += [(np.zeros(20, dtype=int), labels), (labels, np.full(20, 9))]
    for pred, truth in cases:
        assert clustering_error(pred, truth) == pytest.approx(
            brute_force_ce(pred, truth), abs=1e-12
        )
    assert clustering_error([4], [-1]) == 0.0
    assert clustering_error(np.zeros(20, dtype=int), np.arange(20) % 4) == 0.75


def test_clustering_error_relabel_invariance_and_symmetry():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 4, size=30)
    pred = rng.integers(0, 4, size=30)
    base = clustering_error(pred, truth)
    relabel = np.array([2, 0, 3, 1])
    assert clustering_error(relabel[pred], truth) == pytest.approx(base)
    assert clustering_error(pred, relabel[truth]) == pytest.approx(base)
    assert clustering_error(truth, pred) == pytest.approx(base)


def test_clustering_error_length_mismatch():
    with pytest.raises(ValueError):
        clustering_error([0, 1], [0, 1, 2])


def test_false_connections_examples():
    w = np.zeros((6, 6))
    w[:3, :3] = 1.0
    w[3:, 3:] = 1.0
    np.fill_diagonal(w, 0.0)
    truth = [0, 0, 0, 1, 1, 1]
    rep = false_connections(Adjacency(w), truth)
    assert rep.count == 0
    assert not rep.has_false
    assert rep.total_edges == 6
    w[0, 5] = w[5, 0] = 0.2
    rep = false_connections(Adjacency(w), truth)
    assert rep.count == 1
    assert rep.has_false
    assert rep.total_edges == 7


def test_false_connections_matches_double_loop():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 25))
        w = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.3)
        w = np.triu(w, k=1)
        w = w + w.T
        truth = rng.integers(0, 4, size=n)
        rep = false_connections(Adjacency(w), truth)
        count = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if w[i, j] > 0 and truth[i] != truth[j]
        )
        total = sum(1 for i in range(n) for j in range(i + 1, n) if w[i, j] > 0)
        assert rep.count == count
        assert rep.total_edges == total
        assert rep.count <= rep.total_edges


def test_false_connections_match_upper_triangle_count():
    # the count and the edge total read off scipy's upper triangle; TSC graphs
    # of several components, and one graph with no edge
    rng = np.random.default_rng(8)
    graphs = [Adjacency(np.zeros((4, 4)))]
    for n, q in ((60, 1), (300, 4), (900, 8)):
        graphs.append(tsc_adjacency(rng.standard_normal((10, n)), TscConfig(q=q)))
    for adj in graphs:
        truth = rng.integers(0, 3, size=adj.n)
        iu, ju = sparse.triu(adj.weights, k=1).nonzero()
        rep = false_connections(adj, truth)
        assert rep.count == np.count_nonzero(truth[iu] != truth[ju])
        assert rep.total_edges == iu.size


def test_false_connections_label_length_mismatch():
    with pytest.raises(ValueError):
        false_connections(Adjacency(np.zeros((3, 3))), [0, 1])


def test_pseudoinverse_affinity_orthonormal_reduction():
    w = random_orthonormal_basis(12, 8, seed=3).matrix
    v_l, v_k = w[:, :4], w[:, 4:]
    expected = np.linalg.norm(v_l.T @ v_k, "fro") / 2.0
    assert pseudoinverse_affinity(v_l, v_k) == pytest.approx(expected, abs=1e-12)
    assert pseudoinverse_affinity(v_l, v_l) == pytest.approx(1.0, abs=1e-12)


def test_pseudoinverse_affinity_matches_svd_oracle():
    rng = np.random.default_rng(4)
    for trial in range(10):
        a = random_orthonormal_basis(80, 6, 2 * trial).matrix
        b = random_orthonormal_basis(80, 6, 2 * trial + 1).matrix
        proj = make_projector("gaussian", 80, 40, seed=trial)
        v_l = project_columns(proj, a)
        v_k = project_columns(proj, b)
        oracle = np.linalg.norm(np.linalg.pinv(v_l) @ v_k, "fro") / np.sqrt(6)
        assert pseudoinverse_affinity(v_l, v_k) == pytest.approx(oracle, abs=1e-8)


def test_pseudoinverse_affinity_rank_errors():
    v_l = np.ones((4, 6))  # p < d, never full column rank
    with pytest.raises(ValueError):
        pseudoinverse_affinity(v_l, np.ones((4, 2)))
    repeated = np.ones((6, 2))  # rank one
    with pytest.raises(ValueError):
        pseudoinverse_affinity(repeated, np.eye(6, 2))


def test_projected_affinity_identity_reduces_to_affinity():
    a = random_orthonormal_basis(30, 4, seed=5)
    b = random_orthonormal_basis(30, 4, seed=6)
    eye = explicit_projector(np.eye(30))
    assert projected_affinity(a, b, eye) == pytest.approx(affinity(a, b), abs=1e-12)


def test_projected_affinity_rank_gate():
    a = random_orthonormal_basis(30, 8, seed=7)
    proj = make_projector("gaussian", 30, 4, seed=0)  # p < d
    with pytest.raises(ValueError):
        projected_affinity(a, a, proj)


def test_perturbation_norm_identity_is_zero():
    a = random_orthonormal_basis(20, 3, seed=8)
    b = random_orthonormal_basis(20, 5, seed=9)
    eye = explicit_projector(np.eye(20))
    assert perturbation_norm(a, b, eye) == 0.0


def test_perturbation_norm_symmetric_for_equal_dims():
    a = random_orthonormal_basis(25, 4, seed=10)
    b = random_orthonormal_basis(25, 4, seed=11)
    proj = make_projector("gaussian", 25, 12, seed=1)
    ab = perturbation_norm(a, b, proj)
    ba = perturbation_norm(b, a, proj)
    assert ab == pytest.approx(ba, rel=1e-13)


def test_perturbation_norm_percentile_bound():
    # 95th percentile of the perturbation stays under 4 sqrt(d/p)
    vals = []
    for trial in range(100):
        a = random_orthonormal_basis(200, 10, 2 * trial)
        b = random_orthonormal_basis(200, 10, 2 * trial + 1)
        proj = make_projector("gaussian", 200, 50, seed=trial)
        vals.append(perturbation_norm(a, b, proj))
    assert np.percentile(vals, 95) <= 4 * np.sqrt(10 / 50)


def test_perturbation_norm_grows_as_p_shrinks():
    def median_at(p):
        vals = []
        for trial in range(50):
            a = random_orthonormal_basis(200, 10, 2 * trial)
            b = random_orthonormal_basis(200, 10, 2 * trial + 1)
            proj = make_projector("gaussian", 200, p, seed=1000 + trial)
            vals.append(perturbation_norm(a, b, proj))
        return np.median(vals)

    assert median_at(20) > median_at(100)


def test_projected_affinity_triangle_bound():
    # projecting can raise the affinity by at most (about) the perturbation norm
    cases = [(60, 4, 30), (100, 5, 50), (200, 10, 100)]
    for m, d, p in cases:
        for trial in range(30):
            a = random_orthonormal_basis(m, d, 2 * trial)
            b = random_orthonormal_basis(m, d, 2 * trial + 1)
            proj = make_projector("gaussian", m, p, seed=trial)
            lhs = projected_affinity(a, b, proj)
            rhs = affinity(a, b) + perturbation_norm(a, b, proj) + 1e-8
            assert lhs <= rhs


def orthogonal_pair_model(m, d, counts, seed=0):
    w = random_orthonormal_basis(m, 2 * d, seed).matrix
    return UnionModel(
        (SubspaceBasis(w[:, :d]), SubspaceBasis(w[:, d:])), counts, seed=seed
    )


def test_theorem_report_identity_example():
    model = orthogonal_pair_model(30, 3, (200, 200), seed=12)
    report = theorem_report(model, None)
    assert report.aff_max == pytest.approx(0.0, abs=1e-10)
    assert report.n_points == 400
    # independent recomputation of every closed-form side
    log_n = math.log(400)
    rho = 199 / 3
    assert report.lasso_lhs == pytest.approx(0.0, abs=1e-10)
    assert report.lasso_rhs == pytest.approx(1 / (15 * log_n), abs=1e-12)
    assert report.lasso_rhs == pytest.approx(0.01113, abs=5e-6)
    assert report.exact_rhs == pytest.approx(math.sqrt(math.log(rho)) / (65 * log_n), abs=1e-12)
    assert report.tsc_rhs == pytest.approx(math.sqrt(math.log(rho)) / (64 * log_n), abs=1e-12)
    assert report.lasso_ok and report.exact_ok and report.tsc_ok
    assert report.p == 30


def test_theorem_report_projection_penalties():
    model = orthogonal_pair_model(64, 3, (200, 200), seed=13)
    proj = make_projector("gaussian", 64, 32, seed=0)
    cal = ProjectorCalibration(c_tilde=0.25)
    report = theorem_report(model, proj, cal, tau=2.0, q=4)
    exact_penalty = math.sqrt(28 * 3 + 8 * math.log(2) + 2 * 2.0) / math.sqrt(3 * 0.25 * 32)
    lasso_penalty = math.sqrt(10 * 3 / (12 * 0.25 * 32))
    assert report.exact_lhs == pytest.approx(report.aff_max + exact_penalty, abs=1e-12)
    assert report.lasso_lhs == pytest.approx(report.aff_max + lasso_penalty, abs=1e-12)
    assert report.p == 32


def test_theorem_report_nested_subspaces_never_satisfied():
    big = random_orthonormal_basis(20, 6, seed=14)
    nested = SubspaceBasis(big.matrix[:, :3])
    model = UnionModel((big, nested), (50, 30), seed=0)
    report = theorem_report(model, None)
    assert report.aff_max == pytest.approx(1.0, abs=1e-10)
    assert not report.exact_ok
    assert not report.lasso_ok


def test_theorem_report_density_boundary():
    bases = (random_orthonormal_basis(12, 3, 15), random_orthonormal_basis(12, 3, 16))
    model = UnionModel(bases, (4, 40), seed=0)  # first cluster: rho = 1
    report = theorem_report(model, None)
    assert report.rho_min == pytest.approx(1.0)
    assert report.exact_rhs == 0.0
    assert report.tsc_rhs == 0.0
    assert not report.exact_ok and not report.tsc_ok
    assert "rho_min" in report.notes


def test_theorem_report_min_points_gate():
    model = orthogonal_pair_model(20, 2, (20, 200), seed=17)
    report = theorem_report(model, None, q=4)
    assert not report.lasso_min_points_ok  # 20 < 6q = 24
    assert not report.lasso_ok
    ok_report = theorem_report(model, None, q=3)
    assert ok_report.lasso_min_points_ok


def test_theorem_report_penalties_monotone_in_p():
    model = orthogonal_pair_model(128, 4, (100, 100), seed=18)
    lhs_exact, lhs_lasso = [], []
    for p in (16, 32, 64, 128):
        proj = make_projector("gaussian", 128, p, seed=0)
        report = theorem_report(model, proj)
        lhs_exact.append(report.exact_lhs - report.aff_max)
        lhs_lasso.append(report.lasso_lhs - report.aff_max)
    assert all(a > b for a, b in zip(lhs_exact, lhs_exact[1:]))
    assert all(a > b for a, b in zip(lhs_lasso, lhs_lasso[1:]))


def test_theorem_report_rank_deficient_projection_noted():
    model = orthogonal_pair_model(40, 5, (60, 60), seed=19)
    proj = make_projector("gaussian", 40, 3, seed=0)  # p < d
    report = theorem_report(model, proj)
    assert not report.tsc_ok
    assert "thresholding" in report.notes


def test_theorem_report_record_round_trip():
    model = orthogonal_pair_model(16, 2, (30, 30), seed=20)
    report = theorem_report(model, None)
    record = dataclasses.asdict(report)
    assert TheoremReport(**record) == report
    assert report.tau == 2.0 and report.q == 4


def test_theorem_report_input_validation():
    model = orthogonal_pair_model(16, 2, (30, 30), seed=21)
    with pytest.raises(ValueError):
        theorem_report(model, None, tau=0.0)
    with pytest.raises(ValueError):
        theorem_report(model, None, q=0)
    with pytest.raises(ValueError):
        theorem_report(model, make_projector("gaussian", 18, 9, seed=0))
