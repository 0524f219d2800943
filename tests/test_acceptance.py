"""End-to-end acceptance checks.

Each test evaluates one release criterion against an independent oracle or a
frozen synthetic protocol and prints a single "criterion N PASS/FAIL" line, so
running this file with -s doubles as the acceptance report. Tolerances and
instance sizes are part of the criterion and must not be loosened here.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.linalg import hadamard
from scipy.optimize import linprog

from rpcluster import (
    Adjacency,
    DataSet,
    ProjectorCalibration,
    SscConfig,
    TscConfig,
    UnionModel,
    affinity,
    clustering_error,
    eigengap_estimate,
    false_connections,
    generate,
    intersecting_pair,
    jl_distortion_survey,
    make_projector,
    project_columns,
    projected_affinity,
    random_orthonormal_basis,
    spectral_cluster,
    ssc_coefficients,
    theorem_report,
    tsc_adjacency,
)


def report(num, ok, detail):
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def test_criterion_1_ce_equals_permutation_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 41))
        n_lab = int(rng.integers(1, 6))
        truth = rng.integers(0, n_lab, size=n)
        pred = rng.integers(0, n_lab, size=n)
        ce = clustering_error(pred, truth)
        # brute force over all bijective relabelings of the padded alphabet
        k = int(max(pred.max(), truth.max())) + 1
        best = 0
        for perm in itertools.permutations(range(k)):
            mapped = np.array([perm[v] for v in pred])
            best = max(best, int(np.sum(mapped == truth)))
        oracle = float(1.0 - best / n)
        if ce != oracle:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    line = report(1, ok, f"200 label pairs, {mismatches} oracle mismatches, {elapsed:.1f}s")
    assert ok, line


def lasso_kkt_residual(x, z, j, alpha):
    """Stationarity residual of column j for the weighted lasso subproblem."""
    gram = x.T @ x
    lam = np.max(np.abs(np.delete(gram[j], j))) / alpha
    dictionary = np.delete(x, j, axis=1)
    v = np.delete(z[:, j], j)
    g = dictionary.T @ (x[:, j] - dictionary @ v)
    on = np.abs(v) > 1e-12
    res = 0.0
    if on.any():
        res = np.max(np.abs(g[on] - lam * np.sign(v[on])))
    if (~on).any():
        res = max(res, max(0.0, np.max(np.abs(g[~on])) - lam))
    return res


def criterion_2_instances():
    """The 50 small two-subspace instances of criterion 2, as point matrices."""
    rng = np.random.default_rng(202)
    for inst in range(50):
        m = int(rng.integers(5, 9))
        d = int(rng.integers(2, 4))
        n1 = int(rng.integers(d + 1, 8))
        n2 = int(rng.integers(d + 1, min(8, 16 - n1)))
        bases = (
            random_orthonormal_basis(m, d, 2 * inst),
            random_orthonormal_basis(m, d, 2 * inst + 1),
        )
        yield generate(UnionModel(bases, (n1, n2), seed=inst)).points


def test_criterion_2_ssc_lasso_kkt():
    # the lasso half of criterion 2 needs no outside solver: the KKT check is
    # evaluated here from scratch
    t0 = time.perf_counter()
    worst_kkt = 0.0
    for x in criterion_2_instances():
        z = ssc_coefficients(x, SscConfig())
        for j in range(x.shape[1]):
            worst_kkt = max(worst_kkt, lasso_kkt_residual(x, z, j, SscConfig().alpha))
    elapsed = time.perf_counter() - t0
    ok = worst_kkt <= 1e-4 and elapsed < 60.0
    line = report(2, ok, f"50 instances, max lasso KKT {worst_kkt:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_ssc_objective_matches_lp():
    try:
        import cvxpy
    except ImportError:
        cvxpy = None

    def lp_oracle(dictionary, target):
        # split-variable form: z = zp - zm with zp, zm >= 0, solved by cvxpy
        # when it is installed, else by HiGHS linprog; either is independent
        # of the homotopy that rpcluster runs
        n = dictionary.shape[1]
        if cvxpy is None:
            res = linprog(
                np.ones(2 * n),
                A_eq=np.hstack([dictionary, -dictionary]),
                b_eq=target,
                bounds=(0, None),
                method="highs",
            )
            assert res.status == 0, res.message
            return res.fun
        zp = cvxpy.Variable(n, nonneg=True)
        zm = cvxpy.Variable(n, nonneg=True)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.sum(zp) + cvxpy.sum(zm)),
            [dictionary @ (zp - zm) == target],
        )
        for solver in ("GLPK", "CLARABEL", "ECOS"):
            try:
                prob.solve(solver=solver)
            except (cvxpy.SolverError, KeyError):
                continue
            if prob.status == "optimal":
                return prob.value
        raise RuntimeError("no oracle solver produced an optimal certificate")

    t0 = time.perf_counter()
    worst_obj = 0.0
    for x in criterion_2_instances():
        _, infos = ssc_coefficients(x, SscConfig(mode="exact_l1"), return_info=True)
        for j in range(x.shape[1]):
            oracle_obj = lp_oracle(np.delete(x, j, axis=1), x[:, j])
            worst_obj = max(worst_obj, abs(infos[j].objective - oracle_obj))
    elapsed = time.perf_counter() - t0
    ok = worst_obj < 1e-6 and elapsed < 60.0
    line = report(2, ok, f"50 instances, max |obj - LP oracle| {worst_obj:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_3_tsc_equals_dense_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for inst in range(50):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(3, 13))
        q = int(rng.integers(1, min(9, n)))
        x = rng.standard_normal((m, n))
        adj = tsc_adjacency(x, TscConfig(q=q))
        norms = np.linalg.norm(x, axis=0)
        z = np.zeros((n, n))
        for j in range(n):
            scored = sorted(
                (-abs(float(x[:, j] @ x[:, i])) / (norms[i] * norms[j]), i)
                for i in range(n) if i != j
            )
            for neg_cos, i in scored[:q]:
                z[i, j] = math.exp(-2.0 * math.acos(min(1.0, -neg_cos)))
        worst = max(worst, float(np.max(np.abs(adj.weights.toarray() - (z + z.T)))))
    ok = worst < 1e-12
    line = report(3, ok, f"50 instances, max |A - dense oracle| {worst:.2e}")
    assert ok, line


def test_criterion_4_projected_affinity_increase_bound():
    t0 = time.perf_counter()
    m, d = 200, 10
    stats = {}
    for p in (20, 50, 100):
        diffs = []
        for trial in range(100):
            a = random_orthonormal_basis(m, d, 2 * trial)
            b = random_orthonormal_basis(m, d, 2 * trial + 1)
            proj = make_projector("gaussian", m, p, seed=trial)
            diffs.append(projected_affinity(a, b, proj) - affinity(a, b))
        stats[p] = (float(np.percentile(diffs, 95)), float(np.median(diffs)))
    elapsed = time.perf_counter() - t0
    tail_ok = all(stats[p][0] <= 4.0 * math.sqrt(d / p) for p in stats)
    median_ok = stats[20][1] > stats[50][1] > stats[100][1]
    ok = tail_ok and median_ok and elapsed < 120.0
    detail = ", ".join(
        f"p={p}: q95 {stats[p][0]:.3f} (bound {4.0 * math.sqrt(d / p):.3f}) med {stats[p][1]:.3f}"
        for p in (20, 50, 100)
    )
    line = report(4, ok, f"{detail}, {elapsed:.0f}s")
    assert ok, line


def test_criterion_5_ce_vs_p_trend():
    t0 = time.perf_counter()

    def run_cell(algorithm, p, seed):
        bases = tuple(random_orthonormal_basis(100, 5, 3 * seed + i) for i in range(3))
        data = generate(UnionModel(bases, (50, 50, 50), seed=seed + 500))
        if p == 0:
            points = data.points
        else:
            proj = make_projector("gaussian", 100, p, seed=seed + 900)
            points = project_columns(proj, data.points)
        ds = DataSet(points, data.labels)
        if algorithm == "ssc":
            adj_source = ssc_coefficients(ds, SscConfig(mode="exact_l1"))
            from rpcluster import adjacency_from_coefficients

            adj = adjacency_from_coefficients(adj_source)
        else:
            adj = tsc_adjacency(ds, TscConfig(q=4))
        res = spectral_cluster(adj, n_clusters=3, seed=seed)
        return clustering_error(res.labels, data.labels)

    means = {}
    for algorithm in ("ssc", "tsc"):
        for p in (0, 5, 40):
            means[algorithm, p] = float(
                np.mean([run_cell(algorithm, p, s) for s in range(20)])
            )
    elapsed = time.perf_counter() - t0
    close_ok = all(abs(means[a, 40] - means[a, 0]) <= 0.05 for a in ("ssc", "tsc"))
    worse_ok = all(means[a, 5] > means[a, 40] for a in ("ssc", "tsc"))
    ok = close_ok and worse_ok and elapsed < 600.0
    detail = ", ".join(
        f"{a} CE p0/p5/p40 {means[a, 0]:.3f}/{means[a, 5]:.3f}/{means[a, 40]:.3f}"
        for a in ("ssc", "tsc")
    )
    line = report(5, ok, f"{detail}, {elapsed:.0f}s")
    assert ok, line


def test_criterion_6_no_false_connections_regime():
    config = TscConfig(q=4)

    def clean(adj, labels):
        return false_connections(adj, labels).count == 0

    tsc_ok = clean_0 = clean_30 = exact_15 = 0
    # on record only: the p=15 graphs and the theorem's sides there
    clean_15 = 0
    lhs_15, rhs_15 = [], 0.0
    for seed in range(20):
        a, b = intersecting_pair(30, 3, 0, seed=seed)
        model = UnionModel((a, b), (30, 30), seed=seed + 1000)
        data = generate(model)
        tsc_ok += theorem_report(model, None, q=4).tsc_ok
        clean_0 += clean(tsc_adjacency(data, config), data.labels)
        for p in (15, 30):
            proj = make_projector("gaussian", 30, p, seed=seed + 2000)
            points = DataSet(project_columns(proj, data.points), data.labels)
            adj = tsc_adjacency(points, config)
            if p == 30:
                clean_30 += clean(adj, data.labels)
                continue
            res = spectral_cluster(adj, n_clusters=2, seed=0)
            exact_15 += clustering_error(res.labels, data.labels) == 0
            clean_15 += clean(adj, data.labels)
            rep = theorem_report(model, proj, q=4)
            lhs_15.append(rep.tsc_lhs)
            rhs_15 = rep.tsc_rhs
    # the theorem covers the unprojected data; at p=15 it promises no clean
    # graph, and the paper claims clustering without significant degradation
    ok = tsc_ok == 20 and clean_0 >= 19 and clean_30 >= 19 and exact_15 >= 19
    line = report(
        6,
        ok,
        f"unprojected: TSC condition {tsc_ok}/20 (need 20), zero-false-connection "
        f"{clean_0}/20; p=30 zero-false-connection {clean_30}/20; p=15 CE 0 "
        f"{exact_15}/20 (need 19 each); p=15 zero-false-connection "
        f"{clean_15}/20, TSC condition lhs >= "
        f"{min(lhs_15):.3f} vs rhs {rhs_15:.4f}",
    )
    assert ok, line


def test_criterion_7_jl_survey_and_fast_kinds_match_dense():
    rate = jl_distortion_survey("gaussian", m=128, p=100, t=0.5, trials=1000, seed=0)
    rate_ok = rate <= 0.01

    worst = 0.0
    rng = np.random.default_rng(707)
    for kind in ("fourier_sign", "hadamard_sign"):
        for m in (8, 16, 33, 64):
            for p in (max(1, m // 2), m):
                proj = make_projector(kind, m, p, seed=m + p)
                x = rng.standard_normal((m, 12))
                if kind == "fourier_sign":
                    n = m
                    f = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
                    full = np.real(f) * proj.signs
                else:
                    n = len(proj.signs)  # padded length
                    full = (hadamard(n).astype(float) * proj.signs)[:, :m]
                dense = full[proj.rows] * proj.scale
                worst = max(worst, float(np.max(np.abs(project_columns(proj, x) - dense @ x))))
    dense_ok = worst < 1e-10
    ok = rate_ok and dense_ok
    line = report(
        7, ok, f"survey violation rate {rate:.4f} (cap 0.01), fast-vs-dense max diff {worst:.2e}"
    )
    assert ok, line


def test_criterion_8_eigengap_and_spectral_on_block_adjacency():
    rng = np.random.default_rng(808)
    good = 0
    for case in range(50):
        n_blocks = int(rng.integers(2, 7))
        sizes = [int(s) for s in rng.integers(3, 11, size=n_blocks)]
        n = sum(sizes)
        w = np.zeros((n, n))
        truth = []
        start = 0
        for label, size in enumerate(sizes):
            block = rng.uniform(0.5, 1.0, (size, size))
            w[start : start + size, start : start + size] = (block + block.T) / 2
            truth += [label] * size
            start += size
        np.fill_diagonal(w, 0.0)
        adj = Adjacency(w)
        res = spectral_cluster(adj, seed=case)
        if eigengap_estimate(adj) == n_blocks and clustering_error(res.labels, np.array(truth)) == 0:
            good += 1
    ok = good == 50
    line = report(8, ok, f"{good}/50 block-diagonal cases with correct L and CE 0")
    assert ok, line


def test_criterion_9_theorem_report_hand_computed_sides():
    m, d, n_l, tau, c_tilde = 30, 3, 200, 2.0, 0.25
    a, b = intersecting_pair(m, d, 0, seed=0)
    model = UnionModel((a, b), (n_l, n_l), seed=0)
    proj = make_projector("gaussian", m, m, seed=3)  # p = m, but a real draw
    rep = theorem_report(model, proj, ProjectorCalibration(c_tilde=c_tilde), tau=tau, q=4)

    n_total = 2 * n_l
    rho_min = (n_l - 1) / d
    exact_lhs = 0.0 + math.sqrt(28 * d + 8 * math.log(2) + 2 * tau) / math.sqrt(3 * c_tilde * m)
    exact_rhs = math.sqrt(math.log(rho_min)) / (65 * math.log(n_total))
    lasso_lhs = 0.0 + math.sqrt(10 * d) / math.sqrt(12 * c_tilde * m)
    lasso_rhs = 1.0 / (15 * math.log(n_total))

    errs = (
        abs(rep.exact_lhs - exact_lhs),
        abs(rep.exact_rhs - exact_rhs),
        abs(rep.lasso_lhs - lasso_lhs),
        abs(rep.lasso_rhs - lasso_rhs),
    )
    ok = max(errs) < 1e-12 and rep.p == m
    line = report(9, ok, f"max |side - hand value| {max(errs):.2e} over 4 sides")
    assert ok, line


def test_criterion_10_frp_apply_time_flat_in_p():
    m = 4096
    rng = np.random.default_rng(1010)
    x = rng.standard_normal((m, 64))

    def fastest_apply_times(kind):
        """Best of 10 applies at p=m/8 and at p=m/2, the two sizes interleaved."""
        projs = [make_projector(kind, m, p, seed=1) for p in (m // 8, m // 2)]
        for proj in projs:
            project_columns(proj, x)
            project_columns(proj, x)  # warmup
        best = [np.inf, np.inf]
        for _ in range(10):
            for side, proj in enumerate(projs):
                t0 = time.perf_counter()
                project_columns(proj, x)
                best[side] = min(best[side], time.perf_counter() - t0)
        return best

    tf_small, tf_large = fastest_apply_times("fourier_sign")
    tg_small, tg_large = fastest_apply_times("gaussian")
    rel_f = abs(tf_large - tf_small) / min(tf_small, tf_large)
    rel_g = abs(tg_large - tg_small) / min(tg_small, tg_large)
    ok = rel_f < 0.25 and rel_g > 1.0
    line = report(
        10,
        ok,
        f"fourier_sign p=m/8 vs m/2 differs {rel_f:.0%} (cap 25%), gaussian {rel_g:.0%} (floor 100%)",
    )
    assert ok, line
