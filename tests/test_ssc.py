import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog

from rpcluster import (
    Adjacency,
    SscConfig,
    UnionModel,
    adjacency_from_coefficients,
    false_connections,
    generate,
    make_projector,
    project_columns,
    random_orthonormal_basis,
    ssc_adjacency,
    ssc_coefficients,
)
from rpcluster import ssc
from rpcluster.ssc import SSC_MODES
from test_acceptance import criterion_2_instances

EXACT = SscConfig(mode="exact_l1")


def lp_objective(dictionary, target):
    """min ||z||_1 s.t. dictionary @ z = target by HiGHS linprog, None if infeasible.

    Split-variable form z = zp - zm with zp, zm >= 0: a simplex/interior-point
    LP solver, independent of the homotopy in rpcluster.ssc.
    """
    n = dictionary.shape[1]
    res = linprog(
        np.ones(2 * n),
        A_eq=np.hstack([dictionary, -dictionary]),
        b_eq=target,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return res.fun


def l1_oracle(dictionary, target):
    """Optimal value of min ||z||_1 s.t. dictionary @ z = target.

    By cvxpy when it is installed, else by HiGHS linprog.
    """
    try:
        import cvxpy
    except ImportError:
        return lp_objective(dictionary, target)
    z = cvxpy.Variable(dictionary.shape[1])
    prob = cvxpy.Problem(
        cvxpy.Minimize(cvxpy.norm1(z)), [dictionary @ z == target]
    )
    for solver in ("GLPK", "CLARABEL", "ECOS"):
        try:
            prob.solve(solver=solver)
        except (cvxpy.SolverError, KeyError):
            continue
        if prob.status == "optimal":
            return prob.value
    raise RuntimeError("no oracle solver produced an optimal certificate")


def lasso_oracle(dictionary, target, lam):
    import cvxpy

    z = cvxpy.Variable(dictionary.shape[1])
    obj = lam * cvxpy.norm1(z) + 0.5 * cvxpy.sum_squares(target - dictionary @ z)
    prob = cvxpy.Problem(cvxpy.Minimize(obj))
    prob.solve(solver="CLARABEL")
    assert prob.status == "optimal"
    return np.asarray(z.value).ravel(), prob.value


def reference_lasso_admm(x, alpha=20.0, rho=2.0, max_iter=5000, tol=1e-10):
    """Lasso SSC by per-column ADMM, an independent oracle for the path solver.

    Column j runs ADMM on min ||z||_1 + (alpha/mu_j)/2 ||x_j - X_{-j} z||^2 (the
    lasso with lambda_j = mu_j/alpha, rescaled) with one Cholesky factor of
    w G_{-j} + rho I, until the primal and dual residuals fall below tol
    (absolute and relative) or max_iter. Returns Z.
    """
    n_pts = x.shape[1]
    gram = x.T @ x
    z_full = np.zeros((n_pts, n_pts))
    for j in range(n_pts):
        others = np.delete(np.arange(n_pts), j)
        g, dty = gram[np.ix_(others, others)], gram[others, j]
        mu = np.max(np.abs(dty))
        if mu == 0:
            continue
        w, n = alpha / mu, n_pts - 1
        chol = cho_factor(w * g + rho * np.eye(n))
        v = np.zeros(n)
        u = np.zeros(n)
        for _ in range(max_iter):
            z = cho_solve(chol, w * dty + rho * (v - u))
            v_old = v
            v = np.sign(z + u) * np.maximum(np.abs(z + u) - 1.0 / rho, 0.0)
            u = u + z - v
            eps_pri = np.sqrt(n) * tol + tol * max(np.linalg.norm(z), np.linalg.norm(v))
            eps_dual = np.sqrt(n) * tol + tol * np.linalg.norm(rho * u)
            if (
                np.linalg.norm(z - v) <= eps_pri
                and rho * np.linalg.norm(v - v_old) <= eps_dual
            ):
                break
        z_full[others, j] = v
    return z_full


def lasso_kkt(x, z, j, alpha=20.0):
    """Column j's lasso stationarity residual in units of lambda_j, from scratch."""
    dictionary = np.delete(x, j, axis=1)
    v = np.delete(z[:, j], j)
    lam = np.max(np.abs(dictionary.T @ x[:, j])) / alpha
    g = dictionary.T @ (x[:, j] - dictionary @ v) / lam
    on = v != 0
    res = max(np.max(np.abs(g)) - 1.0, 0.0)
    if on.any():
        res = max(res, np.max(np.abs(g[on] - np.sign(v[on]))))
    return res


def subspace_data(m, d, counts, seed, n_bases=None):
    n_bases = n_bases if n_bases is not None else len(counts)
    bases = tuple(random_orthonormal_basis(m, d, seed * 31 + i) for i in range(n_bases))
    return generate(UnionModel(bases, tuple(counts), seed=seed))


def test_two_axes_and_bisector():
    # the bisector needs sqrt(2)/2 of each axis point
    x = np.array([[1.0, 0.0, np.sqrt(2) / 2], [0.0, 1.0, np.sqrt(2) / 2]])
    z = ssc_coefficients(x, EXACT)
    s = np.sqrt(2) / 2
    assert np.allclose(z[:, 2], [s, s, 0.0], atol=1e-8)
    assert z[2, 2] == 0.0


def test_duplicate_point_is_its_own_representation():
    x = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    z = ssc_coefficients(x, EXACT)
    assert np.allclose(z[:, 1], [1.0, 0.0, 0.0, 0.0], atol=1e-8)
    assert abs(np.abs(z[:, 1]).sum() - 1.0) < 1e-8


def test_exact_objective_matches_lp_oracle():
    data = subspace_data(6, 2, (6, 6), seed=0)
    z, infos = ssc_coefficients(data.points, EXACT, return_info=True)
    for j in (0, 3, 7, 11):
        dictionary = np.delete(data.points, j, axis=1)
        oracle_obj = l1_oracle(dictionary, data.points[:, j])
        assert abs(infos[j].objective - oracle_obj) < 1e-6
        assert abs(np.abs(z[:, j]).sum() - oracle_obj) < 1e-6


def test_exact_scale_invariance():
    data = subspace_data(8, 3, (8, 8), seed=5)
    z1 = ssc_coefficients(data.points, EXACT)
    z2 = ssc_coefficients(7.3 * data.points, EXACT)
    assert np.max(np.abs(z1 - z2)) < 1e-8


def test_exact_kkt_certificates():
    data = subspace_data(7, 2, (8, 8), seed=2)
    _, infos = ssc_coefficients(data.points, EXACT, return_info=True)
    for info in infos:
        assert info.converged
        assert info.kkt_residual <= 1e-6


def test_exact_support_at_least_dim():
    data = subspace_data(20, 4, (25, 25), seed=3)
    z = ssc_coefficients(data.points, EXACT)
    support = (np.abs(z) > 1e-9).sum(axis=0)
    assert support.min() >= 4


def test_orthogonal_lines_no_cross_block_weight():
    u = np.zeros((6, 1))
    u[0, 0] = 1.0
    v = np.zeros((6, 1))
    v[3, 0] = 1.0
    from rpcluster import SubspaceBasis

    model = UnionModel((SubspaceBasis(u), SubspaceBasis(v)), (4, 4), seed=1)
    data = generate(model)
    adj = ssc_adjacency(data.points, EXACT)
    assert np.max(adj.weights.toarray()[:4, 4:]) == 0.0
    # every point leans on at least one of its own block
    assert np.min(adj.weights.toarray()[:4, :4].sum(axis=1)) > 0.0
    assert np.min(adj.weights.toarray()[4:, 4:].sum(axis=1)) > 0.0


def test_adjacency_from_strict_upper_triangle():
    z = np.triu(np.arange(16, dtype=float).reshape(4, 4) - 5.0, k=1)
    adj = adjacency_from_coefficients(z)
    assert np.array_equal(adj.weights.toarray(), np.abs(z) + np.abs(z).T)
    assert np.array_equal(adj.weights.toarray(), adj.weights.toarray().T)
    assert np.all(np.diag(adj.weights.toarray()) == 0)


def test_admm_matches_lasso_oracle():
    pytest.importorskip("cvxpy")
    data = subspace_data(6, 2, (5, 5), seed=7)
    x = data.points
    z, infos = ssc_coefficients(x, return_info=True)
    gram = x.T @ x
    for j in (0, 4, 9):
        mu = np.max(np.abs(np.delete(gram[j], j)))
        lam = mu / SscConfig().alpha
        dictionary = np.delete(x, j, axis=1)
        oracle_z, oracle_obj = lasso_oracle(dictionary, x[:, j], lam)
        assert abs(infos[j].objective - oracle_obj) < 1e-6
        mine = np.delete(z[:, j], j)
        assert np.max(np.abs(mine - oracle_z)) < 1e-4


def test_admm_kkt_residual_small_when_pushed():
    # the lasso path ends at the exact solution under the defaults
    data = subspace_data(9, 3, (8, 8), seed=11)
    z, infos = ssc_coefficients(data.points, return_info=True)
    for j, info in enumerate(infos):
        assert info.kkt_residual <= 1e-9
        assert lasso_kkt(data.points, z, j) <= 1e-9
        assert info.converged


def test_lasso_kkt_residual_above_tolerance_is_reported(monkeypatch):
    # with the tolerance below every column's residual, every column fails it
    data = subspace_data(9, 3, (8, 8), seed=11)
    _, solved = ssc_coefficients(data.points, return_info=True)
    tol = min(info.kkt_residual for info in solved) / 2
    assert tol > 0
    monkeypatch.setattr(ssc, "PATH_KKT_TOL", tol)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        z, infos = ssc_coefficients(data.points, return_info=True)
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning,
         "self-representation did not converge for 16 of 16 columns (first: [0, 1, 2, 3, 4])")
    ]
    for before, info in zip(solved, infos):
        assert not info.converged
        assert info.message == f"KKT residual {info.kkt_residual:.1e} above {tol:.0e}"
        # the solve itself is the same; only the verdict changes
        assert (info.kkt_residual, info.objective) == (before.kkt_residual, before.objective)
    assert np.count_nonzero(z) > 0


def test_default_admm_recovers_block_structure():
    data = subspace_data(12, 2, (10, 10), seed=19)
    adj = ssc_adjacency(data.points)
    cross = adj.weights.toarray()[:10, 10:]
    within = adj.weights.toarray()[:10, :10]
    assert within.sum() > 20 * cross.sum()


def projected_points():
    # p = 8 < N = 30
    data = subspace_data(50, 3, (10, 10, 10), seed=41)
    return project_columns(make_projector("gaussian", 50, 8, seed=41), data.points)


def wide_points():
    # unprojected, p = m = 40 > N = 12
    return subspace_data(40, 3, (6, 6), seed=43).points


def points_with_orthogonal_one():
    # the last point is orthogonal to all others, so its mu is 0
    x = subspace_data(9, 2, (6, 6), seed=47).points
    x = np.vstack([x, np.zeros((1, x.shape[1]))])
    return np.hstack([x, np.eye(10)[:, 9:]])


# (oracle settings, bound on |dZ|): the reference's defaults, and a tighter
# stop that brings it within 4e-11 of the path on these inputs
REFERENCE_SETTINGS = [({}, 1e-6), ({"max_iter": 20000, "tol": 1e-12}, 1e-9)]


@pytest.mark.parametrize("oracle", REFERENCE_SETTINGS, ids=["default", "tight"])
@pytest.mark.parametrize(
    "points", [projected_points, wide_points, points_with_orthogonal_one],
    ids=["p_below_n", "p_above_n", "orthogonal_point"],
)
def test_batched_admm_matches_per_column_reference(points, oracle):
    # the lasso_admm mode solves every column in one call; the reference
    # runs ADMM on each column alone
    x = points()
    settings, bound = oracle
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the orthogonal point
        z, infos = ssc_coefficients(x, return_info=True)
    assert np.max(np.abs(z - reference_lasso_admm(x, **settings))) <= bound
    assert np.all(np.diag(z) == 0.0)
    for j, info in enumerate(infos):
        if info.message == "point is orthogonal to all others":
            continue
        assert info.converged and info.iterations >= 1
        assert info.kkt_residual <= 1e-9
        assert lasso_kkt(x, z, j) <= 1e-9


def solve_in_blocks_of(columns, n, monkeypatch):
    """Make the solver take `columns` columns of an n-point input per block."""
    monkeypatch.setattr(ssc, "BLOCK_ENTRIES", columns * n)


@pytest.mark.parametrize("mode", SSC_MODES)
@pytest.mark.parametrize(
    "points", [projected_points, points_with_orthogonal_one, lambda: TIE_POINTS],
    ids=["p_below_n", "orthogonal_point", "integer_ties"],
)
def test_column_blocks_match_one_block(points, mode, monkeypatch):
    # 3-column blocks, the last one short, against one block of every column;
    # the orthogonal point is alone in its block
    x = points()
    n = x.shape[1]
    runs = []
    for columns in (n, 3):
        solve_in_blocks_of(columns, n, monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the orthogonal point
            runs.append(ssc_coefficients(x, SscConfig(mode=mode), return_info=True))
    (z_one, infos_one), (z_three, infos_three) = runs
    assert np.array_equal(z_one != 0, z_three != 0)
    assert [i.iterations for i in infos_one] == [i.iterations for i in infos_three]
    assert [i.converged for i in infos_one] == [i.converged for i in infos_three]
    assert np.max(np.abs(z_one - z_three)) <= 1e-12


@pytest.mark.parametrize("mode", SSC_MODES)
def test_step_cap_stops_only_the_long_paths(mode, monkeypatch):
    # the longest paths of one block hit the cap while the others finish, so
    # the block writes out finished and unfinished columns and keeps going
    data = subspace_data(50, 3, (8, 8, 8, 8), seed=43)
    x = project_columns(make_projector("gaussian", 50, 8, seed=43), data.points)
    n = x.shape[1]
    config = SscConfig(mode=mode)
    z_free, infos_free = ssc_coefficients(x, config, return_info=True)
    iterations = np.array([info.iterations for info in infos_free])
    cap = int(np.sort(iterations)[-4])
    capped = np.flatnonzero(iterations > cap).tolist()
    assert 1 <= len(capped) <= 3
    # the cap is MAX_PATH_STEPS * N steps, exact for N = 32
    monkeypatch.setattr(ssc, "MAX_PATH_STEPS", cap / n)
    named = re.escape(f"for {len(capped)} of {n} columns (first: {capped})")
    with pytest.warns(RuntimeWarning, match=named):
        z, infos = ssc_coefficients(x, config, return_info=True)
    for j, info in enumerate(infos):
        if j in capped:
            assert info.message == "path step cap reached"
            assert info.iterations == cap and not info.converged
            # the last iterate solves the lasso at the lambda the path reached
            on = np.flatnonzero(z[:, j])
            g = x.T @ (x[:, j] - x @ z[:, j])
            g[j] = 0.0
            lam = np.abs(g[on]).max()
            assert on.size and np.allclose(g[on], lam * np.sign(z[on, j]), rtol=1e-8, atol=0)
            assert np.abs(g).max() <= lam * (1 + 1e-8)
        else:
            assert info.message == "" and info.converged
            assert info.iterations == infos_free[j].iterations
            assert np.array_equal(z[:, j] != 0, z_free[:, j] != 0)
            assert np.max(np.abs(z[:, j] - z_free[:, j])) <= 1e-12


@pytest.mark.parametrize("mode", SSC_MODES)
def test_graph_from_supports_equals_graph_from_dense_z(mode):
    # ssc_adjacency builds its CSR from each column's support, with no dense Z
    config = SscConfig(mode=mode)
    for x in criterion_2_instances():
        mine = ssc_adjacency(x, config).weights
        dense = adjacency_from_coefficients(ssc_coefficients(x, config)).weights
        assert mine.nnz > 0
        assert np.array_equal(mine.indptr, dense.indptr)
        assert np.array_equal(mine.indices, dense.indices)
        assert np.array_equal(mine.data, dense.data)


def test_ssc_adjacency_memory_is_bounded():
    # 4 random 3-dim subspaces of R^50, 300 points each, Gaussian p=10:
    # N = 1200, where one N x N float64 array is 11.5 MB
    data = subspace_data(50, 3, (300,) * 4, seed=0)
    x = project_columns(make_projector("gaussian", 50, 10, seed=0), data.points)
    n = x.shape[1]
    tracemalloc.start()
    try:
        adj, infos = ssc_adjacency(x, return_info=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(info.converged for info in infos)
    assert adj.weights.nnz > 0
    assert peak < n * n * 8, peak / 1e6


# Found by search over small integer point sets with duplicates: ties let
# column 2's path drop atom 4 while it sits exactly on the boundary. If the
# dropped atom may re-enter in the next step, the path cycles between
# dropping and re-adding it until the step cap, with KKT residual 0.5.
TIE_POINTS = np.array([
    [2, 2, -4, 2, 4, 2, 2, 2, 2, 0, -1, 2, 2, 2, -2],
    [-2, -1, -2, -2, 0, 0, -2, 0, 0, 0, 1, -1, 1, -2, 0],
    [4, 0, 2, -2, 2, 0, 2, -2, 1, -1, -2, 0, -1, -2, -1],
    [0, 1, 0, -1, 4, 1, 2, 1, 2, 1, 0, 1, 0, -1, -2],
], dtype=float)


def test_lasso_path_does_not_readmit_a_dropped_atom_at_once():
    z, infos = ssc_coefficients(TIE_POINTS, SscConfig(alpha=1.5), return_info=True)
    # column 2: 4 steps for 1 nonzero, so one atom entered and was dropped
    assert infos[2].iterations > np.count_nonzero(z[:, 2])
    for j, info in enumerate(infos):
        assert info.converged
        assert lasso_kkt(TIE_POINTS, z, j, alpha=1.5) <= 1e-9


# Found by search over small integer point sets: column 4's path drops an
# atom that sits on the boundary, |c_i| = lambda. Let back on the side it
# left in the very next step, it re-enters at once and the path cycles
# between dropping and re-adding it until the step cap (110 steps).
HOLD_POINTS = np.array([
    [2, -2, -2, -3, -2, -3, 2, 2, -2, -1, -2],
    [1, 0, -2, 0, 0, -2, 0, -2, -1, -2, 0],
    [-2, -2, 2, 3, 3, -1, -3, 3, 3, -2, 0],
], dtype=float)


# Also found by search, each takes a tie rule at the default settings: in
# GAP_TIE_POINTS column 13 starts steps with two atoms past the boundary by
# rounding (gaps -2.9e-15 and -3.3e-15), and the first enters, not the one
# furthest past; in DROP_TIE_POINTS column 7's next entry and a drop fall at
# the same gamma, and the drop goes first.
GAP_TIE_POINTS = np.array([
    [3, -3, 3, 3, -1, -3, 1, -3, 3, -3, -2, 0, 1, -1, 2],
    [-3, 1, 1, 2, 0, 2, 1, -3, -3, 3, -3, 3, 3, 3, -3],
    [-3, 3, -2, 2, -3, -2, 0, 3, 3, 2, -3, -3, -1, 1, -3],
], dtype=float)
DROP_TIE_POINTS = np.array([
    [0, 2, -1, 1, 3, 1, 3, 3, 1, 1],
    [-3, -3, 0, 0, 1, 1, -2, -2, -2, -2],
    [-2, 2, -3, 3, 2, 0, 3, -1, 2, -3],
    [-1, -1, 0, 1, -1, 1, 2, 3, 1, -2],
], dtype=float)


@pytest.mark.parametrize("mode", SSC_MODES)
def test_dropped_atom_is_held_out_for_one_step(mode):
    z, infos = ssc_coefficients(HOLD_POINTS, SscConfig(mode=mode), return_info=True)
    assert all(info.converged for info in infos)
    assert infos[4].iterations == 4


def test_lasso_path_lets_a_dropped_atom_return_with_the_other_sign():
    # column 2's path drops atom 0 from a negative coefficient, and in the
    # next step atom 0 enters again with a positive one; a bar on both signs
    # leaves column 2 at KKT residual 1.8
    x = np.array([
        [1.14, 0.82, -2.62, -1.03],
        [-1.42, -0.30, -0.29, 0.94],
        [-0.07, -1.91, 0.99, -0.86],
    ])
    x /= np.linalg.norm(x, axis=0)
    z, infos = ssc_coefficients(x, return_info=True)
    assert infos[2].iterations > np.count_nonzero(z[:, 2])
    assert np.max(np.abs(z - reference_lasso_admm(x))) <= 1e-6
    for j, info in enumerate(infos):
        assert info.converged
        assert lasso_kkt(x, z, j) <= 1e-9


def test_lasso_path_with_duplicate_points():
    rng = np.random.default_rng(53)
    base = rng.standard_normal((6, 10))
    base /= np.linalg.norm(base, axis=0)
    # 10 copies point 0, 11 is -1 times point 3, 12 and 13 are 0.5 and -0.25
    # times points 5 and 7; each twin listed below has the largest |<x_i, x_j>|
    x = np.hstack([base, base[:, [0]], -base[:, [3]], 0.5 * base[:, [5]], -0.25 * base[:, [7]]])
    twins = {0: 10, 10: 0, 3: 11, 11: 3, 12: 5, 13: 7}
    z, infos = ssc_coefficients(x, return_info=True)
    for j, info in enumerate(infos):
        assert info.converged
        assert lasso_kkt(x, z, j) <= 1e-9
        if j in twins:
            assert np.flatnonzero(z[:, j]).tolist() == [twins[j]]



def test_tied_sides_go_to_side_plus():
    # column i < 4 is -1 times column 4 + i, so for any other column the
    # pair's correlations and rates are exact negatives of each other and
    # both atoms reach the boundary at the same step, one on each side. Side
    # +, where c_i = lambda and the coefficient grows positive, wins the tie;
    # only a path's first atom, the arg-max of mu_j, may come out negative.
    rng = np.random.default_rng(71)
    base = rng.standard_normal((5, 12))
    base /= np.linalg.norm(base, axis=0)
    x = np.hstack([-base[:, :4], base])
    pairs = range(8)
    for mode in SSC_MODES:
        z, infos = ssc_coefficients(x, SscConfig(mode=mode), return_info=True)
        assert all(info.converged for info in infos)
        entered = 0
        for j in range(x.shape[1]):
            corr = np.abs(x.T @ x[:, j])
            corr[j] = 0.0
            later = [k for k in pairs if k not in (j, int(corr.argmax())) and z[k, j] != 0]
            assert all(z[k, j] > 0 for k in later), (mode, j)
            entered += len(later)
        assert entered >= 10


def test_defaults_converge_without_warning():
    # the benchmark's shape: N=150 points of 3 subspaces, Gaussian p=20
    data = subspace_data(100, 5, (50, 50, 50), seed=59)
    x = project_columns(make_projector("gaussian", 100, 20, seed=59), data.points)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, infos = ssc_coefficients(x, return_info=True)
    assert all(info.converged for info in infos)
    assert max(info.kkt_residual for info in infos) <= 1e-9


def test_orthogonal_point_is_reported_and_left_out():
    x = points_with_orthogonal_one()
    j = x.shape[1] - 1
    for mode in SSC_MODES:
        with pytest.warns(RuntimeWarning, match="for 1 of 13 columns"):
            z, infos = ssc_coefficients(x, SscConfig(mode=mode), return_info=True)
        assert np.all(z[:, j] == 0.0) and np.all(z[j, :] == 0.0)
        assert infos[j].iterations == 0 and not infos[j].converged
        assert infos[j].message == "point is orthogonal to all others"
        assert infos[j].mode == mode
        assert isinstance(infos[j].kkt_residual, float) and np.isnan(infos[j].kkt_residual)
        assert all(info.iterations > 0 and info.converged for info in infos[:j])
        # a summary over the columns must not trip on the orthogonal one
        assert isinstance(max(info.kkt_residual for info in infos), float)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["lasso_admm", "exact_l1"])
def test_non_finite_column_raises_with_index(bad, mode):
    x = np.random.default_rng(3).standard_normal((5, 6))
    x[2, 3] = bad
    x[4, 5] = bad
    with pytest.raises(ValueError, match="column 3 has a non-finite entry"):
        ssc_coefficients(x, SscConfig(mode=mode))


def test_zero_column_raises_with_index():
    x = np.eye(4)
    x[:, 2] = 0.0
    with pytest.raises(ValueError, match="column 2"):
        ssc_coefficients(x, EXACT)


def test_too_few_points():
    with pytest.raises(ValueError):
        ssc_coefficients(np.ones((3, 1)), EXACT)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        SscConfig(mode="omp")
    for alpha in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="every lasso column is exactly zero"):
            SscConfig(alpha=alpha)


def test_infeasible_exact_column_warns_and_zeroes():
    # generic points in R^5 with only 2 dictionary atoms: equality system unsolvable
    rng = np.random.default_rng(23)
    x = rng.standard_normal((5, 3))
    x /= np.linalg.norm(x, axis=0)
    with pytest.warns(RuntimeWarning):
        z, infos = ssc_coefficients(x, EXACT, return_info=True)
    assert np.all(z == 0.0)
    assert not any(info.converged for info in infos)


# Found by search over 4 x 7 points whose last coordinate is small except in
# point 0. Point 0 is in the span of the others only through that coordinate.
# In the first set (sigma_min of the others 3.1e-4, basis pursuit objective
# 990.7), the primal residual taken from X is 6e-14; taken from Gram terms,
# sqrt(G_jj - 2 z^T G_Aj + z^T G_AA z), it is 7.8e-6, which would report the
# point as outside the span. In the second (sigma_min 1.6e-4, objective
# 100.7), an entering atom's pivot taken from Gram terms is rounding noise and
# leaves a needed atom out (objective 107.9), and without the cap at rank(X)
# a fifth atom enters in R^4 and the point is reported as outside the span.
ILL_CONDITIONED_POINTS = np.array([
    [0.8393, 0.15103, 0.79286, -0.8443, -0.88669, 0.36321, 0.55629],
    [-0.41423, -0.86744, 0.54477, -0.13055, 0.01555, -0.92689, 0.37001],
    [0.30926, -0.47407, -0.27312, 0.51972, 0.46211, -0.09464, 0.74406],
    [-0.16837, 0.00013, -0.00024, 3e-05, -0.00029, 0.00016, 9e-05],
])
NEAR_RANK_POINTS = np.array([
    [0.51634, 0.81468, -0.18463, 0.8453, 0.05543, -0.72814, 0.89598],
    [-0.62272, 0.21009, -0.97981, 0.13938, 0.96083, -0.02666, 0.43609],
    [0.58783, -0.54051, 0.07667, -0.51579, -0.27155, -0.68491, 0.08397],
    [0.00824, 0.00011, -4e-05, 8e-05, 0.00011, -5e-05, -8e-05],
])


def hard_exact_inputs():
    rng = np.random.default_rng(61)
    base = rng.standard_normal((6, 10))
    base /= np.linalg.norm(base, axis=0)
    # an exact, a sign-flipped and two scaled duplicates
    duplicates = np.hstack(
        [base, base[:, [0]], -base[:, [3]], 0.5 * base[:, [5]], -3.0 * base[:, [7]]]
    )
    # 8 points of a 2-dim subspace of R^6 and 2 generic ones, which are
    # outside the span of all others
    mixed = np.hstack([subspace_data(6, 2, (8,), seed=67).points, rng.standard_normal((6, 2))])
    return {
        "duplicates": duplicates,
        "integer_ties": TIE_POINTS,
        "outside_span": mixed,
        "ill_conditioned": ILL_CONDITIONED_POINTS,
        "near_rank": NEAR_RANK_POINTS,
    }


@pytest.mark.parametrize("name", list(hard_exact_inputs()))
def test_exact_path_matches_linprog_on_hard_inputs(name):
    x = hard_exact_inputs()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # outside_span's points
        z, infos = ssc_coefficients(x, EXACT, return_info=True)
    verdicts = []
    for j, info in enumerate(infos):
        lp = lp_objective(np.delete(x, j, axis=1), x[:, j])
        verdicts.append(lp is not None)
        if lp is None:
            assert not info.converged
            assert info.message == "point is not in the span of the others"
            assert np.all(z[:, j] == 0.0)
        else:
            assert info.converged, info.message
            assert abs(info.objective - lp) <= 1e-9 * lp
            assert abs(np.abs(z[:, j]).sum() - lp) <= 1e-9 * lp
            assert np.linalg.norm(x[:, j] - x @ z[:, j]) <= 1e-6 * np.linalg.norm(x[:, j])
    assert sum(verdicts) == len(verdicts) - (2 if name == "outside_span" else 0)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Adjacency(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        Adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(ValueError):
        Adjacency(np.array([[1.0, 0.0], [0.0, 0.0]]))  # diagonal
    ok = Adjacency(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert ok.n == 2
    for bad, message in (
        ([[0.0, 1.0], [2.0, 0.0]], "exactly symmetric"),
        ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
        ([[1.0, 0.0], [0.0, 0.0]], "diagonal must be zero"),
    ):
        for fmt in (sparse.csr_array, sparse.coo_array):
            with pytest.raises(ValueError, match=message):
                Adjacency(fmt(np.array(bad)))
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="adjacency weights must be finite"):
            Adjacency(np.array([[0.0, value], [value, 0.0]]))
        with pytest.raises(ValueError, match="adjacency weights must be finite"):
            Adjacency(sparse.csr_array(np.array([[0.0, value], [value, 0.0]])))
    # a dense matrix and its sparse copies give identical canonical CSR
    rng = np.random.default_rng(3)
    w = rng.uniform(0, 1, (9, 9)) * (rng.uniform(0, 1, (9, 9)) < 0.4)
    w = np.triu(w, k=1)
    w = w + w.T
    dense = Adjacency(w).weights
    # a COO copy with its entries shuffled and one split into two duplicates
    coo = sparse.coo_array(w)
    order = rng.permutation(coo.nnz)
    rows, cols, data = coo.row[order], coo.col[order], coo.data[order]
    rows, cols = np.append(rows, rows[0]), np.append(cols, cols[0])
    data = np.append(data, data[0] / 2)
    data[0] /= 2
    shuffled = sparse.coo_array((data, (rows, cols)), shape=w.shape)
    for other in (sparse.csr_array(w), sparse.csc_array(w), shuffled):
        mine = Adjacency(other).weights
        assert isinstance(mine, sparse.csr_array)
        assert mine.has_canonical_format
        assert np.array_equal(mine.indptr, dense.indptr)
        assert np.array_equal(mine.indices, dense.indices)
        assert np.array_equal(mine.data, dense.data)
    # an explicitly stored zero at (0, 1) is not an edge, so not a false connection
    w = sparse.csr_array(
        (np.array([0.0, 0.0, 0.5, 0.5]), (np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]))),
        shape=(3, 3),
    )
    assert w.nnz == 4
    adj = Adjacency(w)
    assert adj.weights.nnz == 2
    assert w.nnz == 4  # the caller's matrix is left as it was
    rep = false_connections(adj, [0, 1, 1])
    assert rep.count == 0
    assert rep.total_edges == 1


def reference_lasso_path_block(
    x: np.ndarray, xt: np.ndarray, sq_norms: np.ndarray, rank: int,
    cols: np.ndarray, c: np.ndarray, lam_end: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """ssc._lasso_path_block with its earlier per-pass bookkeeping, as an oracle.

    The same homotopy and arithmetic, with other state handling: (2, B, N)
    blocked and held masks released column by column, boolean-mask
    compaction, the span test and bordering on the entering columns alone,
    and a dropped atom's slot closed by permutation gathers under np.where.
    Same arguments and return.
    """
    n_blk, n_pts = c.shape
    rows = np.arange(n_blk)
    first = np.abs(c).argmax(axis=1)
    lam = np.abs(c[rows, first])
    # the padded width doubles, up to rank(X), as the largest |A| needs
    width = min(4, rank)
    active = np.repeat(cols[:, None], width, axis=1)
    active[:, 0] = first
    s = np.zeros((n_blk, width))
    s[:, 0] = np.sign(c[rows, first])
    z_a = np.zeros((n_blk, width))
    inv = np.zeros((n_blk, width, width))
    inv[:, 0, 0] = 1.0 / sq_norms[first]
    size = np.ones(n_blk, dtype=np.intp)
    # blocked[t, b, i]: atom i may not enter column b's path on side t
    # (0: c_i = lambda, 1: c_i = -lambda). Besides j and A, some atoms are
    # held out until the column's next step (held; has_held marks the
    # columns that hold any): those in the span of A, and the atom dropped in
    # the last step on the side it left, where it sits at |c_i| = lambda and
    # rounding would let it re-enter.
    blocked = np.zeros((2, n_blk, n_pts), dtype=bool)
    blocked[:, rows, cols] = True
    blocked[:, rows, first] = True
    held = np.zeros_like(blocked)
    has_held = np.zeros(n_blk, dtype=bool)
    steps = np.zeros(n_blk, dtype=np.intp)
    reached = np.zeros(n_blk, dtype=bool)
    order = rows
    # each column's row is written here as it leaves the block
    out_active = np.repeat(cols[:, None], rank, axis=1)
    out_s, out_z = np.zeros((2, n_blk, rank))
    out_size, out_steps = np.zeros((2, n_blk), dtype=np.intp)
    out_reached = np.zeros(n_blk, dtype=bool)
    # a = X^T X_A d, and per side the gap lambda -+ c_i, which closes at the
    # rate 1 -+ a_i, their ratio, and where entry is barred
    a_buf, rate_buf, enter_buf = np.empty((3, n_blk, n_pts))
    mask_buf = np.empty((n_blk, n_pts), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            done = reached | (steps >= ssc.MAX_PATH_STEPS * n_pts)
            if done.any():
                ids = order[done]
                out_active[ids, :width], out_s[ids, :width], out_z[ids, :width] = (
                    active[done], s[done], z_a[done]
                )
                out_size[ids], out_steps[ids], out_reached[ids] = size[done], steps[done], reached[done]
                keep = ~done
                order, c, lam, lam_end, active, s, z_a, inv, size, has_held, steps = (
                    v[keep] for v in
                    (order, c, lam, lam_end, active, s, z_a, inv, size, has_held, steps)
                )
                blocked, held = blocked[:, keep], held[:, keep]
                if not len(order):
                    break
                rows = np.arange(len(order))
            n_live = len(order)
            a, rate, enter, mask = (v[:n_live] for v in (a_buf, rate_buf, enter_buf, mask_buf))
            # slots past the largest |A| are padding in every column
            w = int(size.max())
            s_w, inv_w = s[:, :w], inv[:, :w, :w]
            x_a = xt[active[:, :w]]
            d = (inv_w @ s_w[:, :, None])[:, :, 0]
            np.matmul((d[:, None, :] @ x_a)[:, 0], x, out=a)
            for t, op in enumerate((np.subtract, np.add)):
                op(1.0, a, out=rate)
                op(lam[:, None], c, out=enter)
                enter /= rate
                np.less_equal(rate, 0.0, out=mask)
                mask |= blocked[t]
                np.copyto(enter, np.inf, where=mask)
                i_t = enter.argmin(axis=1)
                e_t = enter[rows, i_t]
                # a gap at or below zero is a tie at gamma = 0, which the
                # first such atom wins
                tie = np.flatnonzero(e_t <= 0)
                if tie.size:
                    i_t[tie] = (enter[tie] <= 0).argmax(axis=1)
                    e_t[tie] = 0.0
                if t == 0:
                    side, i_in, e_min = np.zeros(n_live, dtype=np.intp), i_t, e_t
                else:
                    side = (e_t < e_min).astype(np.intp)
                    i_in = np.where(side, i_t, i_in)
                    e_min = np.minimum(e_t, e_min)
            sd = s_w * d
            drop = np.where(sd < 0, np.maximum(s_w * z_a[:, :w], 0.0) / -sd, np.inf)
            k_out = drop.argmin(axis=1)
            to_end = lam - lam_end
            gamma = np.minimum(drop[rows, k_out], to_end)
            entering = e_min < gamma
            stepping = np.ones(n_live, dtype=bool)
            ent = grow = np.flatnonzero(entering)
            if ent.size:
                x_i = xt[i_in[ent]]
                b = (inv_w[ent] @ (x_a[ent] @ x_i[:, :, None]))[:, :, 0]
                # from X, not G_ii - G_iA b, which cancels to rounding noise
                # as G_AA grows ill-conditioned
                resid = x_i - (b[:, None, :] @ x_a[ent])[:, 0]
                pivot = np.einsum("ep,ep->e", resid, resid)
                spanned = (size[ent] == rank) | (pivot <= ssc.SPAN_TOL * sq_norms[i_in[ent]])
                # in the span of A, i_in holds KKT with a zero coefficient;
                # its column takes no step
                out = ent[spanned]
                blocked[:, out, i_in[out]] = True
                held[:, out, i_in[out]] = True
                has_held[out] = True
                stepping[out] = False
                gamma[ent] = e_min[ent]
                grow, b, pivot = ent[~spanned], b[~spanned], pivot[~spanned]
            gamma[~stepping] = 0.0
            z_a[:, :w] += gamma[:, None] * d
            c -= np.multiply(gamma[:, None], a, out=a)
            steps += stepping
            reached = stepping & ~entering & (gamma == to_end)
            moving = stepping & ~reached
            lam -= np.where(moving, gamma, 0.0)
            release = np.flatnonzero(moving & has_held)
            blocked[:, release] &= ~held[:, release]
            held[:, release] = False
            has_held[release] = False
            if grow.size:
                pos, new = size[grow], i_in[grow]
                if pos.max() == width:
                    extra = min(width, rank - width)
                    active = np.hstack([active, np.repeat(cols[order, None], extra, axis=1)])
                    s, z_a = (np.hstack([v, np.zeros((n_live, extra))]) for v in (s, z_a))
                    inv = np.pad(inv, ((0, 0), (0, extra), (0, extra)))
                    width += extra
                active[grow, pos] = new
                s[grow, pos] = 1.0 - 2.0 * side[grow]
                blocked[:, grow, new] = True
                w_u = min(w + 1, width)
                u = np.zeros((len(grow), w_u))
                u[:, :w] = -b
                u[np.arange(len(grow)), pos] = 1.0
                inv[grow, :w_u, :w_u] += u[:, :, None] * u[:, None, :] / pivot[:, None, None]
                size[grow] += 1
            shrink = np.flatnonzero(moving & ~entering)
            if shrink.size:
                r = np.arange(len(shrink))
                k = k_out[shrink]
                gone = active[shrink, k]
                left = (s[shrink, k] < 0).astype(np.intp)
                blocked[1 - left, shrink, gone] = False
                held[left, shrink, gone] = True
                has_held[shrink] = True
                inv_d = inv[shrink, :w, :w]
                col = inv_d[r, :, k]
                inv_d -= col[:, :, None] * col[:, None, :] / inv_d[r, k, k][:, None, None]
                # close the gap at slot k; the freed last slot becomes padding
                slot = np.arange(w)
                perm = np.minimum(slot + (slot >= k[:, None]), w - 1)
                kept = slot < (size[shrink] - 1)[:, None]
                inv[shrink, :w, :w] = np.where(
                    kept[:, :, None] & kept[:, None, :],
                    inv_d[r[:, None, None], perm[:, :, None], perm[:, None, :]],
                    0.0,
                )
                active[shrink, :w] = np.where(
                    kept, np.take_along_axis(active[shrink, :w], perm, 1), cols[order[shrink], None]
                )
                s[shrink, :w] = np.where(kept, np.take_along_axis(s[shrink, :w], perm, 1), 0.0)
                z_a[shrink, :w] = np.where(kept, np.take_along_axis(z_a[shrink, :w], perm, 1), 0.0)
                size[shrink] -= 1
    w = int(out_size.max())
    return out_active[:, :w], out_s[:, :w], out_z[:, :w], out_size, out_steps, out_reached


def parity_inputs():
    """The benchmark's shape (N=150, Gaussian p=20), the tie and hold inputs,
    duplicate points and a point orthogonal to all others."""
    data = subspace_data(100, 5, (50, 50, 50), seed=61)
    return {
        "benchmark_shape": project_columns(make_projector("gaussian", 100, 20, seed=61), data.points),
        "integer_ties": TIE_POINTS,
        "held_drop": HOLD_POINTS,
        "gap_ties": GAP_TIE_POINTS,
        "drop_tie": DROP_TIE_POINTS,
        "duplicates": hard_exact_inputs()["duplicates"],
        "orthogonal_point": points_with_orthogonal_one(),
    }


PARITY_CONFIGS = [SscConfig(), SscConfig(alpha=1.5), EXACT]


def assert_path_matches_reference(x, config, monkeypatch):
    # supports, signs, step counts and verdicts equal, coefficients to 1e-12
    runs = []
    for path in (ssc._lasso_path_block, reference_lasso_path_block):
        monkeypatch.setattr(ssc, "_lasso_path_block", path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the orthogonal point
            runs.append(ssc_coefficients(x, config, return_info=True))
    (z, infos), (z_ref, infos_ref) = runs
    assert np.array_equal(np.sign(z), np.sign(z_ref))
    assert [i.iterations for i in infos] == [i.iterations for i in infos_ref]
    assert [i.converged for i in infos] == [i.converged for i in infos_ref]
    assert np.max(np.abs(z - z_ref)) <= 1e-12


@pytest.mark.parametrize("columns", [1, 3, None], ids=["1-column", "3-column", "one-block"])
@pytest.mark.parametrize("config", PARITY_CONFIGS, ids=["lasso", "lasso-alpha-1.5", "exact"])
@pytest.mark.parametrize("name", list(parity_inputs()))
def test_path_matches_reference_bookkeeping(name, config, columns, monkeypatch):
    x = parity_inputs()[name]
    solve_in_blocks_of(columns or x.shape[1], x.shape[1], monkeypatch)
    assert_path_matches_reference(x, config, monkeypatch)


@pytest.mark.parametrize("mode", SSC_MODES)
def test_capped_path_matches_reference_bookkeeping(mode, monkeypatch):
    # the input of test_step_cap_stops_only_the_long_paths, capped so that
    # its longest paths stop while the others finish
    data = subspace_data(50, 3, (8, 8, 8, 8), seed=43)
    x = project_columns(make_projector("gaussian", 50, 8, seed=43), data.points)
    _, infos = ssc_coefficients(x, SscConfig(mode=mode), return_info=True)
    cap = int(np.sort([info.iterations for info in infos])[-4])
    monkeypatch.setattr(ssc, "MAX_PATH_STEPS", cap / x.shape[1])
    for columns in (1, 3, x.shape[1]):
        solve_in_blocks_of(columns, x.shape[1], monkeypatch)
        assert_path_matches_reference(x, SscConfig(mode=mode), monkeypatch)


@pytest.mark.parametrize("mode", SSC_MODES)
def test_criterion_2_paths_match_reference_bookkeeping(mode, monkeypatch):
    for x in criterion_2_instances():
        assert_path_matches_reference(x, SscConfig(mode=mode), monkeypatch)
