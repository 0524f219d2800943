"""Evaluation metrics and success-condition checkers for projected clustering."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .project import Projector, ProjectorCalibration, is_identity, project_columns
from .graph import Adjacency
from .synth import SubspaceBasis, UnionModel, affinity

# relative cutoff below which a projected basis counts as rank deficient
RANK_RTOL = 1e-8


def clustering_error(predicted, truth) -> float:
    """Fraction of misclassified points under the best label matching.

    The predicted label set is matched to the true one by maximizing the
    total confusion-matrix weight over one-to-one assignments, so the value
    is permutation invariant and lies in [0, 1]. The matching is csgraph's
    sparse LAPJV (min_weight_full_bipartite_matching) on the confusion
    matrix plus 1: the offset makes every pair an edge, so a full matching
    exists, and it adds the same k to every full matching of the k x k
    matrix, so the best assignment is unchanged.
    """
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError("label arrays must be one-dimensional and equal length")
    n = predicted.shape[0]
    if n == 0:
        raise ValueError("label arrays are empty")
    _, pred_idx = np.unique(predicted, return_inverse=True)
    _, true_idx = np.unique(truth, return_inverse=True)
    k = max(pred_idx.max(), true_idx.max()) + 1
    confusion = np.bincount(pred_idx * k + true_idx, minlength=k * k).reshape(k, k)
    rows, cols = csgraph.min_weight_full_bipartite_matching(
        sparse.csr_array(confusion + 1.0), maximize=True
    )
    matched = confusion[rows, cols].sum()
    return float(1.0 - matched / n)


@dataclass(frozen=True)
class FalseConnectionReport:
    """Count of adjacency edges that join points from different clusters."""

    count: int
    total_edges: int

    @property
    def has_false(self) -> bool:
        return self.count > 0

    @property
    def fraction(self) -> float:
        return self.count / self.total_edges if self.total_edges else 0.0


def false_connections(adj: Adjacency, truth) -> FalseConnectionReport:
    """Count edges (strictly positive weights, i < j) between distinct true clusters."""
    truth = np.asarray(truth)
    if truth.shape != (adj.n,):
        raise ValueError("truth labels must have one entry per vertex")
    # the upper triangle straight from the CSR arrays; stored entries are positive
    w = adj.weights
    rows = np.repeat(np.arange(adj.n), np.diff(w.indptr))
    upper = w.indices > rows
    return FalseConnectionReport(
        count=int(np.count_nonzero(truth[rows[upper]] != truth[w.indices[upper]])),
        total_edges=int(np.count_nonzero(upper)),
    )


def projected_affinity(a: SubspaceBasis, b: SubspaceBasis, proj: Projector) -> float:
    """Affinity between two subspaces after projecting and re-orthonormalizing.

    The projected spans Phi U are orthonormalized by QR; requires p >= d and
    full column rank after projection.
    """
    qa = _projected_orthonormal(a, proj)
    qb = _projected_orthonormal(b, proj)
    f = np.linalg.norm(qa.T @ qb, "fro")
    return float(np.clip(f / np.sqrt(min(a.dim, b.dim)), 0.0, 1.0))


def _projected_orthonormal(basis: SubspaceBasis, proj: Projector) -> np.ndarray:
    v = project_columns(proj, basis.matrix)
    if v.shape[0] < v.shape[1]:
        raise ValueError(
            f"projection dimension {v.shape[0]} is below the subspace dimension "
            f"{v.shape[1]}"
        )
    q, r = np.linalg.qr(v)
    s = np.abs(np.diag(r))
    if s.min() <= RANK_RTOL * s.max():
        raise ValueError("projected basis is rank deficient")
    return q


def pseudoinverse_affinity(v_l: np.ndarray, v_k: np.ndarray) -> float:
    """Pseudo-inverse affinity ||V_l^+ V_k||_F / sqrt(d_k) of projected spans.

    V_l^+ is the least-squares pseudo-inverse (V_l^T V_l)^{-1} V_l^T; V_l must
    have full column rank or a ValueError is raised. Unlike the orthonormal
    affinity this is not symmetric and can exceed 1.
    """
    v_l = np.asarray(v_l, dtype=float)
    v_k = np.asarray(v_k, dtype=float)
    if v_l.shape[0] != v_k.shape[0]:
        raise ValueError("spans live in different dimensions")
    svals = np.linalg.svd(v_l, compute_uv=False)
    if v_l.shape[0] < v_l.shape[1] or svals.min() <= RANK_RTOL * svals.max():
        raise ValueError("span matrix is rank deficient, pseudo-inverse unstable")
    pinv_vk = np.linalg.solve(v_l.T @ v_l, v_l.T @ v_k)
    return float(np.linalg.norm(pinv_vk, "fro") / np.sqrt(v_k.shape[1]))


def perturbation_norm(a: SubspaceBasis, b: SubspaceBasis, proj: Projector) -> float:
    """How far the projector is from preserving the pair's inner products.

    || (Phi U_a)^T (Phi U_b) - U_a^T U_b ||_F / sqrt(min(d_a, d_b)).
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    va = project_columns(proj, a.matrix)
    vb = project_columns(proj, b.matrix)
    delta = va.T @ vb - a.matrix.T @ b.matrix
    return float(np.linalg.norm(delta, "fro") / np.sqrt(min(a.dim, b.dim)))


@dataclass
class TheoremReport:
    """Checked sufficient conditions for each algorithm on a given instance.

    exact_* gates the noiseless l1 self-representation route, lasso_* the
    penalized route, tsc_* the thresholding route on projected spans. Each
    lhs must stay below its rhs for the guarantee to apply; *_ok records the
    comparison outcome.
    """

    n_points: int
    n_subspaces: int
    d_max: int
    rho_min: float
    aff_max: float
    p: int
    c_tilde: float
    tau: float
    q: int
    exact_lhs: float
    exact_rhs: float
    exact_ok: bool
    lasso_lhs: float
    lasso_rhs: float
    lasso_min_points_ok: bool
    lasso_ok: bool
    tsc_lhs: float
    tsc_rhs: float
    tsc_ok: bool
    notes: str = ""


def theorem_report(
    model: UnionModel,
    proj: Projector | None,
    cal: ProjectorCalibration | None = None,
    tau: float = 2.0,
    q: int = 4,
) -> TheoremReport:
    """Evaluate the success conditions of all three routes for one instance.

    With proj None (or an explicit identity) the projection penalty terms are
    zero and the thresholding condition is evaluated on the ambient bases.
    rho_min <= 1 makes the log-based bounds undefined; those conditions are
    then reported unsatisfied with the reason in notes.
    """
    if cal is None:
        cal = ProjectorCalibration()
    c_tilde = cal.c_tilde
    if tau <= 0:
        raise ValueError("tau must be positive")
    if q < 1:
        raise ValueError("q must be at least 1")
    n_total = model.n_points
    if n_total < 2:
        raise ValueError("conditions need at least two points")
    n_subspaces = model.n_subspaces
    dims = [b.dim for b in model.bases]
    d_max = max(dims)
    rho = [(n - 1) / d for n, d in zip(model.counts, dims)]
    rho_min = min(rho)
    aff_max = 0.0
    for i in range(n_subspaces):
        for j in range(i + 1, n_subspaces):
            aff_max = max(aff_max, affinity(model.bases[i], model.bases[j]))

    notes = []
    no_proj = is_identity(proj)
    p = model.ambient_dim if no_proj else proj.p
    if not no_proj and proj.m != model.ambient_dim:
        raise ValueError("projector ambient dimension does not match the model")

    log_n = np.log(n_total)
    if no_proj:
        exact_penalty = 0.0
        lasso_penalty = 0.0
    else:
        exact_penalty = np.sqrt(28.0 * d_max + 8.0 * np.log(n_subspaces) + 2.0 * tau) / np.sqrt(
            3.0 * c_tilde * p
        )
        lasso_penalty = np.sqrt(10.0 * d_max / (12.0 * c_tilde * p))

    exact_lhs = aff_max + exact_penalty
    lasso_lhs = aff_max + lasso_penalty
    lasso_rhs = 1.0 / (15.0 * log_n)
    lasso_min_points_ok = all(n >= 6 * q for n in model.counts)
    if not lasso_min_points_ok:
        notes.append(f"some cluster has fewer than 6*q = {6 * q} points")
    lasso_ok = bool(lasso_lhs <= lasso_rhs) and lasso_min_points_ok

    tsc_lhs, tsc_err = _tsc_condition_lhs(model, proj, no_proj)
    if tsc_err:
        notes.append(tsc_err)
    if rho_min <= 1.0:
        # log rho_min <= 0: the density bounds degenerate to (or below) zero
        exact_rhs = 0.0
        tsc_rhs = 0.0
        exact_ok = False
        tsc_ok = False
        notes.append(
            f"rho_min = {rho_min:.6g} <= 1: points-per-dimension too small for "
            "the log-density bounds"
        )
    else:
        sqrt_log_rho = np.sqrt(np.log(rho_min))
        exact_rhs = sqrt_log_rho / (65.0 * log_n)
        tsc_rhs = sqrt_log_rho / (64.0 * log_n)
        exact_ok = bool(exact_lhs <= exact_rhs)
        tsc_ok = bool(tsc_lhs <= tsc_rhs) if not tsc_err else False

    return TheoremReport(
        n_points=n_total,
        n_subspaces=n_subspaces,
        d_max=d_max,
        rho_min=float(rho_min),
        aff_max=float(aff_max),
        p=int(p),
        c_tilde=float(c_tilde),
        tau=float(tau),
        q=int(q),
        exact_lhs=float(exact_lhs),
        exact_rhs=float(exact_rhs),
        exact_ok=exact_ok,
        lasso_lhs=float(lasso_lhs),
        lasso_rhs=float(lasso_rhs),
        lasso_min_points_ok=lasso_min_points_ok,
        lasso_ok=lasso_ok,
        tsc_lhs=float(tsc_lhs),
        tsc_rhs=float(tsc_rhs),
        tsc_ok=tsc_ok,
        notes="; ".join(notes),
    )


def _tsc_condition_lhs(
    model: UnionModel, proj: Projector | None, no_proj: bool
) -> tuple[float, str]:
    """Max pseudo-inverse affinity over ordered pairs of (projected) spans."""
    if model.n_subspaces < 2:
        return 0.0, ""
    spans = [
        b.matrix if no_proj else project_columns(proj, b.matrix)
        for b in model.bases
    ]
    worst = 0.0
    for l in range(model.n_subspaces):
        for k in range(model.n_subspaces):
            if k == l:
                continue
            try:
                worst = max(worst, pseudoinverse_affinity(spans[l], spans[k]))
            except ValueError as exc:
                return np.nan, f"thresholding condition unavailable: {exc}"
    return worst, ""
