"""Sparse self-representation: each point regressed on all others, l1-penalized.

Two solver modes. "exact_l1" solves the equality-constrained problem

    min ||z||_1  s.t.  x_j = X z,  z_j = 0

as a split-variable LP. "lasso_admm" solves the penalized variant

    min  lambda_j ||z||_1 + 1/2 ||x_j - X z||_2^2,  z_j = 0

by ADMM, with the per-column weight lambda_j = mu_j / alpha where
mu_j = max_{i != j} |<x_i, x_j>|. alpha > 1 keeps lambda_j below the
threshold at which the solution collapses to zero. The ADMM advances all
columns together: every column shares the dictionary X, so after one thin
SVD each z-update is a rank-min(p, N) correction applied to all columns by
matrix products, and an iteration costs O(N^2 min(p, N)) for p-dimensional
points. Each column still keeps its own iterates and stopping rule.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .synth import check_finite_columns

SSC_MODES = ("lasso_admm", "exact_l1")

# |z_i| above this counts as support when checking optimality certificates
SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class SscConfig:
    """Solver settings for the self-representation step."""

    mode: str = "lasso_admm"
    alpha: float = 20.0
    admm_rho: float | None = None
    max_iter: int = 200
    tol_abs: float = 1e-6
    tol_rel: float = 1e-6

    def __post_init__(self):
        if self.mode not in SSC_MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {SSC_MODES}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.admm_rho is not None and not self.admm_rho > 0:
            raise ValueError("admm_rho must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class Adjacency:
    """Symmetric nonnegative affinity matrix with zero diagonal."""

    weights: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not np.array_equal(w, w.T):
            raise ValueError("adjacency must be exactly symmetric")
        if np.any(w < 0):
            raise ValueError("adjacency weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("adjacency diagonal must be zero")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "n", w.shape[0])


@dataclass
class SscColumnInfo:
    """Per-column solver diagnostics."""

    column: int
    mode: str
    converged: bool
    iterations: int
    objective: float
    primal_residual: float | None = None
    dual_residual: float | None = None
    kkt_residual: float | None = None
    objective_history: list | None = None
    message: str = ""


def check_columns(x: np.ndarray) -> None:
    """Reject points (columns) with a NaN/inf entry or a zero norm, naming the first."""
    check_finite_columns(x)
    norms = np.linalg.norm(x, axis=0)
    if np.any(norms == 0):
        bad = int(np.flatnonzero(norms == 0)[0])
        raise ValueError(f"column {bad} is identically zero")


def _soft_threshold(v: np.ndarray, k: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - k, 0.0)


def _l1_kkt_residual(dictionary: np.ndarray, z: np.ndarray, nu: np.ndarray) -> float:
    """Max violation of the l1 optimality certificate D^T nu.

    At an optimum there is a dual vector with ||D^T nu||_inf <= 1 and
    (D^T nu)_i = sign(z_i) on the support of z.
    """
    g = dictionary.T @ nu
    viol = max(float(np.max(np.abs(g))) - 1.0, 0.0)
    support = np.abs(z) > SUPPORT_TOL
    if np.any(support):
        viol = max(viol, float(np.max(np.abs(g[support] - np.sign(z[support])))))
    return viol


def _exact_l1_column(
    dictionary: np.ndarray, target: np.ndarray, column: int, tol: float
) -> tuple[np.ndarray, SscColumnInfo]:
    n = dictionary.shape[1]
    res = linprog(
        np.ones(2 * n),
        A_eq=np.hstack([dictionary, -dictionary]),
        b_eq=target,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        info = SscColumnInfo(
            column=column,
            mode="exact_l1",
            converged=False,
            iterations=int(getattr(res, "nit", 0)),
            objective=np.nan,
            message=f"linprog status {res.status}: {res.message}",
        )
        return np.zeros(n), info
    z = res.x[:n] - res.x[n:]
    kkt = _l1_kkt_residual(dictionary, z, res.eqlin.marginals)
    info = SscColumnInfo(
        column=column,
        mode="exact_l1",
        converged=kkt <= tol,
        iterations=int(res.nit),
        objective=float(np.abs(z).sum()),
        kkt_residual=kkt,
    )
    return z, info


def _lasso_admm(x: np.ndarray, config: SscConfig) -> tuple[np.ndarray, list[SscColumnInfo]]:
    """ADMM on min ||z||_1 + (alpha/mu_j)/2 ||x_j - Xz||^2, z_j = 0, for every column j.

    This is the equivalent of min lambda_j ||z||_1 + 1/2 ||x_j - Xz||^2 with
    lambda_j = mu_j/alpha; weighting the fit term keeps rho = alpha well scaled.
    Reported objectives use the lambda form so modes are comparable.

    Each column runs its own iteration and stopping rule, but all columns
    advance together as the columns of N x k matrices whose own-index entry
    stays 0. Column j's z-update solves (w_j X_{-j}^T X_{-j} + rho I) z = b,
    which by Woodbury is z = (b - w_j X^T M_j^{-1} X b) / rho with the r x r
    M_j = rho I + w_j X_{-j} X_{-j}^T, r = min(p, N). In the frame of a thin
    SVD, X~ = U^T X, M_j = diag(rho + w_j s^2) - w_j x~_j x~_j^T is a diagonal
    minus a rank-1 term, so Sherman-Morrison applies every M_j^{-1} with matrix
    products and no per-column factorization. A column that meets its
    stopping rule is frozen and dropped; the rest go on.
    """
    n_pts = x.shape[1]
    n = n_pts - 1
    gram = x.T @ x
    off = np.abs(gram)
    np.fill_diagonal(off, 0.0)
    mu = off.max(axis=0)
    z_full = np.zeros((n_pts, n_pts))
    infos: list[SscColumnInfo | None] = [None] * n_pts
    for j in np.flatnonzero(mu == 0):
        infos[j] = SscColumnInfo(
            column=int(j),
            mode="lasso_admm",
            converged=False,
            iterations=0,
            objective=0.0,
            message="point is orthogonal to all others",
        )

    rho = config.admm_rho if config.admm_rho is not None else config.alpha
    _, sig, vt = np.linalg.svd(x, full_matrices=False)
    xt = sig[:, None] * vt  # X~ = U^T X, r x N, with X~^T X~ = X^T X
    # per active column: the global index and everything its iteration needs
    cols = np.flatnonzero(mu > 0)
    lam = mu[cols] / config.alpha
    w = config.alpha / mu[cols]
    y_sq = gram[cols, cols]
    dty = gram[:, cols]
    dty[cols, np.arange(cols.size)] = 0.0
    xt_c = xt[:, cols]
    dinv = 1.0 / (rho + np.outer(sig**2, w))
    q = dinv * xt_c  # D_j^{-1} x~_j
    denom = 1.0 - w * np.einsum("ij,ij->j", xt_c, q)
    v = np.zeros((n_pts, cols.size))
    u = np.zeros((n_pts, cols.size))
    history = np.empty((0, cols.size))
    rows = []
    eps_abs = np.sqrt(n) * config.tol_abs
    for it in range(1, config.max_iter + 1):
        if cols.size == 0:
            break
        b = w * dty + rho * (v - u)
        y = dinv * (xt @ b)
        y += q * (w * np.einsum("ij,ij->j", xt_c, y) / denom)
        z = (b - w * (xt.T @ y)) / rho
        z[cols, np.arange(cols.size)] = 0.0
        v_old = v
        v = _soft_threshold(z + u, 1.0 / rho)
        u = u + z - v
        r_norm = np.linalg.norm(z - v, axis=0)
        s_norm = rho * np.linalg.norm(v - v_old, axis=0)
        xv = xt @ v
        obj = lam * np.abs(v).sum(axis=0) + 0.5 * (xv * xv).sum(axis=0)
        obj += 0.5 * y_sq - (dty * v).sum(axis=0)
        rows.append(obj)
        eps_pri = eps_abs + config.tol_rel * np.maximum(
            np.linalg.norm(z, axis=0), np.linalg.norm(v, axis=0)
        )
        eps_dual = eps_abs + config.tol_rel * np.linalg.norm(rho * u, axis=0)
        done = (r_norm <= eps_pri) & (s_norm <= eps_dual)
        stop = done if it < config.max_iter else np.ones(cols.size, dtype=bool)
        if not stop.any():
            continue
        history = np.vstack([history, *rows])
        rows = []
        idx = np.flatnonzero(stop)
        # lasso stationarity at v: D^T(y - Dv) must lie in lam * subgradient(|v|_1)
        g = dty[:, idx] - xt.T @ xv[:, idx]
        g[cols[idx], np.arange(idx.size)] = 0.0
        v_s = v[:, idx]
        kkt = np.maximum(np.abs(g).max(axis=0) / lam[idx] - 1.0, 0.0)
        kkt = np.maximum(
            kkt, np.where(v_s != 0, np.abs(g / lam[idx] - np.sign(v_s)), 0.0).max(axis=0)
        )
        z_full[:, cols[idx]] = v_s
        for t, i in enumerate(idx):
            infos[cols[i]] = SscColumnInfo(
                column=int(cols[i]),
                mode="lasso_admm",
                converged=bool(done[i]),
                iterations=it,
                objective=float(obj[i]),
                primal_residual=float(r_norm[i]),
                dual_residual=float(s_norm[i]),
                kkt_residual=float(kkt[t]),
                objective_history=history[:, i].tolist(),
                message="" if done[i] else "max_iter reached",
            )
        keep = ~stop
        cols, lam, w, y_sq, denom = cols[keep], lam[keep], w[keep], y_sq[keep], denom[keep]
        dty, xt_c, dinv, q = dty[:, keep], xt_c[:, keep], dinv[:, keep], q[:, keep]
        v, u, history = v[:, keep], u[:, keep], history[:, keep]
    return z_full, infos


def ssc_coefficients(
    data, config: SscConfig | None = None, return_info: bool = False
):
    """Solve the self-representation problem for every column.

    Returns the N x N coefficient matrix Z with zero diagonal (column j holds
    the representation of x_j in terms of the other points). With
    return_info=True also returns a list of per-column SscColumnInfo.
    Columns whose solver fails or stalls are kept at the best iterate and
    reported via a warning.
    """
    if config is None:
        config = SscConfig()
    x = np.asarray(getattr(data, "points", data), dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-d array of column points")
    n_pts = x.shape[1]
    if n_pts < 2:
        raise ValueError("self-representation needs at least two points")
    check_columns(x)

    if config.mode == "lasso_admm":
        z_full, infos = _lasso_admm(x, config)
    else:
        z_full = np.zeros((n_pts, n_pts))
        infos = []
        for j in range(n_pts):
            others = np.concatenate([np.arange(j), np.arange(j + 1, n_pts)])
            coef, info = _exact_l1_column(x[:, others], x[:, j], j, config.tol_abs)
            z_full[others, j] = coef
            infos.append(info)

    bad = [i.column for i in infos if not i.converged]
    if bad:
        warnings.warn(
            f"self-representation did not converge for {len(bad)} of {n_pts} "
            f"columns (first: {bad[:5]})",
            RuntimeWarning,
            stacklevel=2,
        )
    if return_info:
        return z_full, infos
    return z_full


def adjacency_from_coefficients(z: np.ndarray) -> Adjacency:
    """Symmetrize a coefficient matrix into |Z| + |Z|^T."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    return Adjacency(a + a.T)


def ssc_adjacency(data, config: SscConfig | None = None, return_info: bool = False):
    """Self-representation coefficients symmetrized into an Adjacency."""
    if return_info:
        z, infos = ssc_coefficients(data, config, return_info=True)
        return adjacency_from_coefficients(z), infos
    return adjacency_from_coefficients(ssc_coefficients(data, config))


def write_diagnostics_csv(infos: list[SscColumnInfo], path) -> None:
    """Dump per-column solver diagnostics to CSV."""
    fields = [
        "column",
        "mode",
        "converged",
        "iterations",
        "objective",
        "primal_residual",
        "dual_residual",
        "kkt_residual",
        "message",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for info in infos:
            writer.writerow([getattr(info, f) for f in fields])
