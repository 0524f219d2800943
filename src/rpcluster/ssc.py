"""Sparse self-representation: each point regressed on all others, l1-penalized.

Two programs, one solver. "exact_l1" is basis pursuit,

    min ||z||_1  s.t.  x_j = X z,  z_j = 0,

and "lasso_admm" is the penalized variant

    min  lambda_j ||z||_1 + 1/2 ||x_j - X z||_2^2,  z_j = 0

with the per-column weight lambda_j = mu_j / alpha where
mu_j = max_{i != j} |<x_i, x_j>|. The lasso solution is zero for
lambda >= mu_j, so alpha must exceed 1. Despite its name, which stays because
it is a CLI choice and a CSV value, the lasso mode is not solved by ADMM.
Both modes run a lasso homotopy (Osborne, Presnell & Turlach 2000; Efron et
al. 2004): each column follows its piecewise-linear solution path from
lambda = mu_j down, a few steps per nonzero coefficient, on the Gram matrix
G = X^T X computed once. A step costs O(N |A|) for an active set A, and
|A| <= rank(X) <= p for p-dimensional points. The lasso stops at lambda_j.
Basis pursuit is the path's limit as lambda -> 0 (Donoho & Tsaig 2008): the
path stops just above zero, the coefficients are solved on its support at
lambda = 0, and the result is certified by a dual vector, or the point is
reported as outside the span of the others.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np
from scipy import sparse

from .graph import Adjacency
from .synth import check_finite_columns

SSC_MODES = ("lasso_admm", "exact_l1")

# a lasso path atom whose squared distance to the span of the active set is at
# most this fraction of its squared norm counts as inside the span
SPAN_TOL = 1e-10
# safety cap on lasso path steps per column, in units of N; paths on
# union-of-subspaces data take a few steps per nonzero coefficient
MAX_PATH_STEPS = 10
# largest lasso KKT residual, in units of lambda, a solved column may have
PATH_KKT_TOL = 1e-9
# exact_l1 follows the path down to lambda = EXACT_PATH_END * mu_j
EXACT_PATH_END = 1e-9
# largest basis pursuit residual, dual or relative primal, a solved column
# may have; ill-conditioned columns reach a few 1e-9 in the dual
EXACT_TOL = 1e-6


@dataclass(frozen=True)
class SscConfig:
    """Solver settings for the self-representation step."""

    mode: str = "lasso_admm"
    alpha: float = 20.0

    def __post_init__(self):
        if self.mode not in SSC_MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {SSC_MODES}")
        if not self.alpha > 1:
            raise ValueError(
                f"alpha must exceed 1, got {self.alpha}: at lambda_j = mu_j/alpha >= mu_j "
                "every lasso column is exactly zero"
            )


@dataclass
class SscColumnInfo:
    """Per-column solver diagnostics."""

    column: int
    mode: str
    converged: bool
    iterations: int
    objective: float
    kkt_residual: float  # nan where no certificate is evaluated
    message: str = ""


def check_columns(x: np.ndarray) -> None:
    """Reject points (columns) with a NaN/inf entry or a zero norm, naming the first."""
    check_finite_columns(x)
    norms = np.linalg.norm(x, axis=0)
    if np.any(norms == 0):
        bad = int(np.flatnonzero(norms == 0)[0])
        raise ValueError(f"column {bad} is identically zero")


def _lasso_path_column(
    points: np.ndarray, gram: np.ndarray, rank: int, j: int, lam_target: float,
    exact: bool = False,
) -> tuple[np.ndarray, SscColumnInfo]:
    """Lasso homotopy for column j, from lambda = mu_j down to lam_target.

    The path starts with the arg-max atom of mu_j active and z = 0. On an
    active set A with signs s, as lambda falls by gamma, z_A grows by gamma d
    with G_AA d = s and the correlations c = X^T (x_j - X z) fall by
    gamma G[:, A] d, so c_A stays lambda s. A step ends when an inactive
    atom's |c_i| reaches lambda (it enters), an active z_k reaches zero (it is
    dropped) or lambda reaches lam_target, where z is the exact solution.
    G_AA^{-1} is updated by bordering on entry, whose pivot is the entering
    atom's squared distance to the span of A, and by a Schur complement on a
    drop. Once |A| = rank(X), A spans every atom and none may enter. With
    exact=True the column is basis pursuit's: z is solved on the final
    support at lambda = 0 and certified there.
    """
    n_pts = gram.shape[0]
    c = gram[j].copy()
    c[j] = 0.0
    first = int(np.abs(c).argmax())
    lam = abs(c[first])
    sides = np.array([[1.0], [-1.0]])
    sc = c * sides  # atom i reaches the boundary on side t when sc[t, i] = lambda
    active, s, z_a = [first], np.sign(c[[first]]), np.zeros(1)
    inv = np.array([[1.0 / gram[first, first]]])
    # blocked[t, i]: atom i may not enter on side t. Besides j and A, some
    # atoms are held out until the next step (flat indices in held): those in
    # the span of A, and the atom dropped in the last step on the side it left,
    # where it sits at |c_i| = lambda and rounding would let it re-enter.
    blocked = np.zeros((2, n_pts), dtype=bool)
    blocked[:, [j, first]] = True
    held: list[int] = []
    steps, reached = 0, False
    with np.errstate(divide="ignore", invalid="ignore"):
        while steps < MAX_PATH_STEPS * n_pts:
            d = inv @ s
            sa = (d @ gram.take(active, 0)) * sides
            rate = 1.0 - sa
            enter = np.maximum(lam - sc, 0.0) / rate  # a gap below zero is a tie
            enter[blocked | (rate <= 0)] = np.inf
            flat = int(enter.argmin())
            sd = s * d
            drop = np.where(sd < 0, np.maximum(s * z_a, 0.0) / -sd, np.inf)
            k_out = int(drop.argmin())
            to_end = lam - lam_target
            gamma = min(drop[k_out], to_end)
            entering = enter.flat[flat] < gamma
            if entering:
                side, i_in = divmod(flat, n_pts)
                b = inv @ gram[active, i_in]
                # from X, not G_ii - G_iA b, which cancels to rounding noise
                # as G_AA grows ill-conditioned
                resid = points[:, i_in] - points[:, active] @ b
                pivot = resid @ resid
                if len(active) == rank or pivot <= SPAN_TOL * gram[i_in, i_in]:
                    # in the span of A, i_in holds KKT with a zero coefficient
                    blocked[:, i_in] = True
                    held += [i_in, n_pts + i_in]
                    continue
                gamma = enter.flat[flat]
            z_a += gamma * d
            sc -= gamma * sa
            steps += 1
            if not entering and gamma == to_end:
                reached = True
                break
            lam -= gamma
            blocked.flat[held] = False
            held = []
            if entering:
                active.append(i_in)
                s, z_a = np.append(s, 1.0 - 2.0 * side), np.append(z_a, 0.0)
                blocked[:, i_in] = True
                grown = np.zeros((len(s), len(s)))
                grown[:-1, :-1] = inv
                u = np.append(-b, 1.0)
                inv = grown + np.outer(u, u) / pivot
            else:
                keep = [t for t in range(len(active)) if t != k_out]
                out = active.pop(k_out)
                side = int(s[k_out] < 0)
                blocked[1 - side, out] = False
                held.append(side * n_pts + out)
                col = inv[keep, k_out]
                inv = inv[keep][:, keep] - col[:, None] * col / inv[k_out, k_out]
                s, z_a = s[keep], z_a[keep]
    if reached:
        # re-solve on the support and signs the path found, free of the
        # rounding the inverse updates gathered; a coefficient that is zero
        # at the end may come out at rounding level with the wrong sign.
        # At lambda = 0 this is least squares on X_A, which keeps the
        # conditioning of X_A where G_AA would square it.
        if exact:
            z_a = np.linalg.lstsq(points[:, active], points[:, j], rcond=None)[0]
        else:
            z_a = np.linalg.solve(gram[np.ix_(active, active)], gram[active, j] - lam_target * s)
        z_a[s * z_a <= 0] = 0.0
    message = "" if reached else "path step cap reached"
    if exact:
        # certificate: nu with X_A^T nu = s (nu = X_A G_AA^{-1} s, the lasso's
        # residual / lambda), so z is optimal if |X^T nu| <= 1 off A and
        # x_j = X z. The primal residual is taken from X: its Gram form
        # sqrt(G_jj - 2 z^T G_Aj + z^T G_AA z) loses half the digits to
        # cancellation.
        x_a = points[:, active]
        g = points.T @ np.linalg.lstsq(x_a.T, s, rcond=None)[0]
        g[j] = 0.0
        on_a = float(np.abs(g[active] - s).max())
        g[active] = 0.0
        target = points[:, j]
        primal = float(np.linalg.norm(target - x_a @ z_a) / np.linalg.norm(target))
        kkt = max(float(np.abs(g).max()) - 1.0, on_a, primal, 0.0)
        objective = float(np.abs(z_a).sum())
        if reached and primal > EXACT_TOL:
            message = "point is not in the span of the others"
            z_a, objective = np.zeros_like(z_a), np.nan
        elif reached and kkt > EXACT_TOL:
            message = f"certificate residual {kkt:.1e} above {EXACT_TOL:.0e}"
    else:
        # certificate: g = X_{-j}^T (x_j - X z) in lam_target * subgradient(|z|_1)
        g = gram[j] - z_a @ gram[active]
        fit = g[j] - z_a @ g[active]  # ||x_j - X z||^2
        g[j] = 0.0
        on = z_a != 0
        kkt = max(
            float(np.abs(g).max()) / lam_target - 1.0,
            float(np.abs(g[active][on] / lam_target - np.sign(z_a[on])).max(initial=0.0)),
            0.0,
        )
        objective = float(lam_target * np.abs(z_a).sum() + 0.5 * fit)
        if reached and kkt > PATH_KKT_TOL:
            message = f"KKT residual {kkt:.1e} above {PATH_KKT_TOL:.0e}"
    z = np.zeros(n_pts)
    z[active] = z_a
    return z, SscColumnInfo(
        column=j,
        mode="exact_l1" if exact else "lasso_admm",
        converged=not message,
        iterations=steps,
        objective=objective,
        kkt_residual=kkt,
        message=message,
    )


def ssc_coefficients(
    data, config: SscConfig | None = None, return_info: bool = False
):
    """Solve the self-representation problem for every column.

    Returns the N x N coefficient matrix Z with zero diagonal (column j holds
    the representation of x_j in terms of the other points). With
    return_info=True also returns a list of per-column SscColumnInfo.
    Columns whose path stalls or fails its certificate are kept at the last
    iterate, and points orthogonal to all others, or (for exact_l1) outside
    the span of the others, get a zero column; all are reported via a warning.
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

    z_full = np.zeros((n_pts, n_pts))
    infos = []
    # mu_j = max_{i != j} |G_ij|, where every path starts
    gram = x.T @ x
    rank = np.linalg.matrix_rank(x)
    mu = np.abs(gram - np.diag(np.diag(gram))).max(axis=0)
    for j in range(n_pts):
        if mu[j] == 0:
            info = SscColumnInfo(
                column=j,
                mode=config.mode,
                converged=False,
                iterations=0,
                objective=0.0,
                kkt_residual=np.nan,
                message="point is orthogonal to all others",
            )
        elif config.mode == "exact_l1":
            z_full[:, j], info = _lasso_path_column(
                x, gram, rank, j, EXACT_PATH_END * mu[j], exact=True
            )
        else:
            z_full[:, j], info = _lasso_path_column(x, gram, rank, j, mu[j] / config.alpha)
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
    a = sparse.csr_array(np.abs(np.asarray(z, dtype=float)))
    return Adjacency(a + a.T)


def ssc_adjacency(data, config: SscConfig | None = None, return_info: bool = False):
    """Self-representation coefficients symmetrized into an Adjacency."""
    if return_info:
        z, infos = ssc_coefficients(data, config, return_info=True)
        return adjacency_from_coefficients(z), infos
    return adjacency_from_coefficients(ssc_coefficients(data, config))


def write_diagnostics_csv(infos: list[SscColumnInfo], path) -> None:
    """Dump per-column solver diagnostics to CSV."""
    fields = [f.name for f in dataclass_fields(SscColumnInfo)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for info in infos:
            writer.writerow([getattr(info, f) for f in fields])
