"""Sparse self-representation: each point regressed on all others, l1-penalized.

Two programs, one solver. "exact_l1" is basis pursuit,

    min ||z||_1  s.t.  x_j = X z,  z_j = 0,

and "lasso_admm" is the penalized variant

    min  lambda_j ||z||_1 + 1/2 ||x_j - X z||_2^2,  z_j = 0

with the per-column weight lambda_j = mu_j / alpha where
mu_j = max_{i != j} |<x_i, x_j>|. The lasso solution is zero for
lambda >= mu_j, so alpha must exceed 1. Despite its name, which stays because
it is a CLI choice, the lasso mode is not solved by ADMM.
Both modes run a lasso homotopy (Osborne, Presnell & Turlach 2000; Efron et
al. 2004): each column follows its piecewise-linear solution path from
lambda = mu_j down, a few steps per nonzero coefficient. The lasso stops at
lambda_j. Basis pursuit is the path's limit as lambda -> 0 (Donoho & Tsaig
2008): the path stops just above zero, the coefficients are solved on its
support at lambda = 0, and the result is certified by a dual vector, or the
point is reported as outside the span of the others.

Columns are solved in blocks of BLOCK_ENTRIES // N that take their path
steps in lockstep, one numpy pass over the block per step. Every product
comes from the p x N points X, never from X^T X; |A| <= rank(X) <= p. A
column's step costs O(N p), but at small p a pass costs more in numpy calls
than in arithmetic: 0.11 ms with one live column, 0.66 ms with 150 (N=150,
p=20, 2 vCPUs). Memory is O(BLOCK_ENTRIES + N p) plus the supports, from
which ssc_adjacency builds its graph; only ssc_coefficients forms a dense Z.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import adjacency_from_coefficients
from .synth import check_columns

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
# Correlation entries per block of columns: a block of B = BLOCK_ENTRIES // N
# columns works on a few B x N arrays (correlations, the update a, and per
# side the rates, ratios and masks), so the solver's memory does not grow
# with N. A block takes as many passes as its longest path, so larger blocks
# take fewer passes in all. ssc_coefficients on 2 vCPUs, median of interleaved calls
# at 2^15, 2^16, 2^17 and 2^18 entries: N=150 (one block) 7 ms at each;
# N=600, p=20 82, 66, 59 and 63 ms; N=2400, p=20 1.11, 1.02, 0.91 and
# 0.89 s; N=2400, p=10 1.70, 1.41, 1.48 and 1.53 s. At 2^17, as in TSC, the
# traced peak of ssc_adjacency at N=1200 is 7.5 MB.
BLOCK_ENTRIES = 2**17


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


def _lasso_path_block(
    x: np.ndarray, xt: np.ndarray, sq_norms: np.ndarray, rank: int,
    cols: np.ndarray, c: np.ndarray, lam_end: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Lasso homotopy for columns cols, in lockstep, from lambda = mu_j down to lam_end.

    c holds the block's correlations X_cols^T X with c[b, cols[b]] = 0 and
    mu_j = max |c[b]| > 0; it is overwritten. Column j's path starts with the
    arg-max atom of mu_j active and z = 0. On an active set A with signs s,
    as lambda falls by gamma, z_A grows by gamma d with G_AA d = s
    (G = X^T X) and the correlations c = X^T (x_j - X z) fall by gamma a,
    a = X^T (X_A d), so c_A stays lambda s. A step ends when an inactive
    atom's |c_i| reaches lambda (it enters; ties go to side +, c_i = lambda,
    and then to the smaller index), an active z_k reaches zero (it is
    dropped) or lambda reaches lam_end, where z is the exact solution.
    G_AA^{-1} is updated by bordering on entry, whose pivot is the entering
    atom's squared distance to the span of A, and by a Schur complement on a
    drop. Once |A| = rank(X), A spans every atom and none may enter.

    Every live column takes its step in the same numpy pass over the block.
    Active sets, signs, coefficients and inverses are padded to a common
    width; a padding slot holds zeros and names column j itself. Columns
    that reach lam_end or the step cap leave the block, and the block's
    arrays shrink to the columns left. Returns, in the order of cols, the
    active sets, signs and last coefficients padded to the largest |A|, the
    sizes |A|, the step counts and whether lam_end was reached.
    """
    n_blk, n_pts = c.shape
    rows = np.arange(n_blk)
    first = np.abs(c).argmax(axis=1)
    lam = np.abs(c[rows, first])
    # the padded width doubles, up to rank(X), as the largest |A| needs; the
    # slot past it is always padding, so a drop closes its gap by one gather
    width = min(4, rank)
    active = np.repeat(cols[:, None], width + 1, axis=1)
    active[:, 0] = first
    s, z_a = np.zeros((2, n_blk, width + 1))
    s[:, 0] = np.sign(c[rows, first])
    inv = np.zeros((n_blk, width + 1, width + 1))
    inv[:, 0, 0] = 1.0 / sq_norms[first]
    size = np.ones(n_blk, dtype=np.intp)
    # taken[b, i]: atom i is j or in A. held[t, b, i]: atom i may not enter
    # column b's path on side t (0: c_i = lambda, 1: c_i = -lambda) until
    # the column's next step: atoms in the span of A, and the atom dropped
    # in the last step on the side it left, where it sits at |c_i| = lambda
    # and rounding would let it re-enter.
    taken = np.zeros((n_blk, n_pts), dtype=bool)
    taken[rows, cols] = taken[rows, first] = True
    held = np.zeros((2, n_blk, n_pts), dtype=bool)
    steps = np.zeros(n_blk, dtype=np.intp)
    reached = np.zeros(n_blk, dtype=bool)
    order = rows
    # each column's row is written here as it leaves the block
    out_active = np.repeat(cols[:, None], rank + 1, axis=1)
    out_s, out_z = np.zeros((2, n_blk, rank + 1))
    out_size, out_steps = np.zeros((2, n_blk), dtype=np.intp)
    out_reached = np.zeros(n_blk, dtype=bool)
    # a = X^T X_A d, and per side the gap lambda -+ c_i, which closes at the
    # rate 1 -+ a_i, their ratio, and where entry is barred; the live columns
    # use the front of each buffer
    bufs = (*np.empty((3, n_blk * n_pts)), np.empty(n_blk * n_pts, dtype=bool))
    a = bufs[0][:0]
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            done = reached | (steps >= MAX_PATH_STEPS * n_pts)
            if done.any():
                gone, keep = np.flatnonzero(done), np.flatnonzero(~done)
                ids = order[gone]
                out_active[ids, : width + 1], out_s[ids, : width + 1], out_z[ids, : width + 1] = (
                    v.take(gone, axis=0) for v in (active, s, z_a)
                )
                out_size[ids], out_steps[ids], out_reached[ids] = size[gone], steps[gone], reached[gone]
                order, c, lam, lam_end, active, s, z_a, inv, size, steps, taken = (
                    v.take(keep, axis=0) for v in (order, c, lam, lam_end, active, s, z_a, inv, size, steps, taken)
                )
                held = held.take(keep, axis=1)
                if not len(order):
                    break
            n_live = len(order)
            if a.size != n_live * n_pts:
                rows = np.arange(n_live)
                a, rate, ratio, barred = (v[: n_live * n_pts].reshape(n_live, n_pts) for v in bufs)
            # slots past the largest |A| are padding in every column
            w = int(size.max())
            s_w = s[:, :w]
            x_a = xt.take(active[:, :w], axis=0)
            d = (inv[:, :w, :w] @ s_w[:, :, None])[:, :, 0]
            np.matmul((d[:, None, :] @ x_a)[:, 0], x, out=a)
            i_t, e_t = np.empty((2, n_live), dtype=np.intp), np.empty((2, n_live))
            for t, op in enumerate((np.subtract, np.add)):
                op(1.0, a, out=rate)
                np.less_equal(rate, 0.0, out=barred)
                barred |= taken
                barred |= held[t]
                # lambda spread over its row once; adding a row-broadcast
                # takes numpy a loop per row
                np.copyto(ratio, lam[:, None])
                op(ratio, c, out=ratio)
                ratio /= rate
                np.copyto(ratio, np.inf, where=barred)
                i_t[t] = ratio.argmin(axis=1)
                e_t[t] = ratio[rows, i_t[t]]
                # a gap at or below zero is a tie at gamma = 0, which the
                # first such atom wins
                tie = np.flatnonzero(e_t[t] <= 0)
                if tie.size:
                    i_t[t, tie] = (ratio[tie] <= 0).argmax(axis=1)
                    e_t[t, tie] = 0.0
            side = e_t[1] < e_t[0]
            i_in = np.where(side, i_t[1], i_t[0])
            e_min = np.minimum(e_t[1], e_t[0])
            sd = s_w * d
            drop = np.where(sd < 0, np.maximum(s_w * z_a[:, :w], 0.0) / -sd, np.inf)
            k_out = drop.argmin(axis=1)
            to_end = lam - lam_end
            gamma = np.minimum(drop[rows, k_out], to_end)
            entering = e_min < gamma
            gamma = np.minimum(e_min, gamma)
            steps += 1
            stay = grow = rows[:0]
            if entering.any():
                # every column takes the span test of its i_in and the
                # bordering, which a column that does not grow scales to zero
                x_i = xt.take(i_in, axis=0)
                b = (inv[:, :w, :w] @ (x_a @ x_i[:, :, None]))[:, :, 0]
                # from X, not G_ii - G_iA b, which cancels to rounding noise
                # as G_AA grows ill-conditioned
                resid = x_i - (b[:, None, :] @ x_a)[:, 0]
                pivot = np.einsum("ep,ep->e", resid, resid)
                spanned = entering & ((size == rank) | (pivot <= SPAN_TOL * sq_norms[i_in]))
                grows = entering ^ spanned
                grow = np.flatnonzero(grows)
                # in the span of A, i_in holds KKT with a zero coefficient;
                # its column takes no step
                stay = np.flatnonzero(spanned)
                if stay.size:
                    held_stay = held[:, stay]
                    held_stay[:, np.arange(stay.size), i_in[stay]] = True
                    steps[stay] -= 1
                    gamma[stay] = 0.0
            z_a[:, :w] += gamma[:, None] * d
            c -= np.multiply(gamma[:, None], a, out=a)
            lam -= gamma
            reached = gamma == to_end
            # a column that stepped takes its held atoms back
            held.fill(False)
            if stay.size:
                held[:, stay] = held_stay
            if grow.size:
                pos, new = size[grow], i_in[grow]
                if pos.max() == width:
                    extra = min(width, rank - width)
                    active = np.hstack([active, np.repeat(active[:, -1:], extra, axis=1)])
                    s, z_a = (np.hstack([v, np.zeros((n_live, extra))]) for v in (s, z_a))
                    inv, narrow = np.zeros((n_live, width + extra + 1, width + extra + 1)), inv
                    inv[:, : width + 1, : width + 1] = narrow
                    width += extra
                active[grow, pos] = new
                s[grow, pos] = np.where(side[grow], -1.0, 1.0)
                taken[grow, new] = True
                u = np.zeros((n_live, w + 1))
                np.negative(b, out=u[:, :w])
                u[rows, size] = 1.0
                inv[:, : w + 1, : w + 1] += np.divide(
                    u[:, :, None] @ u[:, None, :], np.where(grows, pivot, np.inf)[:, None, None]
                )
                size[grow] += 1
            shrink = np.flatnonzero(~(entering | reached))
            if shrink.size:
                r = np.arange(len(shrink))
                k = k_out[shrink]
                gone = active[shrink, k]
                taken[shrink, gone] = False
                held[(s[shrink, k] < 0).astype(np.intp), shrink, gone] = True
                inv_d = inv.take(shrink, axis=0)
                col = inv_d[r, :, k]
                inv_d -= np.divide(col[:, :, None] @ col[:, None, :], inv_d[r, k, k][:, None, None])
                # close the gap at slot k: later slots move down one, and the
                # last padding slot stays
                slot = np.arange(width + 1)
                perm = np.minimum(slot + (slot >= k[:, None]), width)
                inv[shrink] = inv_d[r[:, None, None], perm[:, :, None], perm[:, None, :]]
                at = (shrink[:, None], perm)
                active[shrink], s[shrink], z_a[shrink] = active[at], s[at], z_a[at]
                size[shrink] -= 1
    w = int(out_size.max())
    return out_active[:, :w], out_s[:, :w], out_z[:, :w], out_size, out_steps, out_reached


def _certify_block(
    x: np.ndarray, xt: np.ndarray, sq_norms: np.ndarray, cols: np.ndarray,
    lam_end: np.ndarray, path: tuple[np.ndarray, ...], exact: bool,
) -> tuple[np.ndarray, list[SscColumnInfo]]:
    """Final coefficients and certificates of a block's paths.

    Returns the coefficients, padded like the path's active sets, and the
    per-column SscColumnInfo. Columns are solved in one batch per support
    size |A|, the lasso's on G_AA. With exact=True they are basis pursuit's,
    solved at lambda = 0 from a QR of X_A: z from R z = Q^T x_j, and the
    certificate nu = Q R^{-T} s, the least-norm nu with X_A^T nu = s.
    """
    active, s, z_a, size, steps, reached = path
    # re-solve on the support and signs the path found, free of the rounding
    # the inverse updates gathered; a coefficient that is zero at the end may
    # come out at rounding level with the wrong sign. The QR keeps the
    # conditioning of X_A, where G_AA = X_A^T X_A would square it.
    if exact:
        nu = np.zeros((len(cols), x.shape[0]))
    for k in np.unique(size if exact else size[reached]):
        sel = np.flatnonzero(size == k if exact else reached & (size == k))
        x_a = xt[active[sel, :k]]
        if exact:
            q, r = np.linalg.qr(x_a.transpose(0, 2, 1))
            nu[sel] = (q @ np.linalg.solve(r.transpose(0, 2, 1), s[sel, :k, None]))[:, :, 0]
            hit = reached[sel]
            qtx = q[hit].transpose(0, 2, 1) @ xt[cols[sel[hit]], :, None]
            z_a[sel[hit], :k] = np.linalg.solve(r[hit], qtx)[:, :, 0]
        else:
            rhs = x_a @ xt[cols[sel], :, None] - lam_end[sel, None, None] * s[sel, :k, None]
            z_a[sel, :k] = np.linalg.solve(x_a @ x_a.transpose(0, 2, 1), rhs)[:, :, 0]
    z_a[reached[:, None] & (s * z_a <= 0)] = 0.0
    rows = np.arange(len(cols))
    # residuals x_j - X z taken from X: their Gram form loses half the
    # digits to cancellation
    resid = xt[cols] - (z_a[:, None, :] @ xt[active])[:, 0]
    if exact:
        # z is optimal if |X^T nu| <= 1 off A and x_j = X z
        g = nu @ x
        g[rows, cols] = 0.0
        on_a = np.abs(g[rows[:, None], active] - s).max(axis=1)
        g[rows[:, None], active] = 0.0
        primal = np.linalg.norm(resid, axis=1) / np.sqrt(sq_norms[cols])
        kkt = np.maximum(np.maximum(np.abs(g).max(axis=1) - 1.0, on_a), np.maximum(primal, 0.0))
        objective = np.abs(z_a).sum(axis=1)
    else:
        # certificate: g = X_{-j}^T (x_j - X z) in lam_end * subgradient(|z|_1)
        g = resid @ x
        g[rows, cols] = 0.0
        on = z_a != 0
        on_a = np.where(on, np.abs(g[rows[:, None], active] / lam_end[:, None] - np.sign(z_a)), 0.0)
        kkt = np.maximum(np.maximum(np.abs(g).max(axis=1) / lam_end - 1.0, on_a.max(axis=1)), 0.0)
        objective = lam_end * np.abs(z_a).sum(axis=1) + 0.5 * np.einsum("bp,bp->b", resid, resid)
    infos = []
    # Python scalars: indexing numpy arrays per column costs more than the rest
    objective, kkt = objective.tolist(), kkt.tolist()
    for b, (j, end, n_steps) in enumerate(zip(cols.tolist(), reached.tolist(), steps.tolist())):
        message = "" if end else "path step cap reached"
        if not exact:
            if end and kkt[b] > PATH_KKT_TOL:
                message = f"KKT residual {kkt[b]:.1e} above {PATH_KKT_TOL:.0e}"
        elif end and primal[b] > EXACT_TOL:
            message = "point is not in the span of the others"
            z_a[b], objective[b] = 0.0, np.nan
        elif end and kkt[b] > EXACT_TOL:
            message = f"certificate residual {kkt[b]:.1e} above {EXACT_TOL:.0e}"
        infos.append(SscColumnInfo(
            column=j,
            mode="exact_l1" if exact else "lasso_admm",
            converged=not message,
            iterations=n_steps,
            objective=objective[b],
            kkt_residual=kkt[b],
            message=message,
        ))
    return z_a, infos


def _self_representation(data, config: SscConfig | None):
    """The coefficient matrix Z, sparse, and the per-column infos.

    Columns are solved in blocks of BLOCK_ENTRIES // N; no N x N array is
    formed. A column orthogonal to all others (mu_j = 0) takes no path.
    """
    if config is None:
        config = SscConfig()
    x = check_columns(data)
    n_pts = x.shape[1]
    if n_pts < 2:
        raise ValueError("self-representation needs at least two points")

    exact = config.mode == "exact_l1"
    xt = np.ascontiguousarray(x.T)
    sq_norms = np.einsum("ij,ij->j", x, x)
    rank = int(np.linalg.matrix_rank(x))
    infos: list[SscColumnInfo | None] = [None] * n_pts
    coords = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    step = max(1, BLOCK_ENTRIES // n_pts)
    for start in range(0, n_pts, step):
        cols = np.arange(start, min(start + step, n_pts))
        c = xt[cols] @ x
        c[np.arange(len(cols)), cols] = 0.0
        # mu_j = max_{i != j} |<x_i, x_j>|, where every path starts
        mu = np.abs(c).max(axis=1)
        for j in cols[mu == 0]:
            infos[j] = SscColumnInfo(
                column=int(j),
                mode=config.mode,
                converged=False,
                iterations=0,
                objective=0.0,
                kkt_residual=np.nan,
                message="point is orthogonal to all others",
            )
        cols, c, mu = cols[mu > 0], c[mu > 0], mu[mu > 0]
        if not len(cols):
            continue
        lam_end = EXACT_PATH_END * mu if exact else mu / config.alpha
        path = _lasso_path_block(x, xt, sq_norms, rank, cols, c, lam_end)
        z_a, block_infos = _certify_block(x, xt, sq_norms, cols, lam_end, path, exact)
        for info in block_infos:
            infos[info.column] = info
        on = z_a != 0
        coords.append((path[0][on], np.repeat(cols, on.sum(axis=1)), z_a[on]))

    bad = [i.column for i in infos if not i.converged]
    if bad:
        warnings.warn(
            f"self-representation did not converge for {len(bad)} of {n_pts} "
            f"columns (first: {bad[:5]})",
            RuntimeWarning,
            stacklevel=3,
        )
    rows, cols, vals = (np.concatenate(v) for v in zip(*coords))
    return sparse.coo_array((vals, (rows, cols)), shape=(n_pts, n_pts)), infos


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
    z, infos = _self_representation(data, config)
    if return_info:
        return z.toarray(), infos
    return z.toarray()


def ssc_adjacency(data, config: SscConfig | None = None, return_info: bool = False):
    """Self-representation coefficients symmetrized into an Adjacency.

    The graph is built from each column's support, with no dense Z.
    """
    z, infos = _self_representation(data, config)
    adj = adjacency_from_coefficients(z)
    if return_info:
        return adj, infos
    return adj
