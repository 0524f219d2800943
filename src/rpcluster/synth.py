"""Synthetic union-of-subspaces data: bases, pairwise affinities, point sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# tolerance for the orthonormality check on basis columns
ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a linear subspace, one basis vector per column.

    Parameters
    ----------
    matrix : ndarray of shape (m, d)
        Columns are orthonormal, d <= m.
    """

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=float)
        if u.ndim != 2:
            raise ValueError("basis matrix must be two-dimensional")
        m, d = u.shape
        if d < 1:
            raise ValueError("subspace dimension must be at least 1")
        if d > m:
            raise ValueError(
                f"subspace dimension {d} exceeds ambient dimension {m}"
            )
        gram = u.T @ u
        if np.max(np.abs(gram - np.eye(d))) > ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "matrix", u)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class UnionModel:
    """A union of L subspaces together with per-subspace point counts."""

    bases: tuple[SubspaceBasis, ...]
    counts: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        bases = tuple(self.bases)
        counts = tuple(int(n) for n in self.counts)
        if len(bases) < 1:
            raise ValueError("model needs at least one subspace")
        if len(counts) != len(bases):
            raise ValueError("counts and bases must have the same length")
        m = bases[0].ambient_dim
        if any(b.ambient_dim != m for b in bases):
            raise ValueError("all bases must share the same ambient dimension")
        if any(n < 1 for n in counts):
            raise ValueError("every subspace needs at least one point")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "counts", counts)

    @property
    def n_subspaces(self) -> int:
        return len(self.bases)

    @property
    def ambient_dim(self) -> int:
        return self.bases[0].ambient_dim

    @property
    def n_points(self) -> int:
        return int(sum(self.counts))


def check_finite_columns(x: np.ndarray) -> None:
    """Reject points (columns) with a NaN/inf entry, naming the first."""
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x).all(axis=0))[0])
        raise ValueError(f"column {bad} has a non-finite entry")


def check_columns(data) -> np.ndarray:
    """The column points of a DataSet or an array, as a 2-d float array.

    Rejects any other shape, and points (columns) with a NaN/inf entry or a
    zero norm, naming the first.
    """
    x = np.asarray(getattr(data, "points", data), dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-d array of column points")
    check_finite_columns(x)
    norms = np.linalg.norm(x, axis=0)
    if np.any(norms == 0):
        bad = int(np.flatnonzero(norms == 0)[0])
        raise ValueError(f"column {bad} is identically zero")
    return x


@dataclass
class DataSet:
    """Points stored one per column, with optional ground-truth labels.

    Points must be finite; labels must be integers (1.0 is, 1.5 is not).
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array, one point per column")
        check_finite_columns(pts)
        self.points = pts
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (pts.shape[1],):
                raise ValueError("labels must have one entry per point")
            if lab.dtype.kind == "f":
                integral = (lab == np.floor(lab)) & (np.abs(lab) < 2.0**63)  # no nan/inf
                if not integral.all():
                    bad = int(np.flatnonzero(~integral)[0])
                    raise ValueError(f"label {bad} is {float(lab[bad])}, not an integer")
            self.labels = lab.astype(int, copy=False)

    @property
    def dim(self) -> int:
        return self.points.shape[0]

    @property
    def n_points(self) -> int:
        return self.points.shape[1]


def random_orthonormal_basis(m: int, d: int, seed: int) -> SubspaceBasis:
    """Draw a uniformly random d-dimensional subspace of R^m.

    QR of an i.i.d. Gaussian matrix, with the sign of each R diagonal entry
    folded into Q so the distribution is invariant under rotations.
    """
    if d < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    if d > m:
        raise ValueError(f"subspace dimension {d} exceeds ambient dimension {m}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, d))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    q = q * np.where(diag == 0, 1.0, np.sign(diag))
    return SubspaceBasis(q)


def intersecting_pair(m: int, d: int, t: int, seed: int) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Two random d-dimensional subspaces sharing exactly a t-dimensional intersection.

    Both bases reuse t common directions and fill the rest with disjoint
    orthonormal directions, so affinity(b1, b2) = sqrt(t / d) exactly.
    """
    if not 0 <= t <= d:
        raise ValueError("intersection dimension t must satisfy 0 <= t <= d")
    if 2 * d - t > m:
        raise ValueError(
            f"need 2*d - t <= m to fit two d-dimensional subspaces with a "
            f"{t}-dimensional intersection in R^{m}"
        )
    w = random_orthonormal_basis(m, 2 * d - t, seed).matrix
    shared = w[:, :t]
    first = np.hstack([shared, w[:, t:d]])
    second = np.hstack([shared, w[:, d:2 * d - t]])
    return SubspaceBasis(first), SubspaceBasis(second)


def generate(model: UnionModel) -> DataSet:
    """Sample points from each subspace, uniform on the unit sphere within it.

    Points of subspace l are U_l @ a with a ~ uniform on the unit sphere of
    R^{d_l}. Blocks are laid out in subspace order; per-block seeds are spawned
    from the model seed, so block l is unchanged when later blocks are added.
    """
    children = np.random.SeedSequence(model.seed).spawn(model.n_subspaces)
    blocks = []
    labels = []
    for l, (basis, n) in enumerate(zip(model.bases, model.counts)):
        rng = np.random.default_rng(children[l])
        a = rng.standard_normal((basis.dim, n))
        a = a / np.linalg.norm(a, axis=0)
        blocks.append(basis.matrix @ a)
        labels.append(np.full(n, l, dtype=int))
    return DataSet(np.hstack(blocks), np.concatenate(labels))


def principal_angle_cosines(a: SubspaceBasis, b: SubspaceBasis) -> np.ndarray:
    """Cosines of the principal angles between two subspaces, descending.

    These are the singular values of A^T B, clamped to [0, 1] against
    round-off.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    s = np.linalg.svd(a.matrix.T @ b.matrix, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def affinity(a: SubspaceBasis, b: SubspaceBasis) -> float:
    """Normalized affinity ||A^T B||_F / sqrt(min(d_a, d_b)), in [0, 1]."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    f = np.linalg.norm(a.matrix.T @ b.matrix, "fro")
    val = f / np.sqrt(min(a.dim, b.dim))
    return float(np.clip(val, 0.0, 1.0))
