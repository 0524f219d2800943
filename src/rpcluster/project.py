"""Random projection operators: dense Gaussian and fast structured kinds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synth import DataSet

KINDS = ("gaussian", "fourier_sign", "hadamard_sign")


@dataclass(frozen=True)
class ProjectorCalibration:
    """Concentration constant c_tilde of the distortion tail bound.

    The tail bound for a projector family is
    P(| ||Phi x||^2 - ||x||^2 | >= t ||x||^2) <= 2 exp(-c_tilde t^2 p).
    """

    c_tilde: float = 0.25

    def __post_init__(self):
        if not self.c_tilde > 0:
            raise ValueError("c_tilde must be positive")

    def tail_bound(self, t: float, p: int) -> float:
        """Upper bound on the probability of relative distortion >= t."""
        return float(2.0 * np.exp(-self.c_tilde * t * t * p))


@dataclass(frozen=True)
class Projector:
    """A fixed p x m random projection, reproducible from (kind, m, p, seed).

    kind "gaussian" stores the dense matrix with i.i.d. N(0, 1/p) entries.
    The fast kinds store p row indices of the (sign-flipped) transform and a
    +-1 diagonal: "fourier_sign" applies Re(F D x) on the selected DFT rows,
    "hadamard_sign" applies H D x on the selected Hadamard rows after
    zero-padding m up to a power of two. Both are scaled by 1/sqrt(p) so that
    E ||Phi x||^2 = ||x||^2 for the unsampled complex / full transforms.
    kind "explicit" wraps a caller-supplied matrix (test hook).
    """

    kind: str
    m: int
    p: int
    seed: int
    scale: float
    dense: np.ndarray | None = None
    rows: np.ndarray | None = None
    signs: np.ndarray | None = None

    @property
    def padded_dim(self) -> int:
        """Input length seen by the structured transform (power of two for Hadamard)."""
        if self.kind == "hadamard_sign":
            return int(self.signs.shape[0])
        return self.m


def _next_pow2(n: int) -> int:
    out = 1
    while out < n:
        out *= 2
    return out


def _fwht(block: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform (Sylvester ordering) of each column, O(m log m)."""
    m = block.shape[0]
    y = block.copy()
    h = 1
    while h < m:
        z = y.reshape(-1, 2, h, y.shape[1])
        top = z[:, 0] + z[:, 1]
        bottom = z[:, 0] - z[:, 1]
        y = np.stack([top, bottom], axis=1).reshape(m, -1)
        h *= 2
    return y


def make_projector(kind: str, m: int, p: int, seed: int) -> Projector:
    """Draw a projector of the given kind. Same arguments give identical operators.

    Row subsets are p distinct indices chosen uniformly at random (a seeded
    permutation truncated to p); signs are i.i.d. uniform +-1.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown projector kind {kind!r}, expected one of {KINDS}")
    if m < 1:
        raise ValueError("ambient dimension must be positive")
    if not 1 <= p <= m:
        raise ValueError(f"projection dimension p={p} must satisfy 1 <= p <= m={m}")
    rng = np.random.default_rng((KINDS.index(kind), m, p, seed))
    scale = 1.0 / np.sqrt(p)
    if kind == "gaussian":
        dense = rng.standard_normal((p, m)) * scale
        return Projector(kind, m, p, seed, scale, dense=dense)
    n_total = m if kind == "fourier_sign" else _next_pow2(m)
    signs = (rng.integers(0, 2, size=n_total) * 2 - 1).astype(float)
    rows = rng.permutation(n_total)[:p]
    return Projector(kind, m, p, seed, scale, rows=rows, signs=signs)


def explicit_projector(matrix: np.ndarray) -> Projector:
    """Wrap a given p x m matrix as a projector (for controlled experiments)."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError("projector matrix must be two-dimensional")
    p, m = mat.shape
    return Projector("explicit", m, p, seed=0, scale=1.0, dense=mat)


def project_columns(proj: Projector, x: np.ndarray) -> np.ndarray:
    """Apply the projector to each column of x (or to a single vector)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    if x.shape[0] != proj.m:
        raise ValueError(
            f"input has {x.shape[0]} rows, projector expects {proj.m}"
        )
    if proj.kind in ("gaussian", "explicit"):
        out = proj.dense @ x
    elif proj.kind == "fourier_sign":
        spectrum = np.fft.fft(proj.signs[:, None] * x, axis=0)
        out = spectrum[proj.rows].real * proj.scale
    elif proj.kind == "hadamard_sign":
        padded = np.zeros((proj.padded_dim, x.shape[1]))
        padded[: proj.m] = x
        out = _fwht(proj.signs[:, None] * padded)[proj.rows] * proj.scale
    else:
        raise ValueError(f"unknown projector kind {proj.kind!r}")
    return out[:, 0] if single else out


def apply(proj: Projector, data: DataSet) -> DataSet:
    """Project a dataset, carrying labels through unchanged."""
    return DataSet(project_columns(proj, data.points), data.labels)


def is_identity(proj: Projector | None) -> bool:
    """True when the projector is absent or an explicit identity matrix."""
    if proj is None:
        return True
    return (
        proj.kind == "explicit"
        and proj.p == proj.m
        and np.array_equal(proj.dense, np.eye(proj.m))
    )


def jl_distortion_survey(
    kind: str, m: int, p: int, t: float, trials: int, seed: int
) -> float:
    """Empirical probability of relative squared-norm distortion at least t.

    Each trial draws a fresh projector and a fresh unit vector and checks
    whether | ||Phi x||^2 - 1 | >= t. Returns the violation fraction, to be
    compared against ProjectorCalibration.tail_bound(t, p).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if t <= 0:
        raise ValueError("distortion threshold t must be positive")
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(trials):
        proj_seed = int(rng.integers(2**63))
        x = rng.standard_normal(m)
        x /= np.linalg.norm(x)
        proj = make_projector(kind, m, p, proj_seed)
        y = project_columns(proj, x)
        if abs(y @ y - 1.0) >= t:
            violations += 1
    return violations / trials
