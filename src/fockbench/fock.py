"""Truncated Fock-space linear algebra.

Basis convention: the space is spanned by number states |0>..|dim-1>.
The annihilation matrix has entries a[n-1, n] = sqrt(n); everything else
(quadratures, number operator, exponentials) is built from it.

Truncation contract: operator identities such as [a, a+] = 1 hold exactly
on the interior of the basis and provably fail on the last row.  Checks
therefore always go through an interior projector; see `max_abs_interior`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "FockState",
    "TwoModeState",
    "GridWavefunction",
    "QuadratureReport",
    "build_ladder",
    "build_quadratures",
    "number_operator",
    "matrix_exponential",
    "expectation",
    "quadrature_report",
    "fock_basis_state",
    "suggested_dim",
    "max_abs_interior",
]

# norm^2 slack allowed for a constructed state (mass lost to the truncation tail)
STATE_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class FockState:
    """Complex amplitudes over a truncated single-mode number basis."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitude vector must be 1-d with dim >= 2")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FockState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockState(self.amps / n)

    def check_normalized(self, tail_tol: float = STATE_TAIL_TOL) -> None:
        n2 = self.norm ** 2
        if not (1.0 - tail_tol <= n2 <= 1.0 + 1e-12):
            raise ValueError(f"state norm^2 = {n2!r} outside the allowed band")

    def tail_mass(self, fraction: float = 0.1) -> float:
        """Probability carried by the top `fraction` of the basis."""
        start = int(self.dim * (1.0 - fraction))
        return float(np.sum(np.abs(self.amps[start:]) ** 2))

    def overlap(self, other: "FockState") -> complex:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "FockState") -> float:
        return abs(self.overlap(other)) ** 2


@dataclass(frozen=True)
class TwoModeState:
    """Complex amplitude grid over a truncated two-mode number basis.

    amps[n1, n2] multiplies |n1, n2>.  Row-major flattening matches the
    tensor-product ordering a1 = a x I, a2 = I x a.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 2:
            raise ValueError("two-mode amplitudes must form a matrix")
        object.__setattr__(self, "amps", amps)

    @property
    def dims(self) -> tuple[int, int]:
        return self.amps.shape

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "TwoModeState":
        return TwoModeState(self.amps / self.norm)

    def ravel(self) -> np.ndarray:
        return self.amps.reshape(-1)

    def fidelity(self, other: "TwoModeState") -> float:
        return abs(np.vdot(self.amps, other.amps)) ** 2


@dataclass(frozen=True)
class GridWavefunction:
    """Sampled complex wavefunction on a uniform spatial grid."""

    x_min: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.dx <= 0:
            raise ValueError("dx must be positive")

    @property
    def n_points(self) -> int:
        return self.values.size

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx))

    def normalized(self) -> "GridWavefunction":
        return GridWavefunction(self.x_min, self.dx, self.values / self.norm)

    def l2_distance(self, other: "GridWavefunction") -> float:
        return float(np.sqrt(np.sum(np.abs(self.values - other.values) ** 2) * self.dx))


@dataclass(frozen=True)
class QuadratureReport:
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    product: float
    tail_warning: bool = False


def build_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices on a dim-dimensional basis."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T


def build_quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian position and momentum matrices, x = (a+a+)/sqrt2 etc."""
    a, adag = build_ladder(dim)
    x = (a + adag) / np.sqrt(2.0)
    p = -1j * (a - adag) / np.sqrt(2.0)
    return x, p


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """Dense matrix exponential.

    Delegates to scipy's scaling-and-squaring Pade implementation; the
    accuracy contract (relative error <= 1e-10 for norms up to ~50) is
    enforced by the test suite against an independent Taylor reference.
    """
    M = np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite entries")
    return scipy.linalg.expm(M)


def expectation(M: np.ndarray, state: FockState | np.ndarray) -> complex:
    vec = state.amps if isinstance(state, FockState) else np.asarray(state)
    if M.shape != (vec.size, vec.size):
        raise ValueError("operator and state dimensions differ")
    return complex(np.vdot(vec, M @ vec))


def quadrature_report(state: FockState, tail_tol: float = STATE_TAIL_TOL) -> QuadratureReport:
    """Means, variances and the uncertainty product of x and p."""
    state.check_normalized(tail_tol)
    x, p = build_quadratures(state.dim)
    mx = expectation(x, state).real
    mp = expectation(p, state).real
    vx = expectation(x @ x, state).real - mx * mx
    vp = expectation(p @ p, state).real - mp * mp
    warn = state.tail_mass(0.1) > 1e-8
    return QuadratureReport(mx, mp, vx, vp, vx * vp, tail_warning=warn)


def fock_basis_state(dim: int, n: int) -> FockState:
    if not 0 <= n < dim:
        raise ValueError("basis index out of range")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockState(amps)


def suggested_dim(r: float) -> int:
    """Truncation size for squeezing-type operations at magnitude r."""
    return math.ceil(8.0 * math.sinh(r) ** 2 + 16)


def max_abs_interior(M: np.ndarray, rows: int, cols: int | None = None) -> float:
    """Largest entry magnitude of the leading rows x cols block."""
    if cols is None:
        cols = rows
    return float(np.abs(M[:rows, :cols]).max())
