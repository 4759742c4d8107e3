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
    "ladder_exp_action",
    "ladder_moments",
    "quadrature_moments",
    "quadrature_report",
    "fock_basis_state",
    "check_dim",
    "log_series",
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
    mean_n: float
    var_n: float
    tail_warning: bool = False


def check_dim(*dims: int) -> None:
    """Reject a truncation that keeps fewer than two levels of some mode."""
    if min(dims) < 2:
        raise ValueError("dim must be at least 2")


def build_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices on a dim-dimensional basis."""
    check_dim(dim)
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


def ladder_exp_action(
    weights: np.ndarray, step: int, alpha: complex, v: np.ndarray
) -> np.ndarray:
    """exp(alpha L+ - alpha* L) v for L|n> = weights[n]|n-step>.

    The generator couples n only to n +- step, so it acts on each residue
    chain {c, c + step, c + 2 step, ...} as one tridiagonal matrix G.  The
    gauge g_k = (i alpha/|alpha|)^k turns iG into the real symmetric
    tridiagonal T with off-diagonal |alpha| weights; with T = V diag(lam) V^T,
    exp(G) = g V e^{-i lam} V^T g*.  Chains on which v vanishes are skipped.
    This exponentiates the truncated generator; it reads no closed form.
    """
    out = np.array(v, dtype=complex)
    if alpha == 0:
        return out
    w = abs(alpha) * np.asarray(weights, dtype=float)
    unit = 1j * alpha / abs(alpha)
    for c in range(min(step, out.size)):
        chain = out[c::step]
        if chain.size < 2 or not chain.any():
            continue
        gauge = unit ** np.arange(chain.size)
        lam, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(chain.size), w[c + step :: step])
        out[c::step] = gauge * (vecs @ (np.exp(-1j * lam) * (vecs.T @ (gauge.conj() * chain))))
    return out


def ladder_moments(
    amps: np.ndarray, weights: np.ndarray, axis: int = 0
) -> tuple[complex, complex, float, float]:
    """<L>, <L^2>, <L+L> and <LL+> for L|n> = weights[n]|n-1> along `axis`.

    These are the truncated-matrix moments: the top level has no L+ image.
    Each is a sum over shifted slices, O(amps.size).
    """
    psi = np.asarray(amps).swapaxes(0, axis)
    w = np.asarray(weights, dtype=float)[1:].reshape((-1,) + (1,) * (psi.ndim - 1))
    low = w * psi[1:]  # L psi on levels 0 .. dim-2
    up = w * psi[:-1]  # L+ psi on levels 1 .. dim-1
    first = complex(np.vdot(psi[:-1], low))
    second = complex(np.vdot(psi[:-2], w[:-1] * low[1:]))
    return first, second, float(np.vdot(low, low).real), float(np.vdot(up, up).real)


def quadrature_moments(moments: tuple) -> tuple[float, float, float, float]:
    """Means and variances of x = (L + L+)/sqrt2 and p = -i(L - L+)/sqrt2.

    <x^2> and <p^2> are sums halved, so vacuum variances are exactly 1/2.
    """
    first, second, up_down, down_up = moments
    mean_x = math.sqrt(2.0) * first.real
    mean_p = math.sqrt(2.0) * first.imag
    var_x = (up_down + down_up + 2.0 * second.real) / 2.0 - mean_x * mean_x
    var_p = (up_down + down_up - 2.0 * second.real) / 2.0 - mean_p * mean_p
    return mean_x, mean_p, var_x, var_p


def quadrature_report(state: FockState, tail_tol: float = STATE_TAIL_TOL) -> QuadratureReport:
    """Means, variances and the uncertainty product of x and p, and the
    mean and variance of N = a+a; <N^2> is <L+L> for L|n> = n|n-1>."""
    state.check_normalized(tail_tol)
    ns = np.arange(state.dim, dtype=float)
    moments = ladder_moments(state.amps, np.sqrt(ns))
    mx, mp, vx, vp = quadrature_moments(moments)
    mean_n = moments[2]
    var_n = ladder_moments(state.amps, ns)[2] - mean_n * mean_n
    warn = state.tail_mass(0.1) > 1e-8
    return QuadratureReport(mx, mp, vx, vp, vx * vp, mean_n, var_n, tail_warning=warn)


def fock_basis_state(dim: int, n: int) -> FockState:
    check_dim(dim)
    if not 0 <= n < dim:
        raise ValueError("basis index out of range")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockState(amps)


def log_series(log_weights: np.ndarray, ratio: complex) -> np.ndarray:
    """Unit vector c_j proportional to ratio^j exp(log_weights[j]).

    The moduli are formed in log space and scaled by the largest term, so
    no term underflows or overflows before normalization.  A real ratio
    keeps its exact sign (-1)^j; ratio 0 gives the first basis vector.
    """
    amps = np.zeros(log_weights.size, dtype=complex)
    if ratio == 0:
        amps[0] = 1.0
        return amps
    js = np.arange(log_weights.size)
    log_mod = log_weights + js * np.log(abs(ratio))
    phase = np.exp(1j * js * np.angle(ratio)) if ratio.imag else np.sign(ratio.real) ** js
    amps[:] = np.exp(log_mod - log_mod.max()) * phase
    return amps / np.linalg.norm(amps)


def max_abs_interior(M: np.ndarray, rows: int, cols: int | None = None) -> float:
    """Largest entry magnitude of the leading rows x cols block."""
    if cols is None:
        cols = rows
    return float(np.abs(M[:rows, :cols]).max())
