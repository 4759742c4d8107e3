"""Isospectral deformation of the oscillator on a spatial grid.

The superpotential W(x) = x is deformed by phi_lambda(x), the logarithmic
derivative of a one-parameter family of ground states.  The deformed
Hamiltonian shares the oscillator spectrum; its eigenstates chi_n follow
from the originals by a closed-form correction.  Coherent and squeezed
analogues live in the modal basis {chi_n} and are handled through the
ordinary ladder matrix, which has identical matrix elements there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coherent import coherent_ladder
from .fock import (GridWavefunction, build_ladder, bundled_lapack, fock_basis_state,
                   ladder_exp_action)
from .squeezing import squeeze_action

__all__ = [
    "IsospectralFamily",
    "check_deformation",
    "build_family",
    "hermite_levels",
    "chi_states",
    "deformed_potential",
    "spectral_check",
    "modal_coherent_coeffs",
    "modal_squeezed_coeffs",
    "modal_eigen_residual",
    "assemble",
]

GRID_MIN = -10.0
GRID_MAX = 10.0
GRID_POINTS = 2001
# the step the levels are calibrated at; build_family refuses a coarser grid
GRID_STEP = (GRID_MAX - GRID_MIN) / (GRID_POINTS - 1)
MAX_LEVELS = 12


@dataclass(frozen=True)
class IsospectralFamily:
    lam: float
    xs: np.ndarray
    psi0: np.ndarray
    cumulative: np.ndarray
    phi_lambda: np.ndarray

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])


def check_deformation(lam: float) -> None:
    """Reject lam in [-1, 0], where lam + int psi0^2 vanishes on the axis."""
    if -1.0 <= lam <= 0.0:
        raise ValueError("deformation parameter inside [-1, 0] puts a pole on the axis")


def build_family(lam: float, xs: np.ndarray | None = None) -> IsospectralFamily:
    """Deformation phi = psi0^2 / (lam + int psi0^2) on the grid."""
    check_deformation(lam)
    if xs is None:
        xs = np.linspace(GRID_MIN, GRID_MAX, GRID_POINTS)
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2 or xs[0] > GRID_MIN or xs[-1] < GRID_MAX or not xs[1] - xs[0] <= GRID_STEP:
        raise ValueError(f"grid must span at least [-10, 10] in steps of at most {GRID_STEP:g}")
    psi0 = np.pi ** -0.25 * np.exp(-xs * xs / 2.0)
    dens = psi0 * psi0
    # cumulative trapezoid rule, starting from 0 at the left end
    cumulative = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (dens[1:] + dens[:-1]) / 2.0)))
    phi_lambda = dens / (lam + cumulative)
    if not np.all(np.isfinite(phi_lambda)):
        raise ValueError("deformation diverges on the grid")
    return IsospectralFamily(
        lam=float(lam),
        xs=xs,
        psi0=psi0,
        cumulative=cumulative,
        phi_lambda=phi_lambda,
    )


def hermite_levels(xs: np.ndarray, n_levels: int) -> np.ndarray:
    """Oscillator eigenfunctions psi_0..psi_{n_levels-1}, stable recurrence."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((n_levels, xs.size))
    out[0] = np.pi ** -0.25 * np.exp(-xs * xs / 2.0)
    if n_levels > 1:
        out[1] = np.sqrt(2.0) * xs * out[0]
    for k in range(2, n_levels):
        out[k] = np.sqrt(2.0 / k) * xs * out[k - 1] - np.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def chi_states(family: IsospectralFamily, n_levels: int) -> list[GridWavefunction]:
    """Deformed eigenstates, renormalized on the grid.

    chi_0 carries the closed-form prefactor sqrt(lam(lam+1)); higher
    levels get the correction phi * (d/dx + x) psi_n / (2n), with the
    derivative taken by the centered 3-point stencil; all levels form one
    real array, each row normalized as by `GridWavefunction.normalized`
    (a complex row divided by its real norm is multiplied by the
    reciprocal, so the rows equal the complex route bit for bit).
    """
    if n_levels > MAX_LEVELS:
        raise ValueError("grid accuracy budget covers at most 12 levels")
    xs, dx, lam = family.xs, family.dx, family.lam
    psis = hermite_levels(xs, n_levels)
    dpsis = np.gradient(psis, dx, axis=1, edge_order=2)
    ns = np.arange(1, n_levels, dtype=float)[:, None]
    values = np.empty((n_levels, xs.size))
    values[0] = np.sqrt(lam * (lam + 1.0)) * family.psi0 / (lam + family.cumulative)
    values[1:] = psis[1:] + family.phi_lambda * (dpsis[1:] + xs * psis[1:]) / (2.0 * ns)
    values *= 1.0 / np.sqrt(np.sum(np.abs(values) ** 2, axis=1) * dx)[:, None]
    return [GridWavefunction(xs[0], dx, row) for row in values]


def deformed_potential(family: IsospectralFamily) -> np.ndarray:
    """Potential of the deformed Hamiltonian, E0 = 1/2 included.

    The derivative of the deformation obeys its own first-order identity
    phi' = -2x phi - phi^2, which is used directly instead of a stencil.
    """
    w_hat = family.xs + family.phi_lambda
    dphi = -2.0 * family.xs * family.phi_lambda - family.phi_lambda ** 2
    w_hat_prime = 1.0 + dphi
    return 0.5 * (w_hat * w_hat - w_hat_prime) + 0.5


@functools.lru_cache(maxsize=None)
def _bundled_lapack():
    """dstebz and dstein from `fock.bundled_lapack`, called as scipy.linalg.lapack's; else None."""
    if (found := bundled_lapack(dstebz=(2, 16), dstein=(0, 13))) is None:
        return None
    stebz, stein = found

    def dstebz(d, e, range_, vl, vu, il, iu, tol, order):
        n = d.size
        ints, reals = np.array([n, il, iu, 0, 0, 0], dtype=np.int64), np.array([vl, vu, tol])
        n_, il_, iu_, m, nsplit, info = (ints.ctypes.data + 8 * k for k in range(6))
        vl_, vu_, abstol = (reals.ctypes.data + 8 * k for k in range(3))
        w, work = np.empty(n), np.empty(4 * n)
        iblock, isplit, iwork = (np.empty(k, dtype=np.int64) for k in (n, n, 3 * n))
        stebz(b"AVI"[range_:range_ + 1], order.encode(), n_, vl_, vu_, il_, iu_, abstol,
              d, e, m, nsplit, w, iblock, isplit, work, iwork, info, 1, 1)
        return int(ints[3]), w, iblock, isplit, int(ints[5])

    def dstein(d, e, w, iblock, isplit):
        n, m = d.size, w.size
        ints = np.array([n, m, 0], dtype=np.int64)
        n_, m_, info = (ints.ctypes.data + 8 * k for k in range(3))
        # row j of this C-ordered (m, n) buffer is column j of the Fortran (n, m) result
        z, work = np.empty((m, n)), np.empty(5 * n)
        iwork, ifail = np.empty(n, dtype=np.int64), np.empty(m, dtype=np.int64)
        stein(n_, d, e, m_, w, iblock, isplit, z, n_, work, iwork, ifail, info)
        return z.T, int(ints[2])

    return dstebz, dstein


def spectral_check(family: IsospectralFamily, n_levels: int) -> list[float]:
    """Residuals of the low deformed spectrum against n + 1/2, from the
    finite-difference Hamiltonian T, tridiagonal on the grid.

    LAPACK's locate-and-refine pair (as behind dstevx): bisection (stebz)
    brackets eigenvalues 1 .. n_levels in intervals 1e-2 wide, which
    certifies their indices since the levels lie about 1 apart; inverse
    iteration (stein) then gives each eigenvector v, and the eigenvalue is
    the Rayleigh quotient v^T T v, applied in O(n).  A tolerance coarser
    than 1e-2 leaves more than roundoff in the quotient.
    """
    lapack = _bundled_lapack()
    if lapack is None:
        from scipy.linalg.lapack import dstebz, dstein
    else:
        dstebz, dstein = lapack
    dx = family.dx
    diag = 1.0 / (dx * dx) + deformed_potential(family)
    off = np.full(family.xs.size - 1, -0.5 / (dx * dx))
    tol = 1e-2
    found, approx, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 0.0, 1, n_levels, tol, "B")
    if info or found < n_levels:
        raise ArithmeticError(f"bisection located {found} of {n_levels} levels (info {info})")
    approx = approx[:n_levels]
    vecs, info = dstein(diag, off, approx, iblock, isplit)
    if info:
        raise ArithmeticError(f"inverse iteration did not converge (info {info})")
    t_vecs = diag[:, None] * vecs
    t_vecs[:-1] += off[:, None] * vecs[1:]
    t_vecs[1:] += off[:, None] * vecs[:-1]
    vals = np.einsum("ij,ij->j", vecs, t_vecs)
    if np.any(np.abs(vals - approx) > tol):
        raise ArithmeticError("a refined level left its bisection interval")
    return [float(abs(vals[n] - (n + 0.5))) for n in range(n_levels)]


# ------------------------------------------------------------- modal states


def modal_coherent_coeffs(z: complex, n_levels: int) -> np.ndarray:
    if abs(z) ** 2 + 6.0 * abs(z) > n_levels:
        raise ValueError("modal tail does not fit in the level budget")
    return coherent_ladder(z, n_levels).amps


def modal_squeezed_coeffs(xi: complex, z: complex, n_levels: int) -> np.ndarray:
    """Coefficients of S(xi) D(z) applied to the modal ground state."""
    if abs(xi) > 0.75:
        raise ValueError("squeeze magnitude beyond the level budget")
    ns = np.arange(n_levels, dtype=float)
    displaced = ladder_exp_action(np.sqrt(ns), 1, z, fock_basis_state(n_levels, 0).amps)
    coeffs = squeeze_action(xi, displaced)
    return coeffs / np.linalg.norm(coeffs)


def modal_eigen_residual(coeffs: np.ndarray, z: complex) -> float:
    a, _ = build_ladder(coeffs.size)
    return float(np.linalg.norm(a @ coeffs - z * coeffs))


def assemble(family: IsospectralFamily, coeffs: np.ndarray) -> GridWavefunction:
    """The grid wavefunction sum_n coeffs[n] chi_n, one term per modal
    coefficient, renormalized on the grid."""
    chis = chi_states(family, coeffs.size)
    values = np.zeros(family.xs.size, dtype=complex)
    for c, chi in zip(coeffs, chis):
        values += c * chi.values
    return GridWavefunction(family.xs[0], family.dx, values).normalized()
