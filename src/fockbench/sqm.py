"""Isospectral deformation of the oscillator on a spatial grid.

The superpotential W(x) = x is deformed by phi_lambda(x), the logarithmic
derivative of a one-parameter family of ground states.  The deformed
Hamiltonian shares the oscillator spectrum; its eigenstates chi_n follow
from the originals by a closed-form correction.  Coherent and squeezed
analogues live in the modal basis {chi_n} and are handled through the
ordinary ladder matrix, which has identical matrix elements there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .coherent import coherent_amplitudes
from .fock import GridWavefunction, build_ladder, fock_basis_state, ladder_exp_action
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
    "lambda_coherent",
    "lambda_squeezed",
]

GRID_MIN = -10.0
GRID_MAX = 10.0
GRID_POINTS = 2001
MAX_LEVELS = 12


@dataclass(frozen=True)
class IsospectralFamily:
    lam: float
    xs: np.ndarray
    W: np.ndarray
    psi0: np.ndarray
    cumulative: np.ndarray
    phi_lambda: np.ndarray
    E0: float = 0.5

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
    if xs.size < GRID_POINTS or xs[0] > GRID_MIN or xs[-1] < GRID_MAX:
        raise ValueError("grid must span at least [-10, 10] with 2001 points")
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
        W=xs.copy(),
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
    levels get the correction phi * (d/dx + W) psi_n / (2n), with the
    derivative taken by the centered 3-point stencil.
    """
    if n_levels > MAX_LEVELS:
        raise ValueError("grid accuracy budget covers at most 12 levels")
    xs, dx = family.xs, family.dx
    psis = hermite_levels(xs, n_levels)
    lam = family.lam
    states: list[GridWavefunction] = []
    chi0 = np.sqrt(lam * (lam + 1.0)) * family.psi0 / (lam + family.cumulative)
    states.append(GridWavefunction(xs[0], dx, chi0).normalized())
    for n in range(1, n_levels):
        dpsi = np.gradient(psis[n], dx, edge_order=2)
        correction = family.phi_lambda * (dpsi + family.W * psis[n]) / (2.0 * n)
        states.append(GridWavefunction(xs[0], dx, psis[n] + correction).normalized())
    return states


def deformed_potential(family: IsospectralFamily) -> np.ndarray:
    """Potential of the deformed Hamiltonian, E0 included.

    The derivative of the deformation obeys its own first-order identity
    phi' = -2x phi - phi^2, which is used directly instead of a stencil.
    """
    w_hat = family.W + family.phi_lambda
    dphi = -2.0 * family.xs * family.phi_lambda - family.phi_lambda ** 2
    w_hat_prime = 1.0 + dphi
    return 0.5 * (w_hat * w_hat - w_hat_prime) + family.E0


def spectral_check(family: IsospectralFamily, n_levels: int) -> tuple[list[float], list[float]]:
    """Low part of the deformed spectrum against n + 1/2.

    Returns (eigenvalue residuals, eigenvector fidelities vs chi_n).
    """
    xs, dx = family.xs, family.dx
    v = deformed_potential(family)
    diag = 1.0 / (dx * dx) + v
    off = np.full(xs.size - 1, -0.5 / (dx * dx))
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    chis = chi_states(family, n_levels)
    residuals = [float(abs(vals[n] - (n + 0.5))) for n in range(n_levels)]
    fidelities = []
    for n in range(n_levels):
        grid_vec = vecs[:, n] / np.sqrt(dx)
        overlap = np.sum(grid_vec * chis[n].values.real) * dx
        fidelities.append(float(overlap ** 2))
    return residuals, fidelities


# ------------------------------------------------------------- modal states


def modal_coherent_coeffs(z: complex, n_levels: int) -> np.ndarray:
    if abs(z) ** 2 + 6.0 * abs(z) > n_levels:
        raise ValueError("modal tail does not fit in the level budget")
    return coherent_amplitudes(z, n_levels)


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


def _assemble(family: IsospectralFamily, coeffs: np.ndarray, n_levels: int) -> GridWavefunction:
    chis = chi_states(family, n_levels)
    values = np.zeros(family.xs.size, dtype=complex)
    for c, chi in zip(coeffs, chis):
        values += c * chi.values
    return GridWavefunction(family.xs[0], family.dx, values).normalized()


def lambda_coherent(z: complex, family: IsospectralFamily, n_levels: int) -> GridWavefunction:
    return _assemble(family, modal_coherent_coeffs(z, n_levels), n_levels)


def lambda_squeezed(
    xi: complex, z: complex, family: IsospectralFamily, n_levels: int
) -> GridWavefunction:
    return _assemble(family, modal_squeezed_coeffs(xi, z, n_levels), n_levels)
