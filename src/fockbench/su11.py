"""SU(1,1) representation machinery and pair-coherent state families.

The abstract discrete-series representation with Bargmann index k acts on
an internal basis |k,0>..|k,dim-1>.  The two-mode families (pair coherent,
two-mode Perelomov and parity-pair states) live in a fixed
charge sector: every ket is |n+q, n> for charge q = <a+a - b+b>.
"""

from __future__ import annotations

import numpy as np

from .fock import (
    FockState,
    TwoModeState,
    check_dim,
    fock_basis_state,
    ladder_exp_action,
    ladder_matrix,
    log_gamma,
    log_series,
)
from .twomode import band_apply, number_diagonals, pair_ladder

__all__ = [
    "su11_generators",
    "perelomov_state",
    "pair_coherent",
    "two_mode_perelomov",
    "parity_pair_state",
]


def _check_rep(k: float, dim: int) -> None:
    if k <= 0:
        raise ValueError("Bargmann index must be positive")
    check_dim(dim)


def _lowering_weights(k: float, dim: int) -> np.ndarray:
    """K-|k,n> = sqrt(n(2k+n-1))|k,n-1> as the weights of a `(weights, 1)` ladder."""
    _check_rep(k, dim)
    ns = np.arange(dim, dtype=float)
    return np.sqrt(ns * (2.0 * k + ns - 1.0))


def su11_generators(k: float, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrices K+, K-, K0 of the discrete series with Bargmann index k."""
    kminus = ladder_matrix(_lowering_weights(k, dim), 1)
    k0 = np.diag(k + np.arange(dim, dtype=float)).astype(complex)
    return kminus.conj().T, kminus, k0


def perelomov_kappa(xi: complex) -> complex:
    """Disc coordinate of the coset element exp(xi K+ - xi* K-)."""
    if xi == 0:
        return 0j
    return xi * np.tanh(abs(xi)) / abs(xi)


def perelomov_series(k: float, kappa: complex, n: int) -> np.ndarray:
    """Unit vector c_j proportional to sqrt(Gamma(j+2k)/j!) kappa^j, j < n:
    the lowest-weight profile with Bargmann index k, geometric at k = 1/2."""
    js = np.arange(n)
    return log_series(0.5 * (log_gamma(js + 2.0 * k) - log_gamma(js + 1.0)), kappa)


def perelomov_state(k: float, xi: complex, dim: int) -> FockState:
    """Lowest-weight coherent state in closed form: `perelomov_series` at
    kappa = perelomov_kappa(xi), which (1-|kappa|^2)^k / sqrt(Gamma(2k))
    normalizes untruncated; identical to applying exp(xi K+ - xi* K-) to |k,0>.
    """
    _check_rep(k, dim)
    kappa = perelomov_kappa(xi)
    if abs(kappa) >= 1.0 - 1e-6:
        raise ValueError("coset parameter too close to the unit circle")
    return FockState(perelomov_series(k, kappa, dim))


def perelomov_exponential(k: float, xi: complex, dim: int) -> FockState:
    """Same state by exponentiating the truncated generator (oracle route)."""
    out = ladder_exp_action(_lowering_weights(k, dim), 1, xi, fock_basis_state(dim, 0).amps)
    return FockState(out).normalized()


def _charge_sector_state(coeffs: np.ndarray, q: int, levels: int) -> TwoModeState:
    """Place unit sector coefficients on the kets |n+q, n>, a rectangular
    (levels+q) x levels grid so that the whole charge sector fits."""
    amps = np.zeros((levels + q, levels), dtype=complex)
    amps[np.arange(levels) + q, np.arange(levels)] = coeffs
    return TwoModeState(amps)


def pair_coherent(zeta: complex, q: int, levels: int) -> TwoModeState:
    """Simultaneous eigenstate of ab, with eigenvalue zeta, and of the
    charge a+a - b+b = q, on `levels` pair excitations."""
    return _charge_sector_state(_pair_sector_coeffs(zeta, q, levels), q, levels)


def pair_residuals(state: TwoModeState, zeta: complex, q: int) -> tuple[float, float]:
    """Norms of (ab - zeta)|psi> and (a+a - b+b - q)|psi>."""
    vec = state.ravel()
    weights, step = pair_ladder(*state.dims)
    eig = band_apply({step: weights}, vec) - zeta * vec
    n1, n2 = number_diagonals(*state.dims)
    charge = (n1 - n2 - q) * vec
    return float(np.linalg.norm(eig)), float(np.linalg.norm(charge))


def two_mode_perelomov(xi: complex, q: int, levels: int) -> TwoModeState:
    """exp(xi a+b+ - xi* ab) applied to |q, 0>."""
    da, db = levels + q, levels
    weights, step = pair_ladder(da, db)
    vac = np.zeros(da * db, dtype=complex)
    vac[q * db] = 1.0
    out = ladder_exp_action(weights, step, xi, vac)
    return TwoModeState(out.reshape(da, db)).normalized()


def two_mode_perelomov_closed_form(xi: complex, q: int, levels: int) -> TwoModeState:
    """Closed form exp(tau a+b+)|q,0> with tau = xi tanh|xi| / |xi|."""
    kappa = perelomov_kappa(xi)
    return _charge_sector_state(perelomov_series((q + 1) / 2, kappa, levels), q, levels)


def perelomov_nonlinear_residual(xi: complex, q: int, levels: int) -> float:
    """Residual of the nonlinear eigen-relation satisfied by the
    two-mode Perelomov state: [2/(2+q+N1+N2)] ab acts as multiplication
    by xi tanh|xi| / |xi|."""
    state = two_mode_perelomov(xi, q, levels)
    vec = state.ravel()
    n1, n2 = number_diagonals(*state.dims)
    weights, step = pair_ladder(*state.dims)
    weighted = 2.0 / (2.0 + q + n1 + n2) * band_apply({step: weights}, vec)
    return float(np.linalg.norm(weighted - perelomov_kappa(xi) * vec))


def parity_pair_state(zeta: complex, q: int, levels: int) -> TwoModeState:
    """Pair-type state with the alternating sign (-1)^(n(n-1)/2)."""
    ns = np.arange(levels)
    signs = np.where((ns * (ns - 1) // 2) % 2 == 0, 1.0, -1.0)
    coeffs = signs * _pair_sector_coeffs(zeta, q, levels)
    return _charge_sector_state(coeffs, q, levels)


def parity_pair_superposition(zeta: complex, q: int, levels: int) -> TwoModeState:
    """Equal-weight superposition of the pair states at +i zeta and
    -i zeta with phases exp(-+ i pi/4), built from the same coefficient
    sequence as the parity-pair state itself."""
    up = _pair_sector_coeffs(1j * zeta, q, levels)
    down = _pair_sector_coeffs(-1j * zeta, q, levels)
    coeffs = np.exp(-1j * np.pi / 4.0) * up + np.exp(1j * np.pi / 4.0) * down
    return _charge_sector_state(coeffs / np.linalg.norm(coeffs), q, levels)


def _pair_sector_coeffs(zeta: complex, q: int, levels: int) -> np.ndarray:
    """Unit coefficients proportional to zeta^n / sqrt(n! (n+q)!), for the
    pair, parity-pair and superposition states alike."""
    if q < 0:
        raise ValueError("charge must be nonnegative")
    if levels < 2:
        raise ValueError("need at least two pair levels")
    ns = np.arange(levels)
    return log_series(-0.5 * (log_gamma(ns + 1.0) + log_gamma(ns + q + 1.0)), zeta)
