"""SU(1,1) representation machinery and pair-coherent state families.

The abstract discrete-series representation with Bargmann index k acts on
an internal basis |k,0>..|k,dim-1>.  The two-mode families (pair coherent,
two-mode Perelomov, nonlinear and parity-pair states) live in a fixed
charge sector: every ket is |n+q, n> for charge q = <a+a - b+b>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .fock import FockState, TwoModeState, fock_basis_state, ladder_exp_action, log_series
from .twomode import ladders_sparse, number_diagonals, pair_ladder

__all__ = [
    "SU11Rep",
    "PairCoherentSpec",
    "su11_generators",
    "perelomov_state",
    "pair_coherent",
    "two_mode_perelomov",
    "nonlinear_pair_coherent",
    "parity_pair_state",
]


@dataclass(frozen=True)
class SU11Rep:
    k: float
    dim: int

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("Bargmann index must be positive")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")


@dataclass(frozen=True)
class PairCoherentSpec:
    """Pair eigenvalue zeta and charge q on `levels` pair excitations.

    The amplitude grid is rectangular (levels+q) x levels so the whole
    charge sector fits.
    """

    zeta: complex
    q: int
    levels: int

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("charge must be nonnegative")
        if self.levels < 2:
            raise ValueError("need at least two pair levels")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.levels + self.q, self.levels)


def su11_generators(rep: SU11Rep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrices K+, K-, K0 with K+|k,n> = sqrt((n+1)(2k+n))|k,n+1>."""
    dim, k = rep.dim, rep.k
    kplus = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(dim - 1)
    kplus[ns + 1, ns] = np.sqrt((ns + 1.0) * (2.0 * k + ns))
    kminus = kplus.conj().T
    k0 = np.diag(k + np.arange(dim, dtype=float)).astype(complex)
    return kplus, kminus, k0


def perelomov_kappa(xi: complex) -> complex:
    """Disc coordinate of the coset element exp(xi K+ - xi* K-)."""
    if xi == 0:
        return 0j
    return xi * np.tanh(abs(xi)) / abs(xi)


def perelomov_state(rep: SU11Rep, xi: complex) -> FockState:
    """Lowest-weight coherent state in closed form.

    amps_j = (1-|kappa|^2)^k sqrt(Gamma(j+2k)/(j! Gamma(2k))) kappa^j,
    identical to applying exp(xi K+ - xi* K-) to |k,0>.
    """
    kappa = perelomov_kappa(xi)
    if abs(kappa) >= 1.0 - 1e-6:
        raise ValueError("coset parameter too close to the unit circle")
    js = np.arange(rep.dim)
    return FockState(log_series(0.5 * (gammaln(js + 2.0 * rep.k) - gammaln(js + 1.0)), kappa))


def perelomov_exponential(rep: SU11Rep, xi: complex) -> FockState:
    """Same state by exponentiating the truncated generator (oracle
    route), with K-|k,n> = sqrt(n(2k+n-1))|k,n-1>."""
    ns = np.arange(rep.dim, dtype=float)
    weights = np.sqrt(ns * (2.0 * rep.k + ns - 1.0))
    out = ladder_exp_action(weights, 1, xi, fock_basis_state(rep.dim, 0).amps)
    return FockState(out).normalized()


def _charge_sector_state(coeffs: np.ndarray, q: int, levels: int) -> TwoModeState:
    """Place unit sector coefficients on the kets |n+q, n>."""
    amps = np.zeros((levels + q, levels), dtype=complex)
    amps[np.arange(levels) + q, np.arange(levels)] = coeffs
    return TwoModeState(amps)


def pair_coherent(spec: PairCoherentSpec) -> TwoModeState:
    """Simultaneous eigenstate of ab and of the charge a+a - b+b."""
    coeffs = _pair_sector_coeffs(spec.zeta, spec.q, spec.levels)
    return _charge_sector_state(coeffs, spec.q, spec.levels)


def pair_residuals(state: TwoModeState, zeta: complex, q: int) -> tuple[float, float]:
    """Norms of (ab - zeta)|psi> and (a+a - b+b - q)|psi>."""
    da, db = state.dims
    a1, a2 = ladders_sparse(da, db)
    vec = state.ravel()
    eig = (a1 @ (a2 @ vec)) - zeta * vec
    n1, n2 = number_diagonals(da, db)
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
    ns = np.arange(levels)
    coeffs = log_series(0.5 * (gammaln(ns + q + 1.0) - gammaln(ns + 1.0)), perelomov_kappa(xi))
    return _charge_sector_state(coeffs, q, levels)


def perelomov_nonlinear_residual(xi: complex, q: int, levels: int) -> float:
    """Residual of the nonlinear eigen-relation satisfied by the
    two-mode Perelomov state: [2/(2+q+N1+N2)] ab acts as multiplication
    by xi tanh|xi| / |xi|."""
    state = two_mode_perelomov(xi, q, levels)
    da, db = state.dims
    a1, a2 = ladders_sparse(da, db)
    vec = state.ravel()
    lowered = a1 @ (a2 @ vec)
    n1, n2 = number_diagonals(da, db)
    weighted = 2.0 / (2.0 + q + n1 + n2) * lowered
    return float(np.linalg.norm(weighted - perelomov_kappa(xi) * vec))


def nonlinear_pair_coherent(
    f: Callable[[int, int], float], zeta: complex, q: int, levels: int
) -> TwoModeState:
    """Charge-sector solution of f(N1, N2) ab |psi> = zeta |psi>.

    The eigen-equation induces a one-step recursion on the sector
    coefficients; f is evaluated at the target occupations (n+q, n).
    """
    coeffs = np.zeros(levels, dtype=complex)
    coeffs[0] = 1.0
    for n in range(levels - 1):
        fval = f(n + q, n)
        if fval == 0:
            raise ZeroDivisionError(f"nonlinearity vanishes at occupations ({n + q}, {n})")
        coeffs[n + 1] = zeta * coeffs[n] / (fval * np.sqrt((n + 1.0) * (n + q + 1.0)))
        # rescale to dodge overflow for strongly growing profiles
        peak = abs(coeffs[n + 1])
        if peak > 1e100:
            coeffs /= peak
    return _charge_sector_state(coeffs / np.linalg.norm(coeffs), q, levels)


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
    """Unit coefficients proportional to zeta^n / sqrt(n! (n+q)!)."""
    ns = np.arange(levels)
    return log_series(-0.5 * (gammaln(ns + 1.0) + gammaln(ns + q + 1.0)), zeta)
