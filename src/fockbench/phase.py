"""Exponential-phase operators and the ladder algebras built on them.

The one-sided shift G- (entries 1 on the superdiagonal) plays the role of
e^{i phi}; its defect of unitarity is the vacuum projector.  The
number-weighted m-step ladders Omega_m, with R+- = Omega_1+- the one-step
case, close su(1,1)-type commutation relations on interior projectors.
"""

from __future__ import annotations

import numpy as np

from .fock import (
    FockState,
    fock_basis_state,
    ladder_exp_action,
    ladder_matrix,
    ladder_moments,
    number_moments,
    number_operator,
    quadrature_moments,
)
from .su11 import perelomov_series


def build_phase_set(dim: int) -> np.ndarray:
    """Phase operator G-, with G-|n> = |n-1>; cos phi = (G+ + G-)/2 and
    sin phi = (G+ - G-)/(2i), for G+ = (G-)+, are its Hermitian combinations."""
    if dim < 3:
        raise ValueError("dim must be at least 3")
    return ladder_matrix(np.ones(dim), 1)


def number_phase_uncertainty(s: FockState) -> tuple[float, float, float, float]:
    """Number-phase uncertainty products and their lower bounds.

    Returns (dcos * dN, |<sin>|/2, dsin * dN, |<cos>|/2).  cos phi and
    sin phi are the quadratures x and -p of L = G- scaled by 1/sqrt2.
    """
    mx, mp, vx, vp = quadrature_moments(ladder_moments(s.amps, np.arange(s.dim) > 0))
    mean_cos, mean_sin = mx / np.sqrt(2.0), -mp / np.sqrt(2.0)
    d_n = float(np.sqrt(max(number_moments(s)[1], 0.0)))
    d_cos = float(np.sqrt(max(vx / 2.0, 0.0)))
    d_sin = float(np.sqrt(max(vp / 2.0, 0.0)))
    return d_cos * d_n, abs(mean_sin) / 2.0, d_sin * d_n, abs(mean_cos) / 2.0


def _check_step(m: int, dim: int) -> None:
    if not 1 <= m <= dim // 4:
        raise ValueError("ladder step m out of range for this dim")


def build_omega_ops(m: int, dim: int) -> np.ndarray:
    """m-step ladder Omega_m-|n> = n|n-m>, with Omega_m+ = (Omega_m-)+; m = 1
    gives the number-weighted shifts R+|n> = (n+1)|n+1>, R-|n> = n|n-1>.

    Both orderings of the definition, (G-)^m N and (N + m)(G-)^m, give the
    same matrix entry for entry; the tests hold it against each.
    """
    _check_step(m, dim)
    return ladder_matrix(np.arange(dim, dtype=float), m)


def omega_commutator_defect(omega_minus: np.ndarray, m: int) -> float:
    """Interior defect of [Omega-, Omega+] = m(2N + m).

    The relation holds exactly for m <= n < dim - m.  The top m rows are
    clipped by truncation; rows 1..m-1 miss the down-then-up path because
    Omega- annihilates them, so both ends are excluded.
    """
    dim = omega_minus.shape[0]
    omega_plus = omega_minus.conj().T
    comm = omega_minus @ omega_plus - omega_plus @ omega_minus
    expected = m * (2.0 * number_operator(dim) + m * np.eye(dim))
    diff = comm - expected
    sl = slice(m, dim - m)
    return float(np.abs(diff[sl, sl]).max())


def phase_squeezed_vacuum(r: float, phi: float, m: int, dim: int) -> FockState:
    """exp(alpha Omega+ - alpha* Omega-)|0> with alpha = (r/m) e^{i phi}.

    This is the geometric profile sqrt(1 - beta^2) sum_n (beta e^{i phi})^n
    |mn> with beta = tanh r.  Omega-|n> = n|n-m> sets the chain weights.
    """
    _check_step(m, dim)
    alpha = (r / m) * np.exp(1j * phi)
    vac = fock_basis_state(dim, 0).amps
    return FockState(ladder_exp_action(np.arange(dim, dtype=float), m, alpha, vac)).normalized()


def phase_squeeze_closed_form(r: float, phi: float, m: int, dim: int) -> FockState:
    amps = np.zeros(dim, dtype=complex)
    amps[::m] = perelomov_series(0.5, np.tanh(r) * np.exp(1j * phi), (dim - 1) // m + 1)
    return FockState(amps)
