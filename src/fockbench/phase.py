"""Exponential-phase operators and the ladder algebras built on them.

The one-sided shift G- (entries 1 on the superdiagonal) plays the role of
e^{i phi}; its defect of unitarity is the vacuum projector.  Number-weighted
versions R+- and their m-step generalizations Omega_m close su(1,1)-type
commutation relations on interior projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    FockState,
    fock_basis_state,
    ladder_exp_action,
    ladder_moments,
    log_series,
    number_operator,
    quadrature_moments,
    quadrature_report,
)

__all__ = [
    "PhaseOperatorSet",
    "OmegaLadder",
    "build_phase_set",
    "number_phase_uncertainty",
    "build_R_ops",
    "build_omega_ops",
    "phase_squeezed_vacuum",
]


@dataclass(frozen=True)
class PhaseOperatorSet:
    dim: int
    gamma_minus: np.ndarray
    gamma_plus: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray


@dataclass(frozen=True)
class OmegaLadder:
    m: int
    dim: int
    omega_minus: np.ndarray
    omega_plus: np.ndarray


def _shift_down(dim: int) -> np.ndarray:
    g = np.zeros((dim, dim), dtype=complex)
    g[np.arange(dim - 1), np.arange(1, dim)] = 1.0
    return g


def build_phase_set(dim: int) -> PhaseOperatorSet:
    """Phase operators G-, G+ and the Hermitian cos/sin combinations.

    The sine uses (G+ - G-)/(2i); with this choice both combinations are
    Hermitian and satisfy the expected commutation with N on the interior.
    """
    if dim < 3:
        raise ValueError("dim must be at least 3")
    gm = _shift_down(dim)
    gp = gm.conj().T
    cos_phi = (gp + gm) / 2.0
    sin_phi = (gp - gm) / 2j
    return PhaseOperatorSet(dim, gm, gp, cos_phi, sin_phi)


def number_phase_uncertainty(s: FockState) -> tuple[float, float, float, float]:
    """Number-phase uncertainty products and their lower bounds.

    Returns (dcos * dN, |<sin>|/2, dsin * dN, |<cos>|/2).  cos phi and
    sin phi are the quadratures x and -p of L = G- scaled by 1/sqrt2.
    """
    mx, mp, vx, vp = quadrature_moments(ladder_moments(s.amps, np.arange(s.dim) > 0))
    mean_cos, mean_sin = mx / np.sqrt(2.0), -mp / np.sqrt(2.0)
    d_n = float(np.sqrt(max(quadrature_report(s).var_n, 0.0)))
    d_cos = float(np.sqrt(max(vx / 2.0, 0.0)))
    d_sin = float(np.sqrt(max(vp / 2.0, 0.0)))
    return d_cos * d_n, abs(mean_sin) / 2.0, d_sin * d_n, abs(mean_cos) / 2.0


def build_R_ops(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Number-weighted shifts R+|n> = (n+1)|n+1>, R-|n> = n|n-1>."""
    if dim < 3:
        raise ValueError("dim must be at least 3")
    ops = build_phase_set(dim)
    n_op = number_operator(dim)
    return n_op @ ops.gamma_plus, ops.gamma_minus @ n_op


def _check_step(m: int, dim: int) -> None:
    if not 1 <= m <= dim // 4:
        raise ValueError("ladder step m out of range for this dim")


def build_omega_ops(m: int, dim: int) -> OmegaLadder:
    """m-step ladder Omega_m-|n> = n|n-m>, built as (G-)^m N.

    The other ordering of the definition, (N + m)(G-)^m, gives the same
    matrix entry for entry; the tests hold the two against each other.
    """
    _check_step(m, dim)
    ops = build_phase_set(dim)
    n_op = number_operator(dim)
    gm_pow = np.linalg.matrix_power(ops.gamma_minus, m)
    omega_minus = gm_pow @ n_op
    return OmegaLadder(m, dim, omega_minus, omega_minus.conj().T)


def omega_commutator_defect(ladder: OmegaLadder) -> float:
    """Interior defect of [Omega-, Omega+] = m(2N + m).

    The relation holds exactly for m <= n < dim - m.  The top m rows are
    clipped by truncation; rows 1..m-1 miss the down-then-up path because
    Omega- annihilates them, so both ends are excluded.
    """
    m, dim = ladder.m, ladder.dim
    comm = ladder.omega_minus @ ladder.omega_plus - ladder.omega_plus @ ladder.omega_minus
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
    amps[::m] = log_series(np.zeros((dim - 1) // m + 1), np.tanh(r) * np.exp(1j * phi))
    return FockState(amps)
