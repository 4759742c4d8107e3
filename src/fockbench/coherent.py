"""Coherent states: ladder expansion, displacement operator, statistics,
overlaps, completeness quadrature and harmonic time evolution.

Amplitude convention: <0|alpha> is real positive.  All factorials go
through log-gamma, and the ladder expansion through `fock.log_series`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .fock import (
    FockState,
    GridWavefunction,
    build_ladder,
    log_series,
    matrix_exponential,
)

__all__ = [
    "CoherentSpec",
    "EvolutionSpec",
    "coherent_amplitudes",
    "coherent_ladder",
    "displacement_operator",
    "displacement_compose",
    "overlap_analytic",
    "completeness_quadrature",
    "coherent_wavefunction",
    "evolve_coherent",
    "classical_trajectory",
]


@dataclass(frozen=True)
class CoherentSpec:
    alpha: complex
    dim: int


@dataclass(frozen=True)
class EvolutionSpec:
    alpha0: complex
    t: float
    omega: float = 1.0


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Amplitudes a^n / sqrt(n!), renormalized on the dim-level basis."""
    return log_series(-0.5 * gammaln(np.arange(dim) + 1.0), alpha)


def coherent_ladder(spec: CoherentSpec) -> FockState:
    """Coherent state by direct summation, renormalized on the basis."""
    return FockState(coherent_amplitudes(spec.alpha, spec.dim))


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    a, adag = build_ladder(dim)
    return matrix_exponential(alpha * adag - np.conj(alpha) * a)


def displacement_compose(alpha: complex, beta: complex, dim: int) -> tuple[complex, float]:
    """Composition law for two successive displacements.

    Returns the unit phase exp((alpha beta* - alpha* beta)/2) and the
    interior residual of D(alpha) D(beta) = phase * D(alpha+beta).  The
    residual is evaluated on the bottom half of the basis, where the
    truncated exponentials agree with their infinite-dimensional limits;
    columns nearer the truncation edge couple to removed basis elements
    and are excluded by contract.
    """
    phase = np.exp((alpha * np.conj(beta) - np.conj(alpha) * beta) / 2.0)
    prod = displacement_operator(alpha, dim) @ displacement_operator(beta, dim)
    direct = displacement_operator(alpha + beta, dim)
    m = dim // 2
    residual = float(np.abs(prod[:m, :m] - phase * direct[:m, :m]).max())
    return complex(phase), residual


def overlap_analytic(alpha: complex, alphap: complex) -> complex:
    """Closed-form overlap <alpha|alpha'> including its phase."""
    return complex(
        np.exp(-abs(alpha) ** 2 / 2.0 - abs(alphap) ** 2 / 2.0 + np.conj(alpha) * alphap)
    )


def completeness_quadrature(radius: float, n_r: int, n_phi: int, dim: int) -> np.ndarray:
    """Discretized resolution of identity (1/pi) Int |a><a| d^2a.

    Polar midpoint rule over a disc of the given radius.  The projected
    amplitudes are used as-is (no renormalization): a coherent state whose
    Poisson peak lies beyond the truncation must contribute almost nothing
    to the low-lying block, and renormalizing would instead inflate it.
    """
    if n_r < 64 or n_phi < 64:
        raise ValueError("quadrature grid too coarse for a meaningful check")
    ns = np.arange(dim)
    rs = (np.arange(n_r) + 0.5) * (radius / n_r)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    phase = np.exp(1j * np.outer(phis, ns))
    result = np.zeros((dim, dim), dtype=complex)
    for r in rs:
        log_mod = -r * r / 2.0 + ns * np.log(r) - 0.5 * gammaln(ns + 1.0)
        amps = np.exp(log_mod)[None, :] * phase
        weight = r * (radius / n_r) * (2.0 * np.pi / n_phi)
        result += (amps.conj().T @ amps) * weight
    return result / np.pi


def coherent_wavefunction(alpha: complex, xs: np.ndarray) -> GridWavefunction:
    """Coordinate-space Gaussian of the coherent state, grid normalized."""
    xs = np.asarray(xs, dtype=float)
    mean_x = np.sqrt(2.0) * alpha.real
    if xs[0] > mean_x - 8.0 or xs[-1] < mean_x + 8.0:
        raise ValueError("grid must cover [<x>-8, <x>+8]")
    psi = np.pi ** -0.25 * np.exp(
        -xs * xs / 2.0 + np.sqrt(2.0) * alpha * xs - alpha * alpha / 2.0 - abs(alpha) ** 2 / 2.0
    )
    wf = GridWavefunction(float(xs[0]), float(xs[1] - xs[0]), psi)
    return wf.normalized()


def evolve_coherent(spec: EvolutionSpec, dim: int) -> FockState:
    """Harmonic evolution: a rotating label and a global phase."""
    rotated = np.exp(-1j * spec.omega * spec.t) * spec.alpha0
    base = coherent_ladder(CoherentSpec(rotated, dim))
    return FockState(np.exp(-1j * spec.omega * spec.t / 2.0) * base.amps)


def classical_trajectory(alpha0: complex, ts: np.ndarray) -> np.ndarray:
    """Mean position sqrt2 |alpha0| cos(omega t - arg alpha0) on the grid."""
    ts = np.asarray(ts, dtype=float)
    if ts.size >= 3:
        steps = np.diff(ts)
        if not np.allclose(steps, steps[0]):
            raise ValueError("time grid must be uniform")
    return np.sqrt(2.0) * abs(alpha0) * np.cos(ts - np.angle(alpha0))
