"""Coherent states: ladder expansion, displacement operator, spatial
wavefunction and harmonic time evolution.

Amplitude convention: <0|alpha> is real positive.  All factorials go
through log-gamma, and the ladder expansion through `fock.log_series`.
"""

from __future__ import annotations

import numpy as np

from .fock import (
    FockState,
    GridWavefunction,
    ladder_exp_dense,
    log_gamma,
    log_series,
)


def coherent_ladder(alpha: complex, dim: int) -> FockState:
    """Coherent state by direct summation: amplitudes alpha^n / sqrt(n!),
    renormalized on the dim-level basis."""
    return FockState(log_series(-0.5 * log_gamma(np.arange(dim) + 1.0), alpha))


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    return ladder_exp_dense(np.sqrt(np.arange(dim, dtype=float)), 1, alpha)


def coherent_wavefunction(alpha: complex, xs: np.ndarray) -> GridWavefunction:
    """Coordinate-space Gaussian of the coherent state, grid normalized."""
    xs = np.asarray(xs, dtype=float)
    dx = float(xs[1] - xs[0])
    mean_x = np.sqrt(2.0) * alpha.real
    # the squeezed profile's rule at s = 1: steps of at most 2 over [<x> - 8, <x> + 8]
    if xs[0] > mean_x - 8.0 or xs[-1] < mean_x + 8.0 or not dx <= 2.0:
        raise ValueError(f"grid [{xs[0]:g}, {xs[-1]:g}] in steps of {dx:g} must cover "
                         f"[{mean_x - 8.0:g}, {mean_x + 8.0:g}] in steps of at most 2")
    psi = np.pi ** -0.25 * np.exp(
        -xs * xs / 2.0 + np.sqrt(2.0) * alpha * xs - alpha * alpha / 2.0 - abs(alpha) ** 2 / 2.0
    )
    return GridWavefunction(float(xs[0]), dx, psi).normalized()


def evolve_coherent(alpha0: complex, t: float, dim: int) -> FockState:
    """Harmonic evolution (omega = 1): a rotating label and a global phase."""
    base = coherent_ladder(np.exp(-1j * t) * alpha0, dim)
    return FockState(np.exp(-1j * t / 2.0) * base.amps)


def classical_trajectory(alpha0: complex, ts: np.ndarray) -> np.ndarray:
    """Mean position sqrt2 |alpha0| cos(t - arg alpha0) on the grid."""
    ts = np.asarray(ts, dtype=float)
    if ts.size >= 3:
        steps = np.diff(ts)
        if not np.allclose(steps, steps[0]):
            raise ValueError("time grid must be uniform")
    return np.sqrt(2.0) * abs(alpha0) * np.cos(ts - np.angle(alpha0))
