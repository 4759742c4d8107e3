"""Test-only coherent-state references: the closed-form overlap, the
displacement composition law and the completeness quadrature."""

import numpy as np

from fockbench.coherent import displacement_operator
from fockbench.fock import log_gamma


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
    half_log_fact = 0.5 * log_gamma(ns + 1.0)
    result = np.zeros((dim, dim), dtype=complex)
    for r in rs:
        log_mod = -r * r / 2.0 + ns * np.log(r) - half_log_fact
        amps = np.exp(log_mod)[None, :] * phase
        weight = r * (radius / n_r) * (2.0 * np.pi / n_phi)
        result += (amps.conj().T @ amps) * weight
    return result / np.pi
