"""Isospectral deformation of the oscillator on a spatial grid."""

import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from fockbench.fock import FockState, quadrature_report
from fockbench.sqm import (
    MAX_LEVELS,
    build_family,
    chi_states,
    deformed_potential,
    hermite_levels,
    lambda_coherent,
    lambda_squeezed,
    modal_coherent_coeffs,
    modal_eigen_residual,
    modal_squeezed_coeffs,
    spectral_check,
)


def test_family_rejects_pole_interval():
    for lam in (-1.0, -0.5, 0.0):
        with pytest.raises(ValueError):
            build_family(lam)


def test_deformation_profile():
    fam = build_family(1.0)
    assert fam.phi_lambda.max() > 1e-3
    # phi is bounded by psi0(0)^2 / lambda everywhere
    assert np.abs(fam.phi_lambda).max() <= np.pi ** -0.5 / 1.0 + 1e-12
    fam_large = build_family(1e6)
    assert np.abs(fam_large.phi_lambda).max() <= np.pi ** -0.5 / 1e6 + 1e-15


@pytest.mark.parametrize("lam", [-2.0, 1.0, 5.0])
def test_deformed_basis_orthonormal(lam):
    fam = build_family(lam)
    chis = chi_states(fam, MAX_LEVELS)
    vals = np.stack([chi.values.real for chi in chis])
    gram = vals @ vals.T * fam.dx
    assert np.abs(gram - np.eye(MAX_LEVELS)).max() <= 1e-5


def test_level_cap_enforced():
    fam = build_family(1.0)
    with pytest.raises(ValueError):
        chi_states(fam, MAX_LEVELS + 1)


@pytest.mark.parametrize("lam", [-2.0, 1.0, 5.0])
def test_deformed_potential_keeps_the_spectrum(lam):
    fam = build_family(lam)
    residuals, fidelities = spectral_check(fam, 6)
    assert max(residuals) <= 1e-3
    assert min(fidelities) >= 1.0 - 1e-6


def test_potential_differs_then_converges():
    xs = build_family(1.0).xs
    v_deformed = deformed_potential(build_family(1.0))
    assert np.abs(v_deformed - xs ** 2 / 2.0).max() >= 1e-2
    v_flat = deformed_potential(build_family(1e6))
    assert np.abs(v_flat - xs ** 2 / 2.0).max() <= 1e-4


def test_large_parameter_limit_restores_hermite_levels():
    fam = build_family(1e6)
    chis = chi_states(fam, 6)
    psis = hermite_levels(fam.xs, 6)
    for n in range(6):
        dist = np.sqrt(np.sum((chis[n].values.real - psis[n]) ** 2) * fam.dx)
        assert dist <= 1e-5


def test_modal_coherent_state():
    coeffs = modal_coherent_coeffs(0.5, MAX_LEVELS)
    assert abs(np.linalg.norm(coeffs) - 1.0) <= 1e-12
    assert modal_eigen_residual(coeffs, 0.5) <= 1e-6
    rep = quadrature_report(FockState(coeffs))
    assert abs(rep.product - 0.25) <= 1e-5
    with pytest.raises(ValueError):
        modal_coherent_coeffs(2.5, MAX_LEVELS)


def test_modal_squeezed_state():
    coeffs = modal_squeezed_coeffs(0.25, 0.3, MAX_LEVELS)
    rep = quadrature_report(FockState(coeffs))
    assert abs(rep.product - 0.25) <= 1e-5
    with pytest.raises(ValueError):
        modal_squeezed_coeffs(0.8, 0.0, MAX_LEVELS)


def test_assembled_states_are_grid_normalized():
    fam = build_family(1.0)
    wf = lambda_coherent(0.5, fam, MAX_LEVELS)
    assert abs(wf.norm - 1.0) <= 1e-10
    wf2 = lambda_squeezed(0.25, 0.3, fam, MAX_LEVELS)
    assert abs(wf2.norm - 1.0) <= 1e-10
    # different deformations share the modal profile but not the shape
    other = lambda_coherent(0.5, build_family(5.0), MAX_LEVELS)
    assert wf.l2_distance(other) >= 1e-3


@pytest.mark.parametrize(
    "lo, hi, points", [(-10.0, 10.0, 2001), (-12.0, 12.0, 2401), (-15.0, 15.0, 3001),
                       (-10.0, 10.0, 4001)]
)
def test_cumulative_density_equals_scipy_trapezoid(lo, hi, points):
    xs = np.linspace(lo, hi, points)
    fam = build_family(1.0, xs)
    assert np.array_equal(fam.cumulative, cumulative_trapezoid(fam.psi0 ** 2, xs, initial=0.0))


def test_cli_import_leaves_out_scipy_integrate():
    code = "import sys, fockbench.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
