"""Isospectral deformation of the oscillator on a spatial grid."""

import ctypes
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import eigh_tridiagonal, lapack
from scipy.linalg.lapack import dstein

from fockbench import sqm
from fockbench.fock import FockState, GridWavefunction, quadrature_report
from fockbench.sqm import (
    MAX_LEVELS,
    IsospectralFamily,
    assemble,
    build_family,
    chi_states,
    deformed_potential,
    hermite_levels,
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
    gram = chis @ chis.T * fam.dx
    assert np.abs(gram - np.eye(MAX_LEVELS)).max() <= 1e-5


def test_level_cap_enforced():
    fam = build_family(1.0)
    with pytest.raises(ValueError):
        chi_states(fam, MAX_LEVELS + 1)


@pytest.mark.parametrize("lam", [-2.0, 1.0, 5.0])
def test_deformed_potential_keeps_the_spectrum(lam):
    fam = build_family(lam)
    assert max(spectral_check(fam, 6)) <= 1e-3
    # the eigenvectors of the finite-difference Hamiltonian are the chi_n
    dx = fam.dx
    _, vecs = eigh_tridiagonal(
        1.0 / (dx * dx) + deformed_potential(fam),
        np.full(fam.xs.size - 1, -0.5 / (dx * dx)),
        select="i",
        select_range=(0, 5),
    )
    chis = chi_states(fam, 6)
    fidelities = [(np.sum(vecs[:, n] * chis[n]) / np.sqrt(dx) * dx) ** 2
                  for n in range(6)]
    assert min(fidelities) >= 1.0 - 1e-6


@pytest.mark.parametrize("lam", [-2.0, 1.0, 5.0, 1e6])
@pytest.mark.parametrize("n_levels", [1, 2, 6, MAX_LEVELS])
def test_batched_chi_states_equal_a_per_level_loop(lam, n_levels):
    fam = build_family(lam)
    dx = fam.dx
    psis = hermite_levels(fam.xs, n_levels)
    chi0 = np.sqrt(lam * (lam + 1.0)) * fam.psi0 / (lam + fam.cumulative)
    want = [GridWavefunction(fam.xs[0], dx, chi0).normalized()]
    for n in range(1, n_levels):
        dpsi = np.gradient(psis[n], dx, edge_order=2)
        correction = fam.phi_lambda * (dpsi + fam.xs * psis[n]) / (2.0 * n)
        want.append(GridWavefunction(fam.xs[0], dx, psis[n] + correction).normalized())
    got = chi_states(fam, n_levels)
    assert got.shape == (n_levels, fam.xs.size)
    for g, w in zip(got, want):
        assert np.array_equal(g, w.values)


@pytest.mark.parametrize("lam", [-2.0, 1.0, 5.0, 1e6])
@pytest.mark.parametrize("n_levels", [1, 6, MAX_LEVELS])
def test_real_chi_states_equal_the_complex_route(lam, n_levels):
    # the levels built and normalized as one complex array: a complex row
    # divided by its real norm is a multiply by the reciprocal
    fam = build_family(lam)
    xs, dx = fam.xs, fam.dx
    psis = hermite_levels(xs, n_levels)
    dpsis = np.gradient(psis, dx, axis=1, edge_order=2)
    ns = np.arange(1, n_levels, dtype=float)[:, None]
    want = np.empty((n_levels, xs.size), dtype=complex)
    want[0] = np.sqrt(lam * (lam + 1.0)) * fam.psi0 / (lam + fam.cumulative)
    want[1:] = psis[1:] + fam.phi_lambda * (dpsis[1:] + fam.xs * psis[1:]) / (2.0 * ns)
    want /= np.sqrt(np.sum(np.abs(want) ** 2, axis=1) * dx)[:, None]
    got = chi_states(fam, n_levels)
    assert got.dtype == float and got.shape == want.shape
    assert np.array_equal(got.astype(complex).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("lam", [-2.0, 0.3, 1.0, 5.0, 1e6])
def test_spectral_check_matches_full_precision_eigenvalues(lam):
    # bisection to 1e-2, inverse iteration and the Rayleigh quotient against
    # bisection to full precision; stebz's own tolerance is eps ||T||_1 ~ 4.4e-12
    fam = build_family(lam)
    dx = fam.dx
    vals = eigh_tridiagonal(
        1.0 / (dx * dx) + deformed_potential(fam),
        np.full(fam.xs.size - 1, -0.5 / (dx * dx)),
        eigvals_only=True,
        select="i",
        select_range=(0, 5),
    )
    want = np.abs(vals - (np.arange(6) + 0.5))
    assert np.abs(np.array(spectral_check(fam, 6)) - want).max() <= 1e-11


BUNDLED = sqm._bundled_lapack()
needs_bundled = pytest.mark.skipif(BUNDLED is None, reason="numpy bundles no OpenBLAS here")


def _route(monkeypatch, bundled):
    """Send spectral_check to numpy's bundled OpenBLAS or to scipy's LAPACK."""
    monkeypatch.setattr(sqm, "_bundled_lapack", lambda: BUNDLED if bundled else None)


@needs_bundled
@pytest.mark.parametrize("n_levels", [1, 6, 12])
@pytest.mark.parametrize("lam", [-2.0, 0.3, 1.0, 5.0, 1e6])
def test_spectral_check_is_bitwise_equal_on_both_lapack_routes(lam, n_levels, monkeypatch):
    fam = build_family(lam)
    _route(monkeypatch, True)
    bundled = np.array(spectral_check(fam, n_levels))
    _route(monkeypatch, False)
    scipy_route = np.array(spectral_check(fam, n_levels))
    assert np.array_equal(bundled.view(np.uint64), scipy_route.view(np.uint64))


@needs_bundled
def test_bundled_eigenvectors_keep_scipys_layout():
    # an (n, m) Fortran-ordered array, so the Rayleigh quotient sums in scipy's order
    fam = build_family(1.0)
    dx = fam.dx
    diag = 1.0 / (dx * dx) + deformed_potential(fam)
    off = np.full(fam.xs.size - 1, -0.5 / (dx * dx))
    dstebz, bundled_dstein = BUNDLED
    found, approx, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 0.0, 1, 6, 1e-2, "B")
    assert (found, info) == (6, 0)
    got, info = bundled_dstein(diag, off, approx[:6], iblock, isplit)
    want, want_info = dstein(diag, off, approx[:6], iblock, isplit)
    assert info == want_info == 0
    assert got.shape == want.shape == (fam.xs.size, 6)
    assert got.flags.f_contiguous and want.flags.f_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("missing", ["directory", "library", "symbol"])
def test_a_missing_library_or_symbol_falls_back_to_scipy(missing, tmp_path, monkeypatch):
    if missing == "directory":  # a numpy that bundles no numpy.libs
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    elif missing == "library":
        monkeypatch.setattr(ctypes, "CDLL", _no_library)
    else:  # a library that exports dstebz but not dstein
        real = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace(
            scipy_dstebz_64_=real(path).scipy_dstebz_64_))
    loader = sqm._bundled_lapack.__wrapped__
    assert loader() is None
    monkeypatch.setattr(sqm, "_bundled_lapack", loader)
    calls = []
    monkeypatch.setattr(lapack, "dstein", lambda *args: calls.append(args) or dstein(*args))
    assert max(spectral_check(build_family(1.0), 6)) <= 1e-3
    assert len(calls) == 1


@pytest.mark.parametrize("bundled", [pytest.param(True, marks=needs_bundled), False])
def test_more_levels_than_grid_points_raises_on_either_route(bundled, monkeypatch):
    full = build_family(1.0)
    keep = slice(995, 1000)
    fam = IsospectralFamily(full.lam, full.xs[keep], full.psi0[keep], full.cumulative[keep],
                            full.phi_lambda[keep])
    _route(monkeypatch, bundled)
    with pytest.raises(ArithmeticError, match=r"^bisection located 0 of 6 levels \(info -7\)$"):
        spectral_check(fam, 6)


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
        dist = np.sqrt(np.sum((chis[n] - psis[n]) ** 2) * fam.dx)
        assert dist <= 1e-5


def test_modal_coherent_state():
    coeffs = modal_coherent_coeffs(0.5, MAX_LEVELS)
    assert abs(np.linalg.norm(coeffs) - 1.0) <= 1e-12
    assert modal_eigen_residual(coeffs, 0.5) <= 1e-6
    rep = quadrature_report(FockState(coeffs))
    assert abs(rep["product"] - 0.25) <= 1e-5
    with pytest.raises(ValueError):
        modal_coherent_coeffs(2.5, MAX_LEVELS)


def test_modal_squeezed_state():
    coeffs = modal_squeezed_coeffs(0.25, 0.3, MAX_LEVELS)
    rep = quadrature_report(FockState(coeffs))
    assert abs(rep["product"] - 0.25) <= 1e-5
    with pytest.raises(ValueError):
        modal_squeezed_coeffs(0.8, 0.0, MAX_LEVELS)


def test_assembled_states_are_grid_normalized():
    fam = build_family(1.0)
    wf = assemble(fam, modal_coherent_coeffs(0.5, MAX_LEVELS))
    assert abs(wf.norm - 1.0) <= 1e-10
    wf2 = assemble(fam, modal_squeezed_coeffs(0.25, 0.3, MAX_LEVELS))
    assert abs(wf2.norm - 1.0) <= 1e-10
    # different deformations share the modal profile but not the shape
    other = assemble(build_family(5.0), modal_coherent_coeffs(0.5, MAX_LEVELS))
    assert np.sqrt(np.sum(np.abs(wf.values - other.values) ** 2) * wf.dx) >= 1e-3


@pytest.mark.parametrize(
    "lo, hi, points", [(-10.0, 10.0, 2001), (-12.0, 12.0, 2401), (-15.0, 15.0, 3001),
                       (-10.0, 10.0, 4001)]
)
def test_cumulative_density_equals_scipy_trapezoid(lo, hi, points):
    xs = np.linspace(lo, hi, points)
    fam = build_family(1.0, xs)
    assert np.array_equal(fam.cumulative, cumulative_trapezoid(fam.psi0 ** 2, xs, initial=0.0))


def test_family_refuses_a_grid_coarser_than_its_calibrated_step():
    # 3000 points cover [-10, 200] in steps of 0.07: psi0 would be built on a
    # grid the levels are not calibrated at
    with pytest.raises(ValueError, match="in steps of at most 0.01"):
        build_family(1.0, np.linspace(-10.0, 200.0, 3000))


def test_cli_import_leaves_out_scipy_integrate():
    code = "import sys, fockbench.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
