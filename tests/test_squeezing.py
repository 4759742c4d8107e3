"""Single-mode squeezing: operator routes, moments, ordered splitting."""

import cmath

import numpy as np
import pytest

from fockbench.fock import build_ladder, quadrature_report
from fockbench.squeezing import (
    BogoliubovMap,
    SqueezeSpec,
    bogoliubov_apply,
    phase_squeezed_profile,
    phase_squeezed_state_SR,
    squeeze_operator,
    squeeze_operator_factored,
    squeezed_vacuum,
    squeezed_vacuum_closed_form,
    squeezed_wavefunction,
    su11_disentangle_general,
    theta_vacuum,
    theta_vacuum_residual,
    vacuum_moment_closed_form,
    vacuum_moment_u,
)

K0 = np.diag([0.5, -0.5]).astype(complex)
KP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
KM = np.array([[0.0, 0.0], [-1.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("r", [0.3, 0.8])
def test_mean_photons_and_variance_pair(r):
    dim = 96
    st = squeezed_vacuum(SqueezeSpec(r, 0.0, dim))
    probs = np.abs(st.amps) ** 2
    mean_n = probs @ np.arange(dim)
    assert abs(mean_n - np.sinh(r) ** 2) <= 1e-6
    rep = quadrature_report(st)
    assert abs(rep.var_x - np.exp(2 * r) / 2.0) <= 1e-7
    assert abs(rep.var_p - np.exp(-2 * r) / 2.0) <= 1e-7
    assert abs(rep.product - 0.25) <= 1e-7


def test_chain_route_equals_the_dense_column_at_dim_512():
    spec = SqueezeSpec(1.05, 0.3, 512)
    dense = squeeze_operator(spec)[:, 0]
    assert np.abs(squeezed_vacuum(spec).amps - dense / np.linalg.norm(dense)).max() <= 1e-13


def test_even_support_is_structural():
    st = squeezed_vacuum(SqueezeSpec(0.9, 1.1, 96))
    assert np.abs(st.amps[1::2]).max() <= 1e-14


@pytest.mark.parametrize("r,phi", [(0.3, 0.0), (0.8, 1.2), (1.2, -0.5)])
def test_closed_form_matches_operator_route(r, phi):
    spec = SqueezeSpec(r, phi, 96)
    assert squeezed_vacuum(spec).fidelity(squeezed_vacuum_closed_form(spec)) >= 1.0 - 1e-8


def test_unitarity_on_interior():
    dim = 96
    for r in (0.5, 1.5):
        s_op = squeeze_operator(SqueezeSpec(r, 0.7, dim))
        defect = np.abs((s_op.conj().T @ s_op - np.eye(dim))[:72, :72]).max()
        assert defect <= 1e-8


def test_factored_operator_matches_direct():
    dim = 96
    for r in (0.25, 0.5):
        spec = SqueezeSpec(r, 0.0, dim)
        direct = squeeze_operator(spec)
        factored = squeeze_operator_factored(spec)
        rows = int(dim / np.exp(2.0 * r))
        assert np.abs((direct - factored)[:rows, :rows]).max() <= 1e-8


def test_disentangle_against_two_by_two_representation():
    """Splitting coefficients validated in the faithful 2x2 matrix
    representation, where both sides are exact matrix products."""
    rng = np.random.default_rng(1123)
    worst = 0.0
    for _ in range(200):
        z0, zp, zm = (
            rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5) for _ in range(3)
        )
        coeffs = su11_disentangle_general(z0, zp, zm)
        lhs = _expm2(zp * KP + z0 * K0 + zm * KM)
        half = cmath.exp(0.5 * cmath.log(coeffs.gamma0))
        rhs = (
            (np.eye(2) + coeffs.gamma_plus * KP)
            @ np.diag([half, 1.0 / half])
            @ (np.eye(2) + coeffs.gamma_minus * KM)
        )
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-12


def _expm2(m: np.ndarray) -> np.ndarray:
    # closed-form 2x2 exponential through the characteristic roots
    tr = np.trace(m) / 2.0
    shifted = m - tr * np.eye(2)
    mu = cmath.sqrt(shifted[0, 1] * shifted[1, 0] + shifted[0, 0] ** 2)
    if abs(mu) < 1e-12:
        body = np.eye(2) + shifted
    else:
        body = np.cosh(mu) * np.eye(2) + (np.sinh(mu) / mu) * shifted
    return cmath.exp(tr) * body


def test_disentangle_specialization():
    coeffs = su11_disentangle_general(0.0, 0.4, -0.4)
    assert abs(coeffs.gamma0 - np.cosh(0.4) ** -2) <= 1e-14
    assert abs(coeffs.gamma_plus - np.tanh(0.4)) <= 1e-14
    assert abs(coeffs.gamma_minus + np.tanh(0.4)) <= 1e-14


def test_disentangle_rejects_vanishing_base():
    # with z0 = 0 and z+ z- = pi^2/4 the effective angle is i pi / 2 and
    # the common cosh factor vanishes: no ordered form exists there
    with pytest.raises(ZeroDivisionError):
        su11_disentangle_general(0.0, np.pi / 2.0, np.pi / 2.0)


def test_theta_vacuum_is_annihilated():
    assert theta_vacuum_residual(0.6, 96) <= 1e-8


def test_theta_vacuum_even_geometric_profile():
    st = theta_vacuum(0.6, 96)
    probs = np.abs(st.amps) ** 2
    assert np.abs(st.amps[1::2]).max() == 0.0
    ratio = probs[4] / probs[2]
    # P(2j) follows (2j)! / (j! 2^j)^2 tanh^{2j}; the 4:2 ratio is fixed
    assert ratio == pytest.approx(0.75 * np.tanh(0.6) ** 2, rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vacuum_moments_match_closed_form(n):
    for th in (0.3, 0.6):
        numeric = vacuum_moment_u(th, n, 64)
        closed = vacuum_moment_closed_form(th, n)
        assert abs(numeric - closed) <= 1e-7


def test_moment_recurrence_central_difference():
    h = 1e-4
    for n in (1, 2, 3):
        for th in (0.3, 0.6):
            lhs = (
                vacuum_moment_closed_form(th + h, n) - vacuum_moment_closed_form(th - h, n)
            ).real / (2 * h)
            low = (
                vacuum_moment_closed_form(th, n - 1).real
                if n > 1
                else np.cosh(th) ** -0.5
            )
            rhs = -0.5 * vacuum_moment_closed_form(th, n + 1).real + n * (2 * n - 1) * low
            assert abs(lhs - rhs) <= 1e-5


def test_number_shift_route_gives_geometric_profile():
    for beta in (0.4, 0.5 * np.exp(0.9j)):
        built = phase_squeezed_state_SR(beta, 96)
        profile = phase_squeezed_profile(beta, 96)
        assert built.fidelity(profile) >= 1.0 - 1e-7
    with pytest.raises(ValueError):
        phase_squeezed_state_SR(1.0, 32)


def test_bogoliubov_map():
    bmap = BogoliubovMap(0.7)
    assert abs(bmap.determinant - 1.0) <= 1e-14
    combined = bmap.compose(BogoliubovMap(0.4))
    assert np.abs(combined.matrix - BogoliubovMap(1.1).matrix).max() <= 1e-12
    a, adag = build_ladder(64)
    a_th, adag_th = bogoliubov_apply(bmap, a, adag)
    comm = a_th @ adag_th - adag_th @ a_th
    assert np.abs((comm - np.eye(64))[:63, :63]).max() <= 1e-10


def test_squeezed_wavefunction_width():
    xs = np.linspace(-30, 30, 6001)
    for s in (0.5, 2.0):
        wf = squeezed_wavefunction(s, 0.0, 0.0, xs)
        dens = np.abs(wf.values) ** 2
        var = float(np.sum(wf.xs ** 2 * dens) * wf.dx)
        assert abs(var - s * s / 2.0) <= 1e-8
    with pytest.raises(ValueError):
        squeezed_wavefunction(-1.0, 0.0, 0.0, xs)
