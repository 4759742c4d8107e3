"""Discrete-series ladder algebra and two-mode pair states."""

import numpy as np
import pytest

from fockbench.su11 import (
    pair_coherent,
    pair_residuals,
    perelomov_exponential,
    perelomov_kappa,
    perelomov_nonlinear_residual,
    perelomov_state,
    parity_pair_state,
    parity_pair_superposition,
    su11_generators,
    two_mode_perelomov,
    two_mode_perelomov_closed_form,
)


@pytest.mark.parametrize("k", [0.5, 0.75, 1.0, 2.0])
def test_generator_algebra(k):
    dim = 40
    kp, km, k0 = su11_generators(k, dim)
    sl = np.s_[: dim - 1, : dim - 1]
    assert np.abs((km @ kp - kp @ km - 2 * k0)[sl]).max() <= 1e-12
    assert np.abs((k0 @ kp - kp @ k0 - kp)[sl]).max() <= 1e-12
    assert np.abs((k0 @ km - km @ k0 + km)[sl]).max() <= 1e-12
    casimir = k0 @ k0 - (kp @ km + km @ kp) / 2.0
    assert np.abs((casimir - k * (k - 1) * np.eye(dim))[sl]).max() <= 1e-12


@pytest.mark.parametrize(
    "k, ulps",
    [(0.5, 0), (0.75, 0), (1.0, 0), (2.0, 0), (1 / 3, 2), (0.3, 2), (2.7, 2), (300.0, 2)],
)
def test_raising_entries_match_the_explicit_formula(k, ulps):
    # K+|k,n> = sqrt((n+1)(2k+n))|k,n+1>, written out independently of the
    # K- weights the generators are built from; exact at the pair suite's k
    dim = 40
    kp = su11_generators(k, dim)[0]
    ns = np.arange(dim - 1)
    want = np.sqrt((ns + 1.0) * (2.0 * k + ns))
    assert np.all(np.abs(kp[ns + 1, ns] - want) <= ulps * np.spacing(want))
    kp[ns + 1, ns] = 0.0
    assert not kp.any()


@pytest.mark.parametrize(
    "build",
    [
        su11_generators,
        lambda k, dim: perelomov_state(k, 0.3, dim),
        lambda k, dim: perelomov_exponential(k, 0.3, dim),
    ],
    ids=["generators", "closed-form", "exponential"],
)
def test_representation_is_checked_by_every_builder(build):
    with pytest.raises(ValueError, match="^Bargmann index must be positive$"):
        build(0.0, 8)
    with pytest.raises(ValueError, match="^dim must be at least 2$"):
        build(1.0, 1)


def test_kappa_mapping():
    assert perelomov_kappa(0.5) == pytest.approx(np.tanh(0.5))
    xi = 0.3 * np.exp(1.1j)
    kappa = perelomov_kappa(xi)
    assert abs(kappa) == pytest.approx(np.tanh(0.3))
    assert np.angle(kappa) == pytest.approx(1.1)


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("phi", [0.0, np.pi / 3, np.pi])
def test_closed_form_matches_exponential(r, phi):
    xi = r * np.exp(1j * phi)
    closed = perelomov_state(1.0, xi, 48)
    assert closed.fidelity(perelomov_exponential(1.0, xi, 48)) >= 1.0 - 1e-8


def test_state_rejects_boundary():
    with pytest.raises(ValueError):
        perelomov_state(0.5, 30.0, 32)  # kappa saturates the unit disc


@pytest.mark.parametrize("zeta,q", [(1.0, 0), (2.0, 1), (1 + 1j, 2)])
def test_pair_coherent_eigenproperties(zeta, q):
    st = pair_coherent(zeta, q, 32)
    eig, charge = pair_residuals(st, zeta, q)
    assert eig <= 1e-8
    assert charge <= 1e-10


def test_pair_charge_sectors_orthogonal():
    a = pair_coherent(1.5, 0, 32)
    b = pair_coherent(1.5, 2, 32)
    padded = np.zeros_like(b.amps)
    padded[: a.amps.shape[0], :] = a.amps
    assert abs(np.vdot(padded, b.amps)) == 0.0


def test_two_mode_perelomov_routes_agree():
    for xi in (0.3, 0.5 * np.exp(0.7j)):
        for q in (0, 2):
            exp_route = two_mode_perelomov(xi, q, 40)
            closed = two_mode_perelomov_closed_form(xi, q, 40)
            assert closed.fidelity(exp_route) >= 1.0 - 1e-10


def test_nonlinear_lowering_relation():
    assert perelomov_nonlinear_residual(0.5, 0, 48) <= 1e-7
    assert perelomov_nonlinear_residual(0.4 * np.exp(0.3j), 1, 48) <= 1e-7


def test_parity_pair_superposition_identity():
    for zeta, q in ((1.0, 0), (1.2, 1)):
        target = parity_pair_state(zeta, q, 32)
        built = parity_pair_superposition(zeta, q, 32)
        assert target.fidelity(built) >= 1.0 - 1e-8
