"""Two-mode squeezing: Schmidt structure, noise budget, factorizations."""

import numpy as np
import pytest

from fockbench.fock import TwoModeState, matrix_exponential
from fockbench.squeezing import (
    _nilpotent_exp_matrix,
    disentangle_identity_residual,
    generalized_condition_solution,
    lambda_mode_factorization,
    schmidt_profile,
    su11_disentangle_general,
    two_mode_noise_report,
    two_mode_squeezed_vacuum,
    two_mode_theta_vacuum,
)
from fockbench.su11 import PairCoherentSpec, pair_coherent, parity_pair_state
from fockbench.twomode import charge_sectors, ladders_dense, ladders_sparse, number_diagonals


def test_ladders_commute_across_modes():
    a1, a2 = ladders_dense(6, 5)
    assert np.abs(a1 @ a2 - a2 @ a1).max() == 0.0
    n1, n2 = number_diagonals(6, 5)
    assert n1.size == 30 and n2.size == 30
    assert n1[7] == 1 and n2[7] == 2  # row-major (n1, n2) = (1, 2)


def test_pair_vacuum_is_schmidt_diagonal():
    st = two_mode_squeezed_vacuum(1.0, (40, 40))
    prof = schmidt_profile(st)
    assert prof["off_diagonal_mass"] <= 1e-12
    assert prof["ratio_spread"] <= 1e-8
    expected = -np.tanh(0.5)
    assert np.abs(np.asarray(prof["ratios"]) - expected).max() <= 1e-6


def test_theta_vacuum_profile_is_geometric():
    st = two_mode_theta_vacuum(0.5, (32, 32))
    diag = np.diagonal(st.amps)
    tau = np.tanh(0.5)
    assert np.abs(diag[1:] / diag[:-1] - tau).max() <= 1e-12
    assert st.fidelity(two_mode_squeezed_vacuum(-1.0, (32, 32))) >= 1.0 - 1e-10


@pytest.mark.parametrize("theta", [0.2, 0.5, 1.0])
def test_noise_report_closed_forms(theta):
    st = two_mode_theta_vacuum(theta, (48, 48))
    noise = two_mode_noise_report(st)
    expected_cross = np.sinh(2.0 * theta) ** 2 / 4.0
    assert abs(abs(noise["cross_product"]) - expected_cross) <= 1e-6
    # the product of single-mode variances exceeds the floor by exactly
    # the cross term: the margin equals sinh^2(2 theta) / 2
    assert noise["margin"] >= 0.0
    assert abs(noise["margin"] - np.sinh(2.0 * theta) ** 2 / 2.0) <= 1e-6
    assert abs(noise["var_x1"] - (np.cosh(2.0 * theta)) / 2.0) <= 1e-6


def test_uncorrelated_limit_has_no_margin():
    # vacuum variances are exactly 1/2: the margin is exactly 0, not roundoff
    for dims in ((2, 2), (16, 16), (9, 13), (40, 40)):
        noise = two_mode_noise_report(two_mode_theta_vacuum(0.0, dims))
        assert noise["cross_product"] == 0.0
        assert noise["margin"] == 0.0


def _sparse_noise_report(state: TwoModeState) -> dict:
    """Reference noise report from sparse two-mode quadrature matrices."""
    a1, a2 = ladders_sparse(*state.dims)
    x1 = ((a1 + a1.conj().T) / np.sqrt(2.0)).tocsr()
    p1 = (-1j * (a1 - a1.conj().T) / np.sqrt(2.0)).tocsr()
    x2 = ((a2 + a2.conj().T) / np.sqrt(2.0)).tocsr()
    p2 = (-1j * (a2 - a2.conj().T) / np.sqrt(2.0)).tocsr()
    vec = state.ravel()

    def ev(op) -> float:
        return float(np.vdot(vec, op @ vec).real)

    def ev2(opa, opb) -> float:
        return float(np.vdot(opa @ vec, opb @ vec).real)

    mx1, mp1, mx2, mp2 = ev(x1), ev(p1), ev(x2), ev(p2)
    var_x1 = ev2(x1, x1) - mx1 * mx1
    var_p1 = ev2(p1, p1) - mp1 * mp1
    cross_x = ev2(x1, x2) - mx1 * mx2
    cross_p = ev2(p1, p2) - mp1 * mp2
    return {
        "var_x1": var_x1,
        "var_p1": var_p1,
        "var_x2": ev2(x2, x2) - mx2 * mx2,
        "var_p2": ev2(p2, p2) - mp2 * mp2,
        "cross_x": cross_x,
        "cross_p": cross_p,
        "cross_product": cross_x * cross_p,
        "margin": var_x1 * var_p1 - 0.25 - cross_x * cross_p,
    }


def _random_grid(dims, seed) -> TwoModeState:
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return TwoModeState(raw).normalized()


@pytest.mark.parametrize(
    "state",
    [
        _random_grid((9, 13), 1),
        _random_grid((13, 9), 2),
        _random_grid((2, 5), 3),
        pair_coherent(PairCoherentSpec(0.8 + 0.3j, 2, 5)),
        pair_coherent(PairCoherentSpec(1.5, 0, 9)),
        parity_pair_state(1.5j, 1, 6),
        parity_pair_state(1.0, 0, 10),
        two_mode_theta_vacuum(0.6, (11, 7)),
    ],
    ids=["random-9x13", "random-13x9", "random-2x5", "pair-q2", "pair-q0",
         "parity-pair-q1", "parity-pair-q0", "theta-vacuum-11x7"],
)
def test_noise_report_matches_sparse_reference(state):
    noise = two_mode_noise_report(state)
    ref = _sparse_noise_report(state)
    assert list(noise) == list(ref)
    for key, value in ref.items():
        assert abs(noise[key] - value) <= 1e-12 * max(1.0, abs(value)), key


def test_splitting_identity_on_interior():
    rng = np.random.default_rng(58)
    for _ in range(2):
        mag = rng.uniform(0.0, 0.5, 3)
        arg = rng.uniform(0.0, 2 * np.pi, 3)
        z0, zp, zm = mag * np.exp(1j * arg)
        assert disentangle_identity_residual(z0, zp, zm, (24, 24)) <= 1e-8


@pytest.mark.parametrize("dims", [(5, 9), (9, 5), (24, 24)])
def test_charge_sectors_reassemble_dense_generators(dims):
    da, db = dims
    a1, a2 = ladders_sparse(da, db)
    pair_down = (a1 @ a2).toarray()
    n1_all, n2_all = number_diagonals(da, db)
    sectors = charge_sectors(da, db)
    assert sorted(sectors) == list(range(1 - db, da))
    down = np.zeros((da * db, da * db), dtype=complex)
    up = np.zeros_like(down)
    k0 = np.zeros(da * db)
    for q, (n1, n2) in sectors.items():
        assert np.array_equal(n1 - n2, np.full(n1.size, q))
        idx = n1 * db + n2
        block = np.diag(np.sqrt(n1[1:]) * np.sqrt(n2[1:]), 1)
        down[np.ix_(idx, idx)] = block
        up[np.ix_(idx, idx)] = block.T
        k0[idx] = (n1 + n2 + 1.0) / 2.0
    covered = np.concatenate([n1 * db + n2 for n1, n2 in sectors.values()])
    assert np.array_equal(np.sort(covered), np.arange(da * db))
    assert np.array_equal(down, pair_down)
    assert np.array_equal(up, pair_down.conj().T)
    assert np.array_equal(k0, (n1_all + n2_all + 1.0) / 2.0)


def _dense_identity_residual(zeta0, zeta_plus, zeta_minus, dims):
    """The splitting residual on the whole two-mode space, without sectors."""
    da, db = dims
    a1, a2 = ladders_sparse(da, db)
    pair_down = (a1 @ a2).toarray()
    pair_up = pair_down.conj().T
    n1, n2 = number_diagonals(da, db)
    k0_diag = (n1 + n2 + 1.0) / 2.0
    coeffs = su11_disentangle_general(zeta0, zeta_plus, zeta_minus)
    lhs = matrix_exponential(
        zeta0 * np.diag(k0_diag) + zeta_plus * pair_up + zeta_minus * pair_down
    )
    rhs = (
        _nilpotent_exp_matrix(coeffs.gamma_plus * pair_up)
        @ np.diag(np.exp(np.log(coeffs.gamma0) * k0_diag))
        @ _nilpotent_exp_matrix(coeffs.gamma_minus * pair_down)
    )
    idx = np.flatnonzero((n1 < da // 3) & (n2 < db // 3))
    return float(np.abs(lhs[np.ix_(idx, idx)] - rhs[np.ix_(idx, idx)]).max())


@pytest.mark.parametrize("dims", [(12, 12), (9, 15), (15, 9)])
def test_sector_residual_matches_dense_reference(dims):
    rng = np.random.default_rng(4119)
    for _ in range(3):
        mag = rng.uniform(0.0, 0.5, 3)
        arg = rng.uniform(0.0, 2 * np.pi, 3)
        z0, zp, zm = mag * np.exp(1j * arg)
        sector = disentangle_identity_residual(z0, zp, zm, dims)
        assert abs(sector - _dense_identity_residual(z0, zp, zm, dims)) <= 1e-13


def test_splitting_residual_needs_an_interior():
    with pytest.raises(ValueError):
        disentangle_identity_residual(0.1, 0.2, 0.3, (2, 24))


@pytest.mark.parametrize("theta", [0.2, 0.5, 1.0])
def test_rotated_mode_factorization(theta):
    comm, annih, deficit = lambda_mode_factorization(theta, (48, 48))
    assert comm <= 1e-10
    assert annih <= 1e-12
    assert deficit <= 1e-7


@pytest.mark.parametrize("theta,c", [(0.1, 0.0), (0.1, 1.0), (0.5, 0.0), (0.5, 1.0)])
def test_factorized_condition_solution(theta, c):
    sol = generalized_condition_solution(theta, c)
    assert sol.pde_residual <= 1e-4
    assert sol.phi_normalizable
    assert not sol.chi_normalizable


def test_condition_solution_rejects_small_mixing():
    with pytest.raises(ValueError):
        generalized_condition_solution(0.01, 0.0)
