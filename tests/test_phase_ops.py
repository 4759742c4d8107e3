"""Polar decomposition ladder operators and number-phase uncertainty."""

import numpy as np
import pytest

from fockbench.coherent import CoherentSpec, coherent_ladder
from fockbench.fock import FockState, fock_basis_state, number_operator
from fockbench.phase import (
    build_omega_ops,
    build_phase_set,
    build_R_ops,
    number_phase_uncertainty,
    omega_commutator_defect,
    phase_squeeze_closed_form,
    phase_squeeze_unitary,
)


def test_one_sided_unitarity_is_exact():
    dim = 64
    ops = build_phase_set(dim)
    prod = ops.gamma_minus @ ops.gamma_plus
    # identity exactly on the interior; the last diagonal entry is a
    # structural zero of the truncation
    assert np.array_equal(prod[: dim - 1, : dim - 1], np.eye(dim - 1, dtype=complex))
    assert prod[dim - 1, dim - 1] == 0.0


def test_reverse_product_misses_vacuum_projector():
    dim = 64
    ops = build_phase_set(dim)
    prod = ops.gamma_plus @ ops.gamma_minus
    expected = np.eye(dim, dtype=complex)
    expected[0, 0] = 0.0
    # the defect lives entirely in the top row of the truncated matrix
    assert np.array_equal(prod[: dim - 1, : dim - 1], expected[: dim - 1, : dim - 1])


def test_trig_operators_hermitian_and_bounded():
    ops = build_phase_set(48)
    assert np.abs(ops.cos_phi - ops.cos_phi.conj().T).max() <= 1e-15
    assert np.abs(ops.sin_phi - ops.sin_phi.conj().T).max() <= 1e-15
    for op in (ops.cos_phi, ops.sin_phi):
        eigs = np.linalg.eigvalsh(op)
        assert eigs.min() >= -1.0 - 1e-12 and eigs.max() <= 1.0 + 1e-12


def test_number_shift_ladder_commutator():
    dim = 64
    r_plus, r_minus = build_R_ops(dim)
    n_op = number_operator(dim)
    comm = r_minus @ r_plus - r_plus @ r_minus
    target = 2.0 * n_op + np.eye(dim)
    assert np.abs((comm - target)[: dim - 2, : dim - 2]).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_m_step_commutator_on_two_sided_interior(m):
    ladder = build_omega_ops(m, 64)
    assert omega_commutator_defect(ladder) <= 1e-12


def test_m_step_commutator_needs_both_edges_excluded():
    """Rows below the step size are defective too, not only the top ones."""
    dim = 64
    m = 2
    ladder = build_omega_ops(m, dim)
    n_op = number_operator(dim)
    comm = ladder.omega_minus @ ladder.omega_plus - ladder.omega_plus @ ladder.omega_minus
    full = comm - m * (2.0 * n_op + m * np.eye(dim))
    bottom = np.abs(full[:m, :m]).max()
    assert bottom >= 0.5


def test_omega_step_bounds():
    with pytest.raises(ValueError):
        build_omega_ops(0, 64)
    with pytest.raises(ValueError):
        build_omega_ops(17, 64)


def test_uncertainty_inequalities_hold():
    for state in (fock_basis_state(64, 5), coherent_ladder(CoherentSpec(3.0, 96))):
        dcos_dn, sin_bound, dsin_dn, cos_bound = number_phase_uncertainty(state)
        assert dcos_dn >= sin_bound - 1e-12
        assert dsin_dn >= cos_bound - 1e-12


def test_number_state_phase_is_flat():
    dcos_dn, sin_bound, dsin_dn, cos_bound = number_phase_uncertainty(
        fock_basis_state(64, 5)
    )
    # a number state carries no phase information: both bounds vanish
    assert sin_bound <= 1e-14 and cos_bound <= 1e-14


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ladder_unitary_matches_geometric_profile(m):
    dim = 64
    r, phi = 0.5, 0.3
    _, state = phase_squeeze_unitary(r, phi, m, dim)
    closed = phase_squeeze_closed_form(r, phi, m, dim)
    assert state.fidelity(closed) >= 1.0 - 1e-7

    beta = np.tanh(r)
    ns = np.arange((dim + m - 1) // m)
    amps = np.zeros(dim, dtype=complex)
    amps[m * ns] = (beta * np.exp(1j * phi)) ** ns
    oracle = FockState(amps).normalized()
    assert closed.fidelity(oracle) >= 1.0 - 1e-12


@pytest.mark.parametrize("dim", [3, 16, 64])
def test_number_shift_factorizations_agree(dim):
    ops = build_phase_set(dim)
    n_op = number_operator(dim)
    one = np.eye(dim)
    r_plus, r_minus = build_R_ops(dim)
    assert np.array_equal(r_plus, n_op @ ops.gamma_plus)
    assert np.array_equal(r_plus, ops.gamma_plus @ (n_op + one))
    assert np.array_equal(r_minus, ops.gamma_minus @ n_op)
    assert np.array_equal(r_minus, (n_op + one) @ ops.gamma_minus)


@pytest.mark.parametrize("m", [1, 2, 3, 64 // 4])
def test_m_step_factorizations_agree(m):
    dim = 64
    gm_pow = np.linalg.matrix_power(build_phase_set(dim).gamma_minus, m)
    n_op = number_operator(dim)
    ladder = build_omega_ops(m, dim)
    assert np.array_equal(ladder.omega_minus, gm_pow @ n_op)
    assert np.array_equal(ladder.omega_minus, (n_op + m * np.eye(dim)) @ gm_pow)
