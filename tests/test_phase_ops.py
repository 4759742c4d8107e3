"""Polar decomposition ladder operators and number-phase uncertainty."""

import numpy as np
import pytest

from fockbench.coherent import coherent_ladder
from fockbench.fock import FockState, fock_basis_state, number_operator
from fockbench.phase import (
    build_omega_ops,
    build_phase_set,
    number_phase_uncertainty,
    omega_commutator_defect,
    phase_squeeze_closed_form,
    phase_squeezed_vacuum,
)


def test_one_sided_unitarity_is_exact():
    dim = 64
    g_minus = build_phase_set(dim)
    prod = g_minus @ g_minus.conj().T
    # identity exactly on the interior; the last diagonal entry is a
    # structural zero of the truncation
    assert np.array_equal(prod[: dim - 1, : dim - 1], np.eye(dim - 1, dtype=complex))
    assert prod[dim - 1, dim - 1] == 0.0


def test_reverse_product_misses_vacuum_projector():
    dim = 64
    g_minus = build_phase_set(dim)
    prod = g_minus.conj().T @ g_minus
    expected = np.eye(dim, dtype=complex)
    expected[0, 0] = 0.0
    # the defect lives entirely in the top row of the truncated matrix
    assert np.array_equal(prod[: dim - 1, : dim - 1], expected[: dim - 1, : dim - 1])


def _trig_operators(g_minus) -> tuple[np.ndarray, np.ndarray]:
    """cos phi = (G+ + G-)/2 and sin phi = (G+ - G-)/(2i)."""
    g_plus = g_minus.conj().T
    return (g_plus + g_minus) / 2.0, (g_plus - g_minus) / 2j


def test_trig_operators_hermitian_and_bounded():
    cos_phi, sin_phi = _trig_operators(build_phase_set(48))
    assert np.abs(cos_phi - cos_phi.conj().T).max() <= 1e-15
    assert np.abs(sin_phi - sin_phi.conj().T).max() <= 1e-15
    for op in (cos_phi, sin_phi):
        eigs = np.linalg.eigvalsh(op)
        assert eigs.min() >= -1.0 - 1e-12 and eigs.max() <= 1.0 + 1e-12


def test_number_shift_ladder_commutator():
    dim = 64
    r_minus = build_omega_ops(1, dim)  # R+- = Omega_1+-
    r_plus = r_minus.conj().T
    n_op = number_operator(dim)
    comm = r_minus @ r_plus - r_plus @ r_minus
    target = 2.0 * n_op + np.eye(dim)
    assert np.abs((comm - target)[: dim - 2, : dim - 2]).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_m_step_commutator_on_two_sided_interior(m):
    assert omega_commutator_defect(build_omega_ops(m, 64), m) <= 1e-12


def test_m_step_commutator_needs_both_edges_excluded():
    """Rows below the step size are defective too, not only the top ones."""
    dim = 64
    m = 2
    omega_minus = build_omega_ops(m, dim)
    omega_plus = omega_minus.conj().T
    n_op = number_operator(dim)
    comm = omega_minus @ omega_plus - omega_plus @ omega_minus
    full = comm - m * (2.0 * n_op + m * np.eye(dim))
    bottom = np.abs(full[:m, :m]).max()
    assert bottom >= 0.5


def test_omega_step_bounds():
    with pytest.raises(ValueError):
        build_omega_ops(0, 64)
    with pytest.raises(ValueError):
        build_omega_ops(17, 64)


def test_uncertainty_inequalities_hold():
    for state in (fock_basis_state(64, 5), coherent_ladder(3.0, 96)):
        dcos_dn, sin_bound, dsin_dn, cos_bound = number_phase_uncertainty(state)
        assert dcos_dn >= sin_bound - 1e-12
        assert dsin_dn >= cos_bound - 1e-12


def _dense_phase_uncertainty(s: FockState) -> tuple[float, float, float, float]:
    """Reference spreads from dense phase and number operators."""
    cos_phi, sin_phi = _trig_operators(build_phase_set(s.dim))

    def ev(op) -> float:
        return float(np.vdot(s.amps, op @ s.amps).real)

    def spread(op) -> float:
        return float(np.sqrt(max(ev(op @ op) - ev(op) ** 2, 0.0)))

    d_n = spread(number_operator(s.dim))
    return (
        spread(cos_phi) * d_n,
        abs(ev(sin_phi)) / 2.0,
        spread(sin_phi) * d_n,
        abs(ev(cos_phi)) / 2.0,
    )


def _random_state(dim: int, seed: int) -> FockState:
    rng = np.random.default_rng(seed)
    return FockState(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)).normalized()


@pytest.mark.parametrize(
    "state",
    [
        _random_state(3, 1),
        _random_state(8, 2),
        _random_state(64, 3),
        _random_state(300, 4),
        coherent_ladder(3.0, 16),
        coherent_ladder(1.2 - 0.8j, 8),
        phase_squeeze_closed_form(0.5, 0.3, 1, 9),
    ],
    ids=["random-3", "random-8", "random-64", "random-300", "coherent-3", "coherent-complex",
         "phase-squeezed"],
)
def test_number_phase_uncertainty_matches_dense_reference(state):
    got = number_phase_uncertainty(state)
    for value, ref in zip(got, _dense_phase_uncertainty(state)):
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


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
    state = phase_squeezed_vacuum(r, phi, m, dim)
    closed = phase_squeeze_closed_form(r, phi, m, dim)
    assert state.fidelity(closed) >= 1.0 - 1e-7

    beta = np.tanh(r)
    ns = np.arange((dim + m - 1) // m)
    amps = np.zeros(dim, dtype=complex)
    amps[m * ns] = (beta * np.exp(1j * phi)) ** ns
    oracle = FockState(amps).normalized()
    assert closed.fidelity(oracle) >= 1.0 - 1e-12


# R+- is Omega_1+-, which needs dim >= 4
@pytest.mark.parametrize("dim", [4, 16, 64])
def test_number_shift_factorizations_agree(dim):
    g_minus = build_phase_set(dim)
    g_plus = g_minus.conj().T
    n_op = number_operator(dim)
    one = np.eye(dim)
    r_minus = build_omega_ops(1, dim)
    r_plus = r_minus.conj().T
    assert np.array_equal(r_plus, n_op @ g_plus)
    assert np.array_equal(r_plus, g_plus @ (n_op + one))
    assert np.array_equal(r_minus, g_minus @ n_op)
    assert np.array_equal(r_minus, (n_op + one) @ g_minus)


@pytest.mark.parametrize("m", [1, 2, 3, 64 // 4])
def test_m_step_factorizations_agree(m):
    dim = 64
    gm_pow = np.linalg.matrix_power(build_phase_set(dim), m)
    n_op = number_operator(dim)
    omega_minus = build_omega_ops(m, dim)
    assert np.array_equal(omega_minus, gm_pow @ n_op)
    assert np.array_equal(omega_minus, (n_op + m * np.eye(dim)) @ gm_pow)
