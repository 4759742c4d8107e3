"""Core ladder algebra, truncation contracts and the exponential wrapper."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockbench.fock import (
    FockState,
    build_ladder,
    build_quadratures,
    fock_basis_state,
    ladder_exp_action,
    matrix_exponential,
    max_abs_interior,
    number_operator,
    quadrature_report,
)
from fockbench.squeezing import SqueezeSpec, squeezed_vacuum_closed_form


def taylor_expm(M: np.ndarray) -> np.ndarray:
    """Independent reference exponential: scaling and squaring over a
    plain Taylor series, no Pade machinery shared with the implementation."""
    M = np.asarray(M, dtype=complex)
    norm = np.linalg.norm(M, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    A = M / (2 ** squarings)
    result = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ A / k
        result = result + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result


@pytest.mark.parametrize("dim", [8, 16, 32, 64])
def test_ladder_commutator_on_interior(dim):
    a, adag = build_ladder(dim)
    comm = a @ adag - adag @ a
    assert max_abs_interior(comm - np.eye(dim), dim - 1) <= 1e-12
    # the bottom-right defect of the truncated commutator is exactly -dim
    assert comm[dim - 1, dim - 1] == pytest.approx(1.0 - dim)


@pytest.mark.parametrize("dim", [8, 16, 32, 64])
def test_number_commutators_on_interior(dim):
    a, adag = build_ladder(dim)
    n_op = number_operator(dim)
    assert max_abs_interior(n_op @ a - a @ n_op + a, dim - 1) <= 1e-12
    assert max_abs_interior(n_op @ adag - adag @ n_op - adag, dim - 1) <= 1e-12


def test_quadratures_hermitian():
    x, p = build_quadratures(64)
    n_op = number_operator(64)
    assert np.abs(x - x.conj().T).max() <= 1e-14
    assert np.abs(p - p.conj().T).max() <= 1e-14
    assert np.abs(n_op - n_op.conj().T).max() <= 1e-14


def test_number_states_saturate_uncertainty_ladder():
    for n in range(6):
        rep = quadrature_report(fock_basis_state(32, n))
        expected = (2 * n + 1) ** 2 / 4.0
        assert abs(rep.product - expected) <= 1e-12
        assert abs(rep.mean_x) <= 1e-14 and abs(rep.mean_p) <= 1e-14


def test_uncertainty_floor_random_states():
    """1000 random normalized states never beat the 1/4 floor.

    States are supported on the lower 60 percent of the basis: amplitudes
    crowded against the truncation edge see a clipped x matrix whose
    variance can dip below the untruncated value.
    """
    rng = np.random.default_rng(91)
    dim = 48
    support = int(dim * 0.6)
    worst = np.inf
    for _ in range(1000):
        amps = np.zeros(dim, dtype=complex)
        raw = rng.standard_normal(support) + 1j * rng.standard_normal(support)
        amps[:support] = raw / np.linalg.norm(raw)
        rep = quadrature_report(FockState(amps))
        worst = min(worst, rep.product)
    assert worst >= 0.25 - 1e-9


def _dense_report(amps: np.ndarray) -> dict:
    """Reference moments from dense x, p, x @ x and p @ p and from the
    photon distribution."""
    x, p = build_quadratures(amps.size)

    def ev(op) -> float:
        return float(np.vdot(amps, op @ amps).real)

    mx, mp = ev(x), ev(p)
    probs = np.abs(amps) ** 2
    ns = np.arange(amps.size)
    mean_n = float(probs @ ns)
    return {
        "mean_x": mx,
        "mean_p": mp,
        "var_x": ev(x @ x) - mx * mx,
        "var_p": ev(p @ p) - mp * mp,
        "mean_n": mean_n,
        "var_n": float(probs @ ns ** 2) - mean_n * mean_n,
    }


def _assert_matches_dense(state: FockState) -> None:
    rep = quadrature_report(state)
    ref = _dense_report(state.amps)
    ref["product"] = ref["var_x"] * ref["var_p"]
    for key, value in ref.items():
        assert abs(getattr(rep, key) - value) <= 1e-12 * max(1.0, abs(value)), key


@pytest.mark.parametrize("dim", [2, 3, 8, 64, 512])
def test_quadrature_report_matches_dense_reference(dim):
    # full support, so the top level, where the truncated x @ x is
    # clipped, carries weight
    rng = np.random.default_rng(dim)
    for _ in range(4):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        _assert_matches_dense(FockState(raw / np.linalg.norm(raw)))


# odd dims put the top level on an even, occupied level
@pytest.mark.parametrize("r, dim", [(0.5, 9), (1.5, 33), (3.0, 129), (3.0, 513)])
def test_squeezed_quadrature_report_matches_dense_reference(r, dim):
    _assert_matches_dense(squeezed_vacuum_closed_form(SqueezeSpec(r, 0.7, dim)))


def test_matrix_exponential_against_taylor_reference():
    rng = np.random.default_rng(7)
    for dim in (6, 12, 20):
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ref = taylor_expm(M)
        got = matrix_exponential(M)
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-10


def test_matrix_exponential_group_law_commuting():
    x, _ = build_quadratures(16)
    A = 0.7j * x
    lhs = matrix_exponential(A) @ matrix_exponential(2.0 * A)
    assert np.abs(lhs - matrix_exponential(3.0 * A)).max() <= 1e-10


_unit = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def _chain_cases(draw):
    """Weights, step, alpha and a vector with some residue chains zeroed."""
    dim = draw(st.integers(2, 40))
    step = draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=dim, max_size=dim)))
    alpha = draw(
        st.one_of(
            st.just(0j),
            st.floats(-1.5, -0.01).map(complex),
            st.builds(complex, _unit, _unit),
        )
    )
    parts = draw(st.lists(_unit, min_size=2 * dim, max_size=2 * dim))
    v = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
    for c in draw(st.sets(st.integers(0, step - 1))):
        v[c::step] = 0.0
    return weights, step, alpha, v


@given(_chain_cases())
def test_ladder_exp_action_matches_dense_exponential(case):
    weights, step, alpha, v = case
    dim = v.size
    lower = np.zeros((dim, dim))
    lower[np.arange(dim - step), np.arange(step, dim)] = weights[step:]
    dense = matrix_exponential(alpha * lower.T - np.conj(alpha) * lower) @ v
    got = ladder_exp_action(weights, step, alpha, v)
    assert np.abs(got - dense).max() <= 1e-13 * max(1.0, np.linalg.norm(v))


def test_ladder_exp_action_at_zero_alpha_returns_v():
    v = np.arange(6) + 1j
    assert np.array_equal(ladder_exp_action(np.ones(6), 2, 0j, v), v)


def test_matrix_exponential_rejects_non_finite():
    M = np.zeros((3, 3))
    M[0, 0] = np.inf
    with pytest.raises(ValueError):
        matrix_exponential(M)


def test_state_validation():
    with pytest.raises(ValueError):
        FockState(np.array([1.0]))
    with pytest.raises(ValueError):
        FockState(np.zeros((2, 2)))
    st = FockState(np.array([3.0, 4.0]))
    assert st.norm == pytest.approx(5.0)
    assert st.normalized().norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        st.check_normalized()


def test_tail_mass_counts_top_slice():
    amps = np.zeros(20)
    amps[19] = 1.0
    assert FockState(amps).tail_mass(0.1) == pytest.approx(1.0)
    assert fock_basis_state(20, 0).tail_mass(0.1) == 0.0


def test_overlap_and_fidelity():
    st = fock_basis_state(8, 2)
    other = FockState(np.exp(0.5j) * st.amps)
    assert st.fidelity(other) == pytest.approx(1.0)
    assert abs(st.overlap(fock_basis_state(8, 3))) == 0.0
    with pytest.raises(ValueError):
        st.overlap(fock_basis_state(9, 3))
