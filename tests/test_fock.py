"""Core ladder algebra, truncation contracts and the exponential wrapper."""

import ctypes
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from fockbench import fock
from fockbench.fock import (
    FockState,
    build_ladder,
    build_quadratures,
    fock_basis_state,
    ladder_exp_action,
    ladder_exp_dense,
    ladder_matrix,
    ladder_moments,
    ladder_nilpotent_exp,
    matrix_exponential,
    max_abs_interior,
    number_moments,
    number_operator,
    quadrature_report,
)
from fockbench.coherent import coherent_ladder
from fockbench.squeezing import squeezed_vacuum, squeezed_vacuum_closed_form


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


def nilpotent_series(m: np.ndarray) -> np.ndarray:
    """Independent reference: exp(m) of a strictly triangular m by its
    finite matrix-power series."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, m.shape[0]):
        term = term @ m / k
        if not term.any():
            break
        out += term
    return out


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("kind", ["real", "complex", "bool"])
def test_ladder_matrix_matches_an_explicit_loop(kind, step):
    rng = np.random.default_rng(step)
    for dim in range(1, 10):
        weights = {
            "real": rng.standard_normal(dim),
            "complex": rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
            "bool": rng.random(dim) < 0.5,
        }[kind]
        want = np.zeros((dim, dim), dtype=complex)
        for n in range(step, dim):
            want[n - step, n] = weights[n]
        got = ladder_matrix(weights, step)
        assert got.dtype == complex and np.array_equal(got, want)


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
        assert abs(rep["product"] - expected) <= 1e-12
        assert abs(rep["mean_x"]) <= 1e-14 and abs(rep["mean_p"]) <= 1e-14


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
        worst = min(worst, rep["product"])
    assert worst >= 0.25 - 1e-9


def test_batched_moments_match_a_per_column_loop():
    rng = np.random.default_rng(77)
    states = rng.standard_normal((24, 9)) + 1j * rng.standard_normal((24, 9))
    for weights in (np.sqrt(np.arange(24.0)), np.arange(24.0)):
        batched = ladder_moments(states, weights, batch=True)
        for j in range(states.shape[1]):
            for got, want in zip(batched, ladder_moments(states[:, j], weights)):
                assert abs(got[j] - want) <= 1e-13 * max(1.0, abs(want))


# (mean_x, mean_p, var_x, var_p, product, mean_n, var_n) as the per-state
# vdot moments gave them; the batch axis must leave 1-d reports bit for bit
STORED_REPORTS = {
    "coherent": (1.4142135623642895, 0.7071067811821444, 0.49999999990659294,
                 0.5000000000093409, 0.2499999999579669, 1.2499999999922164,
                 1.2499999998851898),
    "squeezed": (0.0, 0.0, 1.6263495210460408, 0.1843060446329754, 0.29974604741472977,
                 0.405327782839508, 1.1392367394786942),
    "random": (-0.04853987933991173, -0.09384064358859573, 11.202577004477483,
               10.114796082059877, 113.31178199386292, 10.164267636406407,
               23.73161615003127),
    "number": (0.0, 0.0, 3.5, 3.5, 12.25, 2.9999999999999996, 1.7763568394002505e-15),
}


def test_quadrature_report_is_bitwise_stable():
    rng = np.random.default_rng(1207)
    raw = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    amps = np.zeros(24, dtype=complex)
    amps[:20] = raw / np.linalg.norm(raw)
    states = {
        "coherent": coherent_ladder(1 + 0.5j, 16),
        "squeezed": squeezed_vacuum(0.6, 0.3, 32),
        "random": FockState(amps),
        "number": fock_basis_state(8, 3),
    }
    for name, state in states.items():
        got = (*quadrature_report(state).values(), *number_moments(state))
        assert got == STORED_REPORTS[name], name


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
    rep["mean_n"], rep["var_n"] = number_moments(state)
    ref = _dense_report(state.amps)
    ref["product"] = ref["var_x"] * ref["var_p"]
    for key, value in ref.items():
        assert abs(rep[key] - value) <= 1e-12 * max(1.0, abs(value)), key


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
    _assert_matches_dense(squeezed_vacuum_closed_form(r, 0.7, dim))


def test_matrix_exponential_against_taylor_reference():
    rng = np.random.default_rng(7)
    for dim in (6, 12, 20):
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ref = taylor_expm(M)
        got = matrix_exponential(M)
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-10


def test_matrix_exponential_keeps_a_real_input_real():
    rng = np.random.default_rng(7)
    for dim in (6, 12, 20):
        M = 3.0 * rng.standard_normal((dim, dim))
        ref = taylor_expm(M)
        got = matrix_exponential(M)
        assert got.dtype == np.float64
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-10


def _ladder_generator(weights: np.ndarray, step: int, alpha: complex) -> np.ndarray:
    """alpha L+ - alpha* L for L|n> = weights[n]|n-step>, as a complex matrix."""
    dim = weights.size
    lowering = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(step, dim)
    lowering[cols - step, cols] = weights[step:]
    return alpha * lowering.T - np.conj(alpha) * lowering


@pytest.mark.parametrize("alpha", [0.0, 0.6, -0.45, 0.5 + 0.3j, -0.2 - 0.65j, 0.7j])
@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("dim", [2, 3, 5, 17, 64, 96])
def test_ladder_exp_dense_matches_the_complex_generator(dim, step, alpha):
    ns = np.arange(dim, dtype=float)
    weights = np.sqrt(ns) if step == 1 else np.sqrt(ns * (ns - 1.0))
    want = matrix_exponential(_ladder_generator(weights, step, alpha))
    got = ladder_exp_dense(weights, step, alpha)
    assert got.dtype == complex
    assert np.abs(got - want).max() <= 1e-12
    if alpha == 0:
        assert np.array_equal(got, np.eye(dim))


@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_matrix_exponential_matches_per_matrix_calls(dtype):
    # one shared squaring count, from the largest 1-norm: the small members
    # take more squarings than on their own, and agree to roundoff
    rng = np.random.default_rng(23)
    stack = rng.standard_normal((5, 9, 9)) if dtype is float else (
        rng.standard_normal((5, 9, 9)) + 1j * rng.standard_normal((5, 9, 9)))
    stack = np.stack([_with_norm(M, norm) for M, norm in zip(stack, (1e-3, 0.5, 4.0, 20.0, 60.0))])
    stack[2] = np.diag(np.diag(stack[2]))  # a diagonal member takes the Pade route too
    got = matrix_exponential(stack)
    assert got.shape == stack.shape and got.dtype == stack.dtype
    for g, M in zip(got, stack):
        want = matrix_exponential(M)
        assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()
    nested = matrix_exponential(stack.reshape(5, 1, 9, 9))
    assert np.array_equal(nested.reshape(got.shape), got)


def test_zero_and_diagonal_stacks_are_exact():
    zero = matrix_exponential(np.zeros((4, 6, 6)))
    assert np.array_equal(zero, np.broadcast_to(np.eye(6), (4, 6, 6)))
    d = -1j * np.arange(12.0).reshape(2, 6)
    got = matrix_exponential(np.stack([np.diag(row) for row in d]))
    assert np.array_equal(got, np.stack([np.diag(np.exp(row)) for row in d]))


def test_matrix_exponential_group_law_commuting():
    x, _ = build_quadratures(16)
    A = 0.7j * x
    lhs = matrix_exponential(A) @ matrix_exponential(2.0 * A)
    assert np.abs(lhs - matrix_exponential(3.0 * A)).max() <= 1e-10


def _with_norm(M: np.ndarray, norm: float) -> np.ndarray:
    return M * (norm / np.abs(M).sum(axis=0).max())


# 1-norms below theta_13 (no squaring) and above it (up to 7 squarings)
@pytest.mark.parametrize(
    "norm, non_normal",
    [(1e-3, False), (2.0, False), (5.0, False), (400.0, False), (40.0, True)],
)
def test_matrix_exponential_matches_references_at_small_and_large_norms(norm, non_normal):
    rng = np.random.default_rng(11)
    if non_normal:
        # a decaying Jordan-like chain, rotated into a dense matrix
        J = np.diag(-np.arange(8.0)) + np.diag(np.full(7, 6.0), 1)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        M = Q @ _with_norm(J, norm) @ Q.conj().T
    else:
        M = _with_norm(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)), norm)
    got = matrix_exponential(M)
    for ref in (scipy.linalg.expm(M), taylor_expm(M)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_matrix_exponential_of_a_diagonal_is_exact():
    # the time-evolution generator -i t (N + 1/2) at t = pi
    d = -1j * np.pi * (np.arange(64) + 0.5)
    assert np.array_equal(matrix_exponential(np.diag(d)), np.diag(np.exp(d)))


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
    dense = scipy.linalg.expm(alpha * lower.T - np.conj(alpha) * lower) @ v
    got = ladder_exp_action(weights, step, alpha, v)
    assert np.abs(got - dense).max() <= 1e-13 * max(1.0, np.linalg.norm(v))


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("g", [0.0, 0.35, -1.2, 0.4 - 0.9j])
@pytest.mark.parametrize("dim", [1, 2, 3, 17, 64, 96])
def test_nilpotent_exp_matches_the_matrix_power_series(dim, step, g):
    ns = np.arange(dim, dtype=float)
    weights = {1: np.sqrt(ns), 2: np.sqrt(ns * (ns - 1.0)), 3: ns}[step]
    lowering = np.zeros((dim, dim))
    cols = np.arange(step, dim)
    lowering[cols - step, cols] = weights[step:]
    want = nilpotent_series(g * lowering)
    got = ladder_nilpotent_exp(weights, step, g)
    assert np.array_equal(got == 0, want == 0)
    nonzero = want != 0
    assert np.all(np.abs(got - want)[nonzero] <= 1e-14 * np.abs(want[nonzero]))


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 9, 24])
def test_stacked_nilpotent_exp_equals_per_row_calls(dim, step):
    rng = np.random.default_rng(dim)
    rows = np.abs(rng.standard_normal((2, 3, dim)))
    rows[0, 1, dim // 2 :] = 0.0  # a zero-padded row
    got = ladder_nilpotent_exp(rows, step, 0.4 - 0.9j)
    assert got.shape == (2, 3, dim, dim)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], ladder_nilpotent_exp(rows[idx], step, 0.4 - 0.9j))


def test_ladder_exp_action_at_zero_alpha_returns_v():
    v = np.arange(6) + 1j
    assert np.array_equal(ladder_exp_action(np.ones(6), 2, 0j, v), v)


def test_matrix_exponential_rejects_non_finite():
    M = np.zeros((3, 3))
    M[0, 0] = np.inf
    with pytest.raises(ValueError):
        matrix_exponential(M)


def test_matrix_exponential_rejects_an_overflowing_norm():
    # finite entries whose 1-norm is inf: no squaring count exists
    with pytest.raises(ValueError, match="norm overflows"):
        matrix_exponential(np.full((3, 3), 1e308))


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


needs_bundled_svd = pytest.mark.skipif(fock.bundled_lapack(dbdsdc=(2, 12)) is None,
                                       reason="numpy bundles no OpenBLAS here")


def _chain_block(couplings, n):
    """Diagonal and superdiagonal of the square upper-bidiagonal B^T that
    ladder_exp_action builds for a chain of n sites: couplings[k] joins
    sites k and k + 1, and an odd chain gets a zero last diagonal."""
    d = np.zeros((n + 1) // 2)
    d[: n // 2] = couplings[0 : n - 1 : 2]
    return d, couplings[1 : n - 1 : 2]


_KS = np.arange(1, 301, dtype=float)
CHAIN_COUPLINGS = {
    "squeeze": 0.4 * np.sqrt(2 * _KS * (2 * _KS - 1)),  # sqrt(n(n - 1)) at n = 2k, step 2
    "displacement": 1.3 * np.sqrt(_KS),  # sqrt(n), step 1
    "phase": 0.3 * 3 * _KS,  # n at n = 3k, step 3
    "random": np.random.default_rng(24).uniform(0.0, 3.0, _KS.size),
}


@needs_bundled_svd
@pytest.mark.parametrize("kind", sorted(CHAIN_COUPLINGS))
def test_bundled_dbdsdc_is_bitwise_equal_to_numpy_svd(kind):
    # gesdd bidiagonalises an upper-bidiagonal block by the identity and
    # runs dbdsdc on it, so both give the same bits, odd chains' zero last
    # diagonal included
    for n in range(2, 302):
        d, e = _chain_block(CHAIN_COUPLINGS[kind], n)
        if kind == "random" and n % 2 == 0:
            d[-1] = 0.0  # a zero last diagonal on an even chain too
        got = fock._chain_svd()(d, e)
        want = np.linalg.svd(np.diag(d) + np.diag(e, 1))
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g.view(np.uint64), w.view(np.uint64)), n


def _no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


# (weights, step, alpha, dim): squeezed vacuum on even and odd chains, a
# displacement and a phase squeeze
ROUTE_CASES = [
    (lambda ns: np.sqrt(ns * (ns - 1.0)), 2, 0.4 * np.exp(0.7j), 64),
    (lambda ns: np.sqrt(ns * (ns - 1.0)), 2, 0.4 * np.exp(0.7j), 42),
    (np.sqrt, 1, -0.6 + 0.2j, 33),
    (lambda ns: ns, 3, 0.15, 50),
]


@needs_bundled_svd
@pytest.mark.parametrize("missing", ["directory", "library", "symbol"])
def test_a_missing_library_or_symbol_falls_back_to_numpy_svd(missing, tmp_path, monkeypatch):
    def action():
        out = []
        for weights, step, alpha, dim in ROUTE_CASES:
            v = np.zeros(dim, dtype=complex)
            v[:3] = [1.0, 0.5j, -0.25]
            out.append(ladder_exp_action(weights(np.arange(dim, dtype=float)), step, alpha, v))
        return np.concatenate(out)

    bundled = action()
    if missing == "directory":  # a numpy that bundles no numpy.libs
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    elif missing == "library":
        monkeypatch.setattr(ctypes, "CDLL", _no_library)
    else:  # a library that exports dstebz but not dbdsdc
        real = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace(
            scipy_dstebz_64_=real(path).scipy_dstebz_64_))
    assert fock.bundled_lapack(dbdsdc=(2, 12)) is None
    monkeypatch.setattr(fock, "_chain_svd", fock._chain_svd.__wrapped__)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a: calls.append(a.shape) or svd(a))
    fallback = action()
    assert calls, "the fallback takes np.linalg.svd"
    assert np.array_equal(fallback.view(np.uint64), bundled.view(np.uint64))


@pytest.mark.usefixtures("nonconverging_dbdsdc")
def test_a_nonconverged_chain_svd_raises():
    with pytest.raises(ArithmeticError, match=r"^bidiagonal SVD did not converge \(info 3\)$"):
        squeezed_vacuum(0.5, 0.0, 16)
