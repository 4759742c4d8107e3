"""The one closed-form series routine and every builder routed through it,
against an mpmath reference at 40 digits."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from fockbench.coherent import coherent_ladder
from fockbench.fock import log_gamma, log_series
from fockbench.phase import phase_squeeze_closed_form
from fockbench.sqm import modal_coherent_coeffs
from fockbench.squeezing import (
    squeezed_vacuum_closed_form,
    two_mode_theta_vacuum,
)
from fockbench.su11 import (
    pair_coherent,
    parity_pair_state,
    parity_pair_superposition,
    perelomov_series,
    perelomov_state,
    two_mode_perelomov_closed_form,
)

mp.mp.dps = 40


def ref_series(ratio, weight, n):
    """Unit vector c_j proportional to ratio^j weight(j), j < n, in mpmath."""
    terms = [mp.power(mp.mpc(ratio), j) * weight(j) for j in range(n)]
    norm = mp.sqrt(mp.fsum(abs(t) ** 2 for t in terms))
    return [t / norm for t in terms]


def to_numpy(terms):
    return np.array([complex(t) for t in terms])


def kappa(xi):
    """Disc coordinate tanh|xi| e^{i arg xi} of a coset parameter."""
    xi = mp.mpc(xi)
    return mp.tanh(abs(xi)) * xi / abs(xi) if xi != 0 else mp.mpc(0)


def inv_sqrt_fact(j):
    return 1 / mp.sqrt(mp.factorial(j))


def one(j):
    return mp.mpf(1)


def even_ket(ratio, dim):
    out = np.zeros(dim, dtype=complex)
    out[::2] = to_numpy(
        ref_series(ratio, lambda j: mp.sqrt(mp.factorial(2 * j)) / mp.factorial(j), (dim + 1) // 2)
    )
    return out


def sector(terms, q, levels):
    out = np.zeros((levels + q, levels), dtype=complex)
    out[np.arange(levels) + q, np.arange(levels)] = to_numpy(terms)
    return out


def pair_terms(zeta, q, levels):
    return ref_series(
        zeta, lambda n: 1 / mp.sqrt(mp.factorial(n) * mp.factorial(n + q)), levels
    )


def parity_sign(n):
    return 1 if (n * (n - 1) // 2) % 2 == 0 else -1


def superposition_terms(zeta, q, levels):
    up = pair_terms(1j * zeta, q, levels)
    down = pair_terms(-1j * zeta, q, levels)
    terms = [mp.expjpi(-0.25) * u + mp.expjpi(0.25) * d for u, d in zip(up, down)]
    norm = mp.sqrt(mp.fsum(abs(t) ** 2 for t in terms))
    return [t / norm for t in terms]


def phase_ket(r, phi, m, dim):
    out = np.zeros(dim, dtype=complex)
    out[::m] = to_numpy(ref_series(mp.tanh(r) * mp.expj(phi), one, (dim - 1) // m + 1))
    return out


def diagonal(terms, dims):
    out = np.zeros(dims, dtype=complex)
    np.fill_diagonal(out, to_numpy(terms))
    return out


RATIOS = [0.0, 0.6, -0.45, 0.3 + 0.4j, -0.2 - 0.5j]

# (id, built amplitudes, mpmath reference) for every routed builder
CASES = []
for z in RATIOS + [-2.5, 1.5 - 2j, 40.0]:
    for dim in (2, 17, 33, 40):
        CASES.append((f"coherent_amplitudes-{z}-{dim}",
                      lambda z=z, d=dim: coherent_ladder(z, d).amps,
                      lambda z=z, d=dim: to_numpy(ref_series(z, inv_sqrt_fact, d))))
for z in RATIOS:
    CASES.append((f"modal_coherent-{z}", lambda z=z: modal_coherent_coeffs(z, 12),
                  lambda z=z: to_numpy(ref_series(z, inv_sqrt_fact, 12))))
for r, phi in ((0.0, 0.0), (0.4, 0.0), (1.3, 0.7), (0.8, -2.9), (2.0, np.pi)):
    for dim in (3, 40):
        CASES.append((f"squeezed-{r}-{phi}-{dim}",
                      lambda r=r, phi=phi, d=dim: squeezed_vacuum_closed_form(r, phi, d).amps,
                      lambda r=r, phi=phi, d=dim: even_ket(mp.tanh(r) / 2 * mp.expj(phi), d)))
for theta in (0.0, 0.5, -0.5, -1.7):
    CASES.append((f"theta_vacuum-{theta}",
                  lambda t=theta: squeezed_vacuum_closed_form(t, 0.0, 39).amps,
                  lambda t=theta: even_ket(mp.tanh(t) / 2, 39)))
for k, xi in ((0.5, 0.0), (0.75, 0.4 + 0.2j), (1.5, -0.6), (2.0, -0.3 - 0.9j), (300.0, 0.2j)):
    CASES.append((f"perelomov-{k}-{xi}",
                  lambda k=k, xi=xi: perelomov_state(k, xi, 40).amps,
                  lambda k=k, xi=xi: to_numpy(ref_series(
                      kappa(xi), lambda j: mp.sqrt(mp.gamma(j + 2 * k) / mp.factorial(j)), 40))))
for k in (0.5, 0.75, 1.0, 150.5, 300.0):
    for kap in (0.0, 0.6, -0.45, 0.3 + 0.4j):
        CASES.append((f"perelomov_series-{k}-{kap}",
                      lambda k=k, kap=kap: perelomov_series(k, kap, 40),
                      lambda k=k, kap=kap: to_numpy(ref_series(
                          kap, lambda j: mp.sqrt(mp.gamma(j + 2 * k) / mp.factorial(j)), 40))))
for zeta, q in ((0.0, 2), (0.8 + 0.2j, 1), (-1.5, 0), (-0.5 - 0.2j, 3), (2.0, 300)):
    CASES.append((f"pair_coherent-{zeta}-{q}",
                  lambda z=zeta, q=q: pair_coherent(z, q, 16).amps,
                  lambda z=zeta, q=q: sector(pair_terms(z, q, 16), q, 16)))
    CASES.append((f"parity_pair-{zeta}-{q}", lambda z=zeta, q=q: parity_pair_state(z, q, 16).amps,
                  lambda z=zeta, q=q: sector(
                      [parity_sign(n) * t for n, t in enumerate(pair_terms(z, q, 16))], q, 16)))
    CASES.append((f"parity_superposition-{zeta}-{q}",
                  lambda z=zeta, q=q: parity_pair_superposition(z, q, 16).amps,
                  lambda z=zeta, q=q: sector(superposition_terms(z, q, 16), q, 16)))
for xi, q in ((0.0, 1), (0.5, 0), (-0.4 + 0.3j, 2), (1.1j, 5)):
    CASES.append((f"two_mode_perelomov-{xi}-{q}",
                  lambda xi=xi, q=q: two_mode_perelomov_closed_form(xi, q, 40).amps,
                  lambda xi=xi, q=q: sector(ref_series(
                      kappa(xi), lambda n: mp.sqrt(mp.binomial(n + q, n)), 40), q, 40)))
for r, phi, m in ((0.0, 0.0, 1), (0.5, 0.3, 2), (1.2, -1.0, 3), (-0.7, 0.0, 1)):
    CASES.append((f"phase_squeeze-{r}-{phi}-{m}",
                  lambda r=r, phi=phi, m=m: phase_squeeze_closed_form(r, phi, m, 40).amps,
                  lambda r=r, phi=phi, m=m: phase_ket(r, phi, m, 40)))
# the m = 1 profile at tanh r e^{i phi} = beta
for beta in RATIOS:
    CASES.append((f"phase_profile-{beta}",
                  lambda b=beta: phase_squeeze_closed_form(
                      np.arctanh(abs(b)), np.angle(b), 1, 40).amps,
                  lambda b=beta: to_numpy(ref_series(b, one, 40))))
for theta, dims in ((0.0, (5, 5)), (0.5, (32, 32)), (-0.8, (40, 23)), (1.4, (9, 13))):
    CASES.append((f"two_mode_theta-{theta}-{dims}",
                  lambda t=theta, d=dims: two_mode_theta_vacuum(t, d).amps,
                  lambda t=theta, d=dims: diagonal(ref_series(mp.tanh(t), one, min(d)), d)))


# At k = 300 and |kappa| >= 0.45 the mass sits where the log weights reach
# 1690, which float64 holds to 2.3e-13, so the amplitudes miss 1e-13 by
# about 4 %; weights taken relative to j = 0 would hold 4e-15 (ROADMAP item 1)
COARSE_WEIGHTS = pytest.mark.xfail(
    strict=True, reason="log weights near 1690 carry 2.3e-13 of rounding")
COARSE = {"perelomov_series-300.0--0.45", "perelomov_series-300.0-(0.3+0.4j)"}


@pytest.mark.parametrize("build, ref", [
    pytest.param(*c[1:], id=c[0], marks=[COARSE_WEIGHTS] if c[0] in COARSE else [])
    for c in CASES
])
def test_builder_matches_mpmath_reference(build, ref):
    got, want = build(), ref()
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_ratio_zero_gives_the_first_basis_vector():
    for weights in (np.zeros(2), np.array([3.0, -1e3, 7e2, 0.5])):
        out = log_series(weights, 0)
        assert out.dtype == complex
        assert np.array_equal(out, np.eye(weights.size)[0])


@pytest.mark.parametrize("ratio", [0.7, -1.3, 0.4 - 2.2j])
def test_series_scales_by_its_largest_term(ratio):
    # a common factor e^{+-1000} would overflow or underflow every term;
    # adding 1000 to a log weight costs about 1e-13 of relative precision
    weights = -0.5 * np.log(np.arange(1.0, 31.0)).cumsum()
    base = log_series(weights, ratio)
    for shift in (-1000.0, 1000.0):
        assert np.allclose(log_series(weights + shift, ratio), base, rtol=0.0, atol=1e-12)


def test_log_gamma_matches_scipy_on_the_builder_grids():
    # the weights use n+1 and n+q+1 (coherent, pair), 2j+1 (squeezed and
    # theta vacua) and j+2k (Perelomov; the two-mode Perelomov has 2k = q+1);
    # near the zeros of ln Gamma at 1 and 2 the bound is absolute, which is
    # the relative error the log weight passes on to its amplitude
    n = np.arange(20001.0)
    grids = [n + 1.0, 2.0 * n + 1.0]
    grids += [n + 2.0 * k for k in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 300.0)]
    grids += [n + q + 1.0 for q in (1, 3, 300)]
    for x in grids:
        got, want = log_gamma(x), gammaln(x)
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))
