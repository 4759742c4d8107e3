"""Coherent states: eigenvalue property, displacement algebra, dynamics."""

import numpy as np
import pytest

from fockbench.coherent import (
    CoherentSpec,
    EvolutionSpec,
    classical_trajectory,
    coherent_ladder,
    coherent_wavefunction,
    completeness_quadrature,
    displacement_compose,
    displacement_operator,
    evolve_coherent,
    overlap_analytic,
)
from fockbench.fock import build_ladder, quadrature_report


@pytest.mark.parametrize("alpha", [0.5, 1 + 1j, 2.0, 3.0, -2.5j])
def test_annihilation_eigenstate(alpha):
    dim = 96
    st = coherent_ladder(CoherentSpec(alpha, dim))
    a, _ = build_ladder(dim)
    assert np.linalg.norm(a @ st.amps - alpha * st.amps) <= 1e-8


@pytest.mark.parametrize("alpha", [0.7, 1 + 1j, 2.0])
def test_poisson_statistics(alpha):
    dim = 96
    st = coherent_ladder(CoherentSpec(alpha, dim))
    probs = np.abs(st.amps) ** 2
    ns = np.arange(dim)
    mean = probs @ ns
    var = probs @ ns ** 2 - mean ** 2
    assert abs(mean - abs(alpha) ** 2) <= 1e-8
    assert abs(var - abs(alpha) ** 2) <= 1e-8


def test_minimum_uncertainty():
    st = coherent_ladder(CoherentSpec(1.5 - 0.5j, 96))
    rep = quadrature_report(st)
    assert abs(rep.product - 0.25) <= 1e-8
    assert abs(rep.mean_x - np.sqrt(2.0) * 1.5) <= 1e-8
    assert abs(rep.mean_p + np.sqrt(2.0) * 0.5) <= 1e-8


def test_displacement_builds_coherent_state():
    dim = 64
    alpha = 1.2 + 0.3j
    column = displacement_operator(alpha, dim)[:, 0]
    st = coherent_ladder(CoherentSpec(alpha, dim))
    assert abs(abs(np.vdot(column, st.amps)) ** 2 - 1.0) <= 1e-10


def test_displacement_inverse_on_interior():
    dim = 64
    d_fwd = displacement_operator(1.4 - 0.9j, dim)
    d_bwd = displacement_operator(-1.4 + 0.9j, dim)
    defect = np.abs((d_fwd @ d_bwd - np.eye(dim))[: dim // 2, : dim // 2]).max()
    assert defect <= 1e-9


def test_composition_phase_example():
    # alpha = 1, beta = i gives the unit phase exp(-i)
    phase, residual = displacement_compose(1.0, 1j, 64)
    assert abs(phase - np.exp(-1j)) <= 1e-12
    assert residual <= 1e-8


def test_composition_random_pairs():
    rng = np.random.default_rng(314)
    for _ in range(20):
        mags = rng.uniform(0.0, 1.0, 2)
        phases = rng.uniform(0.0, 2 * np.pi, 2)
        alpha, beta = mags * np.exp(1j * phases)
        phase, residual = displacement_compose(alpha, beta, 64)
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert residual <= 1e-8


def test_overlap_law_on_grid():
    dim = 96
    points = [0.5, -0.5, 1 + 1j, 2.0, 1.5j]
    states = {al: coherent_ladder(CoherentSpec(al, dim)) for al in points}
    for al in points:
        for alp in points:
            got = states[al].overlap(states[alp])
            want = overlap_analytic(al, alp)
            assert abs(got - want) <= 1e-9
            assert abs(abs(got) ** 2 - np.exp(-abs(al - alp) ** 2)) <= 1e-9


def test_completeness_resolution_of_identity():
    """Polar quadrature of |a><a|/pi reproduces the identity weakly.

    Only the bottom half of the truncated space is judged: levels near
    the cutoff lose amplitude weight to the discarded tail, so their
    diagonal entries sag regardless of how fine the grid is.  The frozen
    midpoint-rule defect on the lowest 16 levels is 8.14e-5 for radius 6
    with a 192 x 192 grid at dim 32; the bound leaves room for rounding
    drift only.
    """
    dim = 32
    matrix = completeness_quadrature(6.0, 192, 192, dim)
    half = dim // 2
    defect = np.abs((matrix - np.eye(dim))[:half, :half]).max()
    assert defect <= 1e-4
    assert abs(defect - 8.139411966578969e-05) <= 1e-9


def test_evolution_keeps_coherence():
    dim = 64
    alpha0 = 1.1 + 0.6j
    for t in (0.3, np.pi / 4, np.pi):
        st = evolve_coherent(EvolutionSpec(alpha0, t), dim)
        a, _ = build_ladder(dim)
        rotated = np.exp(-1j * t) * alpha0
        assert np.linalg.norm(a @ st.amps - rotated * st.amps) <= 1e-8


def test_classical_trajectory_values():
    ts = np.linspace(0.0, 2 * np.pi, 101)
    xs = classical_trajectory(2.0 * np.exp(0.4j), ts)
    assert xs[0] == pytest.approx(2 * np.sqrt(2.0) * np.cos(0.4))
    assert np.abs(xs).max() <= 2 * np.sqrt(2.0) + 1e-12
    with pytest.raises(ValueError):
        classical_trajectory(1.0, np.array([0.0, 0.1, 0.3]))


def test_wavefunction_norm_and_center():
    alpha = 1.3
    xs = np.linspace(-12, 14, 3001)
    wf = coherent_wavefunction(alpha, xs)
    assert abs(wf.norm - 1.0) <= 1e-10
    dens = np.abs(wf.values) ** 2
    mean_x = float(np.sum(wf.xs * dens) * wf.dx)
    assert abs(mean_x - np.sqrt(2.0) * alpha) <= 1e-8
    with pytest.raises(ValueError):
        coherent_wavefunction(4.0, np.linspace(-2, 2, 101))
