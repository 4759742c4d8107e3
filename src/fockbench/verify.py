"""Named verification suites over the module invariants.

Every check is normalized to the form measured <= bound so that a single
tolerance scale can tighten or loosen a whole run.  Fidelity statements
are recorded as deficits (1 - F) and inequalities as violation amounts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import coherent as co
from . import phase as ph
from . import squeezing as sq
from . import sqm
from . import su11
from .fock import (
    FockState,
    build_ladder,
    build_quadratures,
    fock_basis_state,
    ladder_moments,
    matrix_exponential,
    max_abs_interior,
    number_moments,
    number_operator,
    quadrature_moments,
    quadrature_report,
)


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks: list[Check]
    # wall time stays out of serialized artifacts so that repeated runs
    # produce byte-identical files; it is reported on stderr instead
    wall_time_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _deficit(f: float) -> float:
    return max(0.0, 1.0 - f)


def _pinned(cfg: dict, name: str, default, low: float, high: float):
    """The pinned value of `name` (zero included), `default` when unpinned; a
    magnitude outside [low, high] is refused by its flag."""
    value = cfg.get(name)
    if value is not None and not low <= abs(value) <= high:
        upper = f" <= {high:g}" if high < np.inf else ""
        raise ValueError(f"--{name} {value:g} is out of the range {low:g} <= |{name}|{upper}")
    return default if value is None else value


def _violation(value: float, floor: float) -> float:
    """Amount by which `value` undershoots `floor` (0 when satisfied)."""
    return max(0.0, floor - value)


# ----------------------------------------------------------------- suites


def suite_ho_algebra(dim) -> list[Check]:
    checks = []
    for d in (8, 16, 32, 64):
        a, adag = build_ladder(d)
        defect = max_abs_interior(a @ adag - adag @ a - np.eye(d), d - 1)
        checks.append(Check(f"ladder commutator interior dim {d}", defect, 1e-12))
    a, adag = build_ladder(dim)
    n_op = number_operator(dim)
    checks.append(
        Check("[N, a] = -a interior", max_abs_interior(n_op @ a - a @ n_op + a, dim - 1), 1e-12)
    )
    checks.append(
        Check(
            "[N, a+] = a+ interior",
            max_abs_interior(n_op @ adag - adag @ n_op - adag, dim - 1),
            1e-12,
        )
    )
    x, p = build_quadratures(dim)
    herm = max(
        np.abs(x - x.conj().T).max(),
        np.abs(p - p.conj().T).max(),
        np.abs(n_op - n_op.conj().T).max(),
    )
    checks.append(Check("hermiticity of x, p, N", float(herm), 1e-14))

    # uncertainty floor over random states supported away from the edge, one
    # per column, each drawn as its real part then its imaginary part
    rng = np.random.default_rng(20240817)
    support = max(2, int(dim * 0.6))
    raw = rng.standard_normal((1000, 2, support))
    raw = raw[:, 0] + 1j * raw[:, 1]
    amps = np.zeros((dim, 1000), dtype=complex)
    amps[:support] = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).T
    moments = ladder_moments(amps, np.sqrt(np.arange(dim)), batch=True)
    _, _, var_x, var_p = quadrature_moments(moments)
    worst = float((var_x * var_p).min())
    checks.append(Check("uncertainty floor, 1000 random states", _violation(worst, 0.25), 1e-9))

    xa = 1j * np.pi * x[:16, :16]
    group = np.abs(
        matrix_exponential(xa) @ matrix_exponential(2 * xa) - matrix_exponential(3 * xa)
    ).max()
    checks.append(Check("exponential group law, commuting pair", float(group), 1e-10))
    return checks


def suite_coherent(dim, alpha) -> list[Check]:
    alphas = [0.5, 1 + 1j, 2.0, 3.0]
    if alpha is not None and alpha not in alphas:
        alphas.append(alpha)
    checks = []
    a, _ = build_ladder(dim)
    worst_eig = worst_mean = worst_var = worst_prod = 0.0
    for al in alphas:
        st = co.coherent_ladder(al, dim)
        worst_eig = max(worst_eig, float(np.linalg.norm(a @ st.amps - al * st.amps)))
        product = quadrature_report(st)["product"]
        mean_n, var_n = number_moments(st)
        worst_mean = max(worst_mean, abs(mean_n - abs(al) ** 2))
        worst_var = max(worst_var, abs(var_n - abs(al) ** 2))
        worst_prod = max(worst_prod, abs(product - 0.25))
    checks.append(Check("annihilation eigen-residual", worst_eig, 1e-8))
    checks.append(Check("Poisson mean = |alpha|^2", worst_mean, 1e-8))
    checks.append(Check("Poisson variance = |alpha|^2", worst_var, 1e-8))
    checks.append(Check("uncertainty product = 1/4", worst_prod, 1e-8))

    d_fwd = co.displacement_operator(1.2 - 0.4j, dim)
    d_bwd = co.displacement_operator(-1.2 + 0.4j, dim)
    m = dim // 2
    inv = max_abs_interior(d_fwd @ d_bwd - np.eye(dim), m)
    checks.append(Check("displacement inverse on interior", inv, 1e-9))

    worst_overlap = 0.0
    pairs = [(0.5, 1.5), (1 + 1j, 1 - 1j), (0.0, 2.0), (0.3j, 1.1)]
    for al, alp in pairs:
        num = co.coherent_ladder(al, dim).overlap(co.coherent_ladder(alp, dim))
        worst_overlap = max(
            worst_overlap, abs(abs(num) ** 2 - np.exp(-abs(al - alp) ** 2))
        )
    checks.append(Check("overlap modulus law", worst_overlap, 1e-9))
    return checks


def suite_time_evolution(dim, alpha) -> list[Check]:
    a, adag = build_ladder(dim)
    h = adag @ a + 0.5 * np.eye(dim)
    base = co.coherent_ladder(alpha, dim)
    checks = []
    worst_fid = worst_norm = 0.0
    for t in (np.pi / 4, np.pi, 2 * np.pi):
        label = co.evolve_coherent(alpha, t, dim)
        direct = matrix_exponential(-1j * t * h) @ base.amps
        worst_norm = max(worst_norm, abs(np.linalg.norm(direct) - 1.0))
        worst_fid = max(worst_fid, _deficit(abs(np.vdot(direct, label.amps)) ** 2))
    checks.append(Check("label evolution matches exp(-iHt)", worst_fid, 1e-9))
    checks.append(Check("evolution preserves the norm", worst_norm, 1e-12))

    ts = np.linspace(0.0, 2 * np.pi, 1001)
    xs = co.classical_trajectory(alpha, ts)
    dt = ts[1] - ts[0]
    acc = (xs[2:] - 2 * xs[1:-1] + xs[:-2]) / dt ** 2
    shm = np.abs(acc + xs[1:-1]).max()
    checks.append(Check("harmonic motion second difference", float(shm), 1e-4))
    return checks


def suite_pair() -> list[Check]:
    checks = []
    worst = 0.0
    for k in (0.5, 0.75, 1.0, 2.0):
        kp, km, k0 = su11.su11_generators(k, 32)
        c1 = max_abs_interior(kp @ km - km @ kp + 2 * k0, 31)
        c2 = max_abs_interior(kp @ k0 - k0 @ kp + kp, 31)
        c3 = max_abs_interior(km @ k0 - k0 @ km - km, 31)
        cas = max_abs_interior(k0 @ k0 - (kp @ km + km @ kp) / 2 - k * (k - 1) * np.eye(32), 31)
        worst = max(worst, c1, c2, c3, cas)
    checks.append(Check("su(1,1) commutators and Casimir", worst, 1e-12))

    worst = 0.0
    for r in (0.25, 0.5, 1.0):
        for phi in (0.0, np.pi / 3, np.pi):
            xi = -(r / 2.0) * np.exp(-1j * phi)
            closed = su11.perelomov_state(1.0, xi, 48)
            worst = max(worst, _deficit(closed.fidelity(su11.perelomov_exponential(1.0, xi, 48))))
    checks.append(Check("lowest-weight closed form vs exponential", worst, 1e-8))

    zeta, q = 1 + 1j, 2
    st = su11.pair_coherent(zeta, q, 32)
    eig, charge = su11.pair_residuals(st, zeta, q)
    checks.append(Check("pair eigen-residual", eig, 1e-8))
    checks.append(Check("charge-sector residual", charge, 1e-10))

    other = su11.pair_coherent(1.0, 3, 32)
    cross = abs(np.vdot(other.amps[:34], st.amps))
    checks.append(Check("different charges orthogonal", float(cross), 1e-14))

    checks.append(
        Check("nonlinear lowering relation", su11.perelomov_nonlinear_residual(0.5, 0, 40), 1e-7)
    )
    pp = su11.parity_pair_state(1.0, 0, 32)
    sup = su11.parity_pair_superposition(1.0, 0, 32)
    checks.append(Check("alternating-sign superposition", _deficit(pp.fidelity(sup)), 1e-8))
    return checks


def suite_phase(dim) -> list[Check]:
    g_minus = ph.build_phase_set(dim)
    g_plus = g_minus.conj().T
    eye = np.eye(dim)
    checks = []
    lower = max_abs_interior(g_minus @ g_plus - eye, dim - 1)
    checks.append(Check("down-up product is identity on interior", lower, 0.0))
    vac = np.zeros((dim, dim))
    vac[0, 0] = 1.0
    defect = max_abs_interior(g_minus @ g_plus - g_plus @ g_minus - vac, dim - 1)
    checks.append(Check("unitarity defect is the vacuum projector", defect, 0.0))

    r_minus = ph.build_omega_ops(1, dim)  # R+- = Omega_1+-
    r_plus, n_op = r_minus.conj().T, number_operator(dim)
    comm = max_abs_interior(r_minus @ r_plus - r_plus @ r_minus - 2 * n_op - eye, dim - 2)
    checks.append(Check("number-shift ladder commutator", comm, 1e-12))
    worst = 0.0
    for m in (1, 2, 3):
        worst = max(worst, ph.omega_commutator_defect(ph.build_omega_ops(m, dim), m))
    checks.append(Check("m-step ladder commutators", worst, 1e-12))

    worst = 0.0
    for s in (fock_basis_state(dim, 3), co.coherent_ladder(3.0, 96)):
        dcos_dn, bound_sin, dsin_dn, bound_cos = ph.number_phase_uncertainty(s)
        worst = max(worst, _violation(dcos_dn, bound_sin), _violation(dsin_dn, bound_cos))
    checks.append(Check("number-phase uncertainty inequalities", worst, 1e-12))

    worst = 0.0
    for m in (1, 2, 3):
        st = ph.phase_squeezed_vacuum(0.5, 0.3, m, dim)
        cf = ph.phase_squeeze_closed_form(0.5, 0.3, m, dim)
        worst = max(worst, _deficit(st.fidelity(cf)))
    checks.append(Check("geometric profile of the ladder unitary", worst, 1e-7))
    return checks


def suite_single_squeeze(dim) -> list[Check]:
    checks = []
    worst = 0.0
    for r in (0.5, 1.0, 1.5):
        s_op = sq.squeeze_operator(r * np.exp(1j * 0.4), dim)
        m = int(dim * 0.75)
        worst = max(worst, max_abs_interior(s_op.conj().T @ s_op - np.eye(dim), m))
    checks.append(Check("squeeze unitarity on interior", worst, 1e-8))

    worst_prod = worst_even = 0.0
    for r in (0.3, 0.8):
        # principal axes only: any other phase rotates the minimal
        # quadrature pair away from (x, p)
        for phi in (0.0, np.pi):
            st = sq.squeezed_vacuum(r, phi, dim)
            worst_prod = max(worst_prod, abs(quadrature_report(st)["product"] - 0.25))
            worst_even = max(worst_even, float(np.abs(st.amps[1::2]).max()))
    checks.append(Check("squeezed vacuum saturates the product", worst_prod, 1e-8))
    checks.append(Check("even-photon support", worst_even, 1e-14))

    hyp = sq.bogoliubov_matrix(0.7)
    det = float(hyp[0, 0] * hyp[1, 1] - hyp[0, 1] * hyp[1, 0])
    checks.append(Check("hyperbolic map determinant", abs(det - 1.0), 1e-14))
    a_th, adag_th = sq.bogoliubov_apply(0.7, *build_ladder(64))
    comm = max_abs_interior(a_th @ adag_th - adag_th @ a_th - np.eye(64), 63)
    checks.append(Check("commutator preserved under the map", comm, 1e-10))
    comp = np.abs(hyp @ sq.bogoliubov_matrix(0.4) - sq.bogoliubov_matrix(1.1)).max()
    checks.append(Check("hyperbolic composition", float(comp), 1e-12))

    worst = 0.0
    for r in (0.25, 0.5):
        direct = sq.squeeze_operator(r, dim)
        factored = sq.squeeze_operator_factored(r, dim)
        m = int(dim / np.exp(2 * r))
        worst = max(worst, max_abs_interior(direct - factored, m))
    checks.append(Check("ordered-product splitting of the squeeze", worst, 1e-8))

    worst = 0.0
    h = 1e-4
    for n in (1, 2, 3):
        for th in (0.3, 0.6):
            lhs = (
                sq.vacuum_moment_closed_form(th + h, n) - sq.vacuum_moment_closed_form(th - h, n)
            ).real / (2 * h)
            rhs = -0.5 * sq.vacuum_moment_closed_form(th, n + 1).real + n * (
                2 * n - 1
            ) * (
                sq.vacuum_moment_closed_form(th, n - 1).real
                if n > 1
                else np.cosh(th) ** -0.5
            )
            worst = max(worst, abs(lhs - rhs))
    checks.append(Check("moment recurrence by central difference", worst, 1e-5))
    return checks


def suite_two_squeeze(theta, dim) -> list[Check]:
    checks = []
    # a pinned dim truncates the theta state only, not the s = 1 pair vacuum
    tm = su11.two_mode_perelomov(-0.5, 0, 40)  # exp((a1 a2 - a1+ a2+) / 2)|0,0>
    prof = sq.schmidt_profile(tm)
    checks.append(Check("pair-diagonal support", abs(prof["off_diagonal_mass"]), 1e-12))
    checks.append(Check("geometric ratio constancy", prof["ratio_spread"], 1e-8))

    tv = sq.two_mode_theta_vacuum(theta, (dim, dim))
    noise = sq.two_mode_noise_report(tv)
    expected = np.sinh(2 * theta) ** 2 / 4.0
    checks.append(
        Check("noise cross-term magnitude", abs(abs(noise["cross_product"]) - expected), 1e-7)
    )
    checks.append(Check("correlated uncertainty margin", _violation(noise["margin"], 0.0), 0.0))

    resid = sq.disentangle_identity_residual(0.2 + 0.1j, 0.35, -0.3j, (24, 24))
    checks.append(Check("three-factor splitting identity", resid, 1e-8))

    gamma0, gamma_plus, gamma_minus = sq.su11_disentangle_general(0.0, 0.4, -0.4)
    spec_err = max(
        abs(gamma0 - np.cosh(0.4) ** -2.0),
        abs(gamma_plus - np.tanh(0.4)),
        abs(gamma_minus + np.tanh(0.4)),
    )
    checks.append(Check("splitting specialization", float(spec_err), 1e-14))
    return checks


def suite_factorization(theta, dim) -> list[Check]:
    checks = []
    comm, annih, deficit = sq.lambda_mode_factorization(theta, (dim, dim))
    checks.append(Check("rotated-mode commutators", comm, 1e-10))
    checks.append(Check("rotated modes annihilate the vacuum", annih, 1e-12))
    checks.append(Check("rotated-mode route to the pair vacuum", max(0.0, deficit), 1e-7))

    worst = 0.0
    flags_ok = True
    for th in (0.1, 0.5):
        for c in (0.0, 1.0):
            phi_norm, chi_norm, residual = sq.generalized_condition_solution(th, c)
            worst = max(worst, residual)
            flags_ok = flags_ok and phi_norm and not chi_norm
    checks.append(Check("factorized solution satisfies the condition", worst, 1e-4))
    checks.append(
        Check("normalizability flags as measured", 0.0 if flags_ok else 1.0, 0.0)
    )
    return checks


def suite_sqm(lam) -> list[Check]:
    checks = []
    worst_ortho = worst_spec = 0.0
    for l in (-2.0, lam, 5.0):
        fam = sqm.build_family(l)
        chis = sqm.chi_states(fam, 12)
        gram = chis @ chis.T * fam.dx
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(12)).max()))
        worst_spec = max(worst_spec, max(sqm.spectral_check(fam, 6)))
    checks.append(Check("deformed basis orthonormality", worst_ortho, 1e-5))
    checks.append(Check("spectrum matches n + 1/2", worst_spec, 1e-3))

    coeffs = sqm.modal_coherent_coeffs(0.5, 12)
    checks.append(Check("modal eigen-residual", sqm.modal_eigen_residual(coeffs, 0.5), 1e-6))
    checks.append(
        Check(
            "modal uncertainty product",
            abs(quadrature_report(FockState(coeffs))["product"] - 0.25),
            1e-5,
        )
    )

    fam_inf = sqm.build_family(1e6)
    worst_limit, dx = 0.0, fam_inf.dx
    for chi, psi in zip(sqm.chi_states(fam_inf, 6), sqm.hermite_levels(fam_inf.xs, 6)):
        worst_limit = max(worst_limit, float(np.sqrt(np.sum(np.abs(chi - psi) ** 2) * dx)))
    checks.append(Check("large-parameter limit restores the oscillator", worst_limit, 1e-5))
    checks.append(
        Check(
            "deformation uniform bound",
            _violation(1.0 / 1e6 * np.pi ** -0.5, float(np.abs(fam_inf.phi_lambda).max())),
            1e-12,
        )
    )
    return checks


SUITES = {
    "ho-algebra": suite_ho_algebra,
    "coherent": suite_coherent,
    "time-evolution": suite_time_evolution,
    "pair": suite_pair,
    "phase": suite_phase,
    "single-squeeze": suite_single_squeeze,
    "two-squeeze": suite_two_squeeze,
    "factorization": suite_factorization,
    "sqm": suite_sqm,
}

# each suite's inputs, flag -> (default, low, high): a pinned value's
# magnitude must lie in [low, high], where the suite's closed forms stay in
# float range, and a dim's low is the suite's minimum dim
INPUTS = {
    # at dim 2 the random states of the uncertainty floor fill the whole basis
    "ho-algebra": {"dim": (32, 3, np.inf)},
    "coherent": {"dim": (64, 2, np.inf), "alpha": (None, 0.0, 1e150)},  # |alpha|^2
    # alpha: the trajectory's second difference
    "time-evolution": {"dim": (64, 2, np.inf), "alpha": (2.0, 0.0, 1e300)},
    "pair": {},
    "phase": {"dim": (64, 12, np.inf)},  # the m = 3 ladder needs m <= dim // 4
    "single-squeeze": {"dim": (96, 3, np.inf)},  # the splitting block int(dim / e) is not empty
    "two-squeeze": {"theta": (0.5, 0.0, 100.0), "dim": (40, 2, np.inf)},  # sinh^2(2 theta)
    "factorization": {"theta": (0.5, 0.0, np.inf), "dim": (40, 2, np.inf)},
    "sqm": {"lam": (1.0, 1e-100, 1e150)},  # lam (lam + 1) and phi^2 at the pole
}


def run_suite(name: str, cfg: dict | None = None, tol_scale: float = 1.0) -> VerifyReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    cfg = cfg or {}
    values = {flag: _pinned(cfg, flag, *record) for flag, record in INPUTS[name].items()}
    t0 = time.perf_counter()
    raw = SUITES[name](**values)
    wall = time.perf_counter() - t0
    checks = [Check(c.name, c.measured, c.bound * tol_scale) for c in raw]
    return VerifyReport(suite=name, checks=checks, wall_time_s=wall)
