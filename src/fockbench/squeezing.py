"""Single-mode and two-mode squeezing.

Single mode: S = exp((xi a+^2 - xi* a^2)/2) with xi = r e^{i phi}, its
closed-form vacuum expansion (at phi = 0 also the hyperbolic theta-vacuum)
and the vacuum moment recurrence.

Two mode: the pair generator a1 a2, its disentangled form through the
general SU(1,1) splitting, Schmidt and noise diagnostics, the two-boson
factorization through the rotated modes L+- and the factorized Gaussian
solution of the generalized quantum condition.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .fock import (
    FockState,
    GridWavefunction,
    TwoModeState,
    build_ladder,
    fock_basis_state,
    ladder_exp_action,
    ladder_exp_dense,
    ladder_matrix,
    ladder_moments,
    ladder_nilpotent_exp,
    log_gamma,
    log_series,
    matrix_exponential,
    quadrature_moments,
)
from .twomode import (
    band_adjoint,
    band_apply,
    band_product,
    charge_sectors,
    ladders_banded,
    number_diagonals,
)
from .su11 import perelomov_series


# ---------------------------------------------------------------- single mode


def squeeze_operator(xi: complex, dim: int) -> np.ndarray:
    """Dense exp((xi a+^2 - xi* a^2)/2) by the Pade route."""
    ns = np.arange(dim, dtype=float)
    return ladder_exp_dense(np.sqrt(ns * (ns - 1.0)), 2, xi / 2.0)


def squeeze_action(xi: complex, v: np.ndarray) -> np.ndarray:
    """exp((xi a+^2 - xi* a^2)/2) v on the len(v)-level basis."""
    ns = np.arange(len(v), dtype=float)
    return ladder_exp_action(np.sqrt(ns * (ns - 1.0)), 2, xi / 2.0, v)


def squeezed_vacuum(r: float, phi: float, dim: int) -> FockState:
    """S(r e^{i phi})|0> on the dim-level basis, for r >= 0."""
    if r < 0:
        raise ValueError("squeeze magnitude must be nonnegative")
    xi = r * np.exp(1j * phi)
    return FockState(squeeze_action(xi, fock_basis_state(dim, 0).amps)).normalized()


def squeezed_vacuum_closed_form(r: float, phi: float, dim: int) -> FockState:
    """Even-ket expansion exp(ratio a+^2)|0> of the squeezed vacuum,
    renormalized on the dim-level basis; at phi = 0 and r of either sign,
    the theta-vacuum, annihilated by a cosh r - a+ sinh r.

    amps_{2j} is proportional to ratio^j sqrt((2j)!)/j! with ratio =
    e^{i phi} tanh r / 2.  The factor 2^{-j} is required for the expansion
    to reproduce the exponential construction; see the uncertainty and
    fidelity tests.
    """
    js = np.arange((dim + 1) // 2)
    amps = np.zeros(dim, dtype=complex)
    ratio = np.tanh(r) / 2.0 * np.exp(1j * phi)
    amps[::2] = log_series(0.5 * log_gamma(2.0 * js + 1.0) - log_gamma(js + 1.0), ratio)
    return FockState(amps)


def squeeze_operator_factored(xi: complex, dim: int) -> np.ndarray:
    """Squeeze operator as the ordered product of up, diagonal and down
    exponentials obtained from the general disentangling coefficients."""
    gamma0, gamma_plus, gamma_minus = su11_disentangle_general(0.0, xi, -np.conj(xi))
    ns = np.arange(dim, dtype=float)
    weights = np.sqrt(ns * (ns - 1.0))  # a^2 |n> = weights[n] |n - 2>
    up = ladder_nilpotent_exp(weights, 2, gamma_plus / 2.0).T
    down = ladder_nilpotent_exp(weights, 2, gamma_minus / 2.0)
    middle = np.exp(np.log(gamma0) * (ns + 0.5) / 2.0)
    return (up * middle) @ down


def squeezed_wavefunction(s: float, x0: float, p0: float, xs: np.ndarray) -> GridWavefunction:
    """Gaussian of width s centered at (x0, p0), grid normalized."""
    if s <= 0:
        raise ValueError("width must be positive")
    xs = np.asarray(xs, dtype=float)
    dx = float(xs[1] - xs[0])
    # steps of at most 2s resolve the width: 8 or more span [x0 - 8s, x0 + 8s]
    if xs[0] > x0 - 8.0 * s or xs[-1] < x0 + 8.0 * s or not dx <= 2.0 * s:
        raise ValueError(f"grid [{xs[0]:g}, {xs[-1]:g}] in steps of {dx:g} must cover "
                         f"[{x0 - 8 * s:g}, {x0 + 8 * s:g}] in steps of at most 2s = {2 * s:g}")
    psi = np.exp(-((xs - x0) ** 2) / (2.0 * s * s) + 1j * p0 * xs)
    return GridWavefunction(float(xs[0]), dx, psi).normalized()


def bogoliubov_matrix(theta: float) -> np.ndarray:
    """Hyperbolic mixing [[cosh t, -sinh t], [-sinh t, cosh t]] of a and a+."""
    ch, sh = np.cosh(theta), np.sinh(theta)
    return np.array([[ch, -sh], [-sh, ch]])


def bogoliubov_apply(
    theta: float, a: np.ndarray, adag: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """a cosh t - a+ sinh t and its adjoint."""
    if a.shape != adag.shape:
        raise ValueError("ladder matrices must share a shape")
    ch, sh = np.cosh(theta), np.sinh(theta)
    a_theta = ch * a - sh * adag
    return a_theta, a_theta.conj().T


def theta_vacuum_residual(theta: float, dim: int) -> float:
    """Norm of (a cosh t - a+ sinh t) applied to the theta-vacuum."""
    state = squeezed_vacuum_closed_form(theta, 0.0, dim)
    rotated, _ = bogoliubov_apply(theta, *build_ladder(dim))
    return float(np.linalg.norm(rotated @ state.amps))


def vacuum_moment_u(theta: float, n: int, dim: int) -> complex:
    """Numeric vacuum moment <0| a^{2n} S_theta |0>."""
    if n < 1:
        raise ValueError("moment order must be positive")
    if 2 * n >= dim // 2:
        raise ValueError("moment order too large for this truncation")
    xi = abs(theta) * np.exp(1j * (0.0 if theta >= 0 else np.pi))
    psi = squeeze_action(xi, fock_basis_state(dim, 0).amps)
    # <0| a^{2n} = sqrt((2n)!) <2n|
    return complex(math.sqrt(math.factorial(2 * n)) * psi[2 * n])


def vacuum_moment_closed_form(theta: float, n: int) -> complex:
    """k_n cosh^{-1/2}(theta) tanh^n(theta) with k_n = (2n-1)!! ."""
    k_n = math.factorial(2 * n - 1) // (math.factorial(n - 1) * 2 ** (n - 1))
    return complex(k_n * np.cosh(theta) ** -0.5 * np.tanh(theta) ** n)


# ----------------------------------------------------------------- splitting


def su11_disentangle_general(
    zeta0: complex, zeta_plus: complex, zeta_minus: complex
) -> tuple[complex, complex, complex]:
    """Coefficients (g0, g+, g-) of exp(z0 K0 + z+ K+ + z- K-) as an
    ordered product exp(g+ K+) exp(ln g0 K0) exp(g- K-).

    theta^2 = z0^2/4 - z+ z-; negative theta^2 continues through the
    complex square root and the series limit covers theta -> 0.
    """
    zeta0 = complex(zeta0)
    zeta_plus = complex(zeta_plus)
    zeta_minus = complex(zeta_minus)
    theta_sq = zeta0 * zeta0 / 4.0 - zeta_plus * zeta_minus
    theta = cmath.sqrt(theta_sq)
    if abs(theta) < 1e-8:
        sinhc = 1.0 + theta_sq / 6.0
        cosh = 1.0 + theta_sq / 2.0
    else:
        sinhc = cmath.sinh(theta) / theta
        cosh = cmath.cosh(theta)
    base = cosh - (zeta0 / 2.0) * sinhc
    if abs(base) < 1e-12:
        raise ZeroDivisionError(f"disentanglement singular at theta = {theta!r}")
    gamma0 = base ** -2.0
    gamma_plus = zeta_plus * sinhc / base
    gamma_minus = zeta_minus * sinhc / base
    return gamma0, gamma_plus, gamma_minus


def disentangle_identity_residual(
    zeta0: complex, zeta_plus: complex, zeta_minus: complex, dims: tuple[int, int]
) -> float:
    """Interior residual of the splitting identity in the two-mode
    realization K+ = a1+ a2+, K- = a1 a2, K0 = (N1 + N2 + 1)/2.

    The factors act unboundedly, so the comparison is restricted to the
    block n1, n2 < dims/3 where the truncated exponentials are converged;
    entries nearer the edge are truncation artifacts by contract.

    The identity is checked in each sector of conserved charge n1 - n2:
    K0, K+ and K- never change the charge, and truncating n1 and n2 only
    shortens each sector, so both sides are block diagonal over the sectors
    and the cross-sector entries vanish identically.  The sectors that
    reach an interior entry, zero-padded to one length, form one stack of
    blocks on each side.
    """
    da, db = dims
    cut_a, cut_b = da // 3, db // 3
    if cut_a < 1 or cut_b < 1:
        raise ValueError("dims must be at least 3 for a non-empty interior block")
    gamma0, gamma_plus, gamma_minus = su11_disentangle_general(zeta0, zeta_plus, zeta_minus)
    n1, n2, real = charge_sectors(da, db)
    keep = real & (n1 < cut_a) & (n2 < cut_b)
    reach = keep.any(axis=1)
    n1, n2, real, keep = n1[reach], n2[reach], real[reach], keep[reach]
    k0_diag = np.where(real, (n1 + n2 + 1.0) / 2.0, 0.0)
    weights = np.sqrt(n1) * np.sqrt(n2)  # a1 a2 steps one place down the sector
    kminus = ladder_matrix(weights, 1)
    gen = zeta_minus * kminus + zeta_plus * kminus.swapaxes(1, 2)
    js = np.arange(weights.shape[1])
    gen[:, js, js] = zeta0 * k0_diag
    lhs = matrix_exponential(gen)
    up = ladder_nilpotent_exp(weights, 1, gamma_plus).swapaxes(1, 2)
    middle = np.exp(np.log(gamma0) * k0_diag)
    rhs = (up * middle[:, None, :]) @ ladder_nilpotent_exp(weights, 1, gamma_minus)
    return float(np.abs((lhs - rhs)[keep[:, :, None] & keep[:, None, :]]).max())


# ------------------------------------------------------------------ two mode


def schmidt_profile(state: TwoModeState, floor: float = 1e-4) -> dict:
    """Off-diagonal mass and the ratio ladder of the diagonal amplitudes.

    Ratios are formed only where consecutive diagonal amplitudes both
    exceed `floor`; deeper entries are dominated by roundoff.
    """
    amps = state.amps
    diag = np.diag(amps)
    # summed directly: a difference of two totals leaves roundoff where
    # every off-diagonal amplitude is exactly zero
    off_weights = np.abs(amps) ** 2
    np.fill_diagonal(off_weights, 0.0)
    off_mass = float(off_weights.sum())
    mags = np.abs(diag)
    usable = np.flatnonzero((mags[:-1] > floor) & (mags[1:] > floor))
    ratios = diag[usable + 1] / diag[usable]
    spread = float(np.abs(ratios - ratios.mean()).max()) if ratios.size else 0.0
    return {
        "off_diagonal_mass": off_mass,
        "ratios": ratios,
        "ratio_spread": spread,
    }


def two_mode_theta_vacuum(Theta: float, dims: tuple[int, int]) -> TwoModeState:
    """Geometric pair expansion exp(a1+ a2+ tanh T)|0,0>, renormalized."""
    amps = np.zeros(dims, dtype=complex)
    np.fill_diagonal(amps, perelomov_series(0.5, np.tanh(Theta), min(dims)))
    return TwoModeState(amps)


def two_mode_noise_report(state: TwoModeState) -> dict:
    """Per-mode variances, quadrature cross correlations and the margin
    of the correlated uncertainty inequality.

    margin = var_x1 * var_p1 - 1/4 - <dx1 dx2><dp1 dp2>, nonnegative for
    the pair-correlated vacuum.  The cross terms follow from <a1 a2> and
    <a1+ a2>: <x1 x2> = Re<a1 a2> + Re<a1+ a2>, <p1 p2> = Re<a1+ a2> - Re<a1 a2>.
    """
    psi = state.amps
    root1, root2 = (np.sqrt(np.arange(d)) for d in state.dims)
    mx1, mp1, var_x1, var_p1 = quadrature_moments(ladder_moments(psi, root1, axis=0))
    mx2, mp2, var_x2, var_p2 = quadrature_moments(ladder_moments(psi, root2, axis=1))
    low1 = root1[1:, None] * psi[1:]  # a1 psi
    pair = np.vdot(psi[:-1, :-1], root2[1:] * low1[:, 1:]).real  # Re<a1 a2>
    hop = np.vdot(low1[:, :-1], root2[1:] * psi[:-1, 1:]).real  # Re<a1+ a2>
    cross_x = float(pair + hop) - mx1 * mx2
    cross_p = float(hop - pair) - mp1 * mp2
    cross_product = cross_x * cross_p
    margin = var_x1 * var_p1 - 0.25 - cross_product
    return {
        "var_x1": var_x1,
        "var_p1": var_p1,
        "var_x2": var_x2,
        "var_p2": var_p2,
        "cross_x": cross_x,
        "cross_p": cross_p,
        "cross_product": cross_product,
        "margin": margin,
    }


def lambda_mode_factorization(Theta: float, dims: tuple[int, int]) -> tuple[float, float, float]:
    """Cross-check of the rotated-mode route to the pair vacuum.

    Builds L+- = (a1 +- i a2)/sqrt2, checks their boson algebra, then
    compares exp((i/2)(L+^2+ - L-^2+) tanh T)|0,0> against the geometric
    pair expansion; that generator is a1+ a2+ tanh T, which is nilpotent.
    Returns (commutator defect, vacuum annihilation defect, 1 - fidelity).
    """
    da, db = dims
    a1, a2 = ladders_banded(da, db)
    scale = 1.0 / np.sqrt(2.0)
    lam_p = {db: a1[db] * scale, 1: 1j * a2[1] * scale}
    lam_m = {db: a1[db] * scale, 1: -1j * a2[1] * scale}
    n1, n2 = number_diagonals(da, db)
    interior = {0: ((n1 < da - 1) & (n2 < db - 1)).astype(float)}

    def commutator_defect(x, y, delta: float) -> float:
        """Largest entry of [x, y+] - delta I on the interior."""
        y_dag = band_adjoint(y)
        xy, yx = band_product(x, y_dag), band_product(y_dag, x)
        comm = {
            k: xy.get(k, 0.0) - yx.get(k, 0.0) - (delta if k == 0 else 0.0)
            for k in xy.keys() | yx.keys()
        }
        inner = band_product(band_product(interior, comm), interior)
        return max(float(np.abs(band).max()) for band in inner.values())

    comm = max(
        commutator_defect(lam_p, lam_p, 1.0),
        commutator_defect(lam_m, lam_m, 1.0),
        commutator_defect(lam_p, lam_m, 0.0),
    )

    vac = np.zeros(da * db, dtype=complex)
    vac[0] = 1.0
    annih = max(
        float(np.linalg.norm(band_apply(lam_p, vac))),
        float(np.linalg.norm(band_apply(lam_m, vac))),
    )

    up = band_adjoint(lam_p)
    dn = band_adjoint(lam_m)
    up2, dn2 = band_product(up, up), band_product(dn, dn)
    gen = {}
    for k in up2.keys() | dn2.keys():
        band = (1j / 2.0) * (up2.get(k, 0.0) - dn2.get(k, 0.0)) * np.tanh(Theta)
        if band.any():  # the a1+^2 and a2+^2 parts cancel exactly
            gen[k] = band
    built = _nilpotent_action(gen, vac)
    built = built / np.linalg.norm(built)
    target = two_mode_theta_vacuum(Theta, dims)
    deficit = 1.0 - abs(np.vdot(built, target.amps.ravel())) ** 2
    return comm, annih, float(deficit)


def _nilpotent_action(gen: dict, v: np.ndarray) -> np.ndarray:
    """exp(gen) v for a nilpotent banded gen: the Taylor series up to its
    first vanishing term, which comes after at most len(v) products."""
    out = term = v
    for k in range(1, v.size + 1):
        term = band_apply(gen, term) / k
        if not term.any():
            break
        out = out + term
    return out


# ------------------------------------------------- generalized condition


def generalized_condition_solution(Theta: float, c: float) -> tuple[bool, bool, float]:
    """Factorized Gaussian solution of the first-order two-coordinate
    condition with mu = cosh T, nu = -sinh T and the linear couplings
    f(x1) = -x1, g(x2) = -x2.

    phi(x1) = exp[(c x1 - (mu+nu) x1^2/2)/mu] on a wide window; the
    second factor chi(x2) has a growing quadratic exponent for T > 0, so
    it is evaluated on a window shrunk with |nu| and scaled to unit peak.
    Normalizability of each factor is decided from the sign of its
    quadratic exponent and reported, never assumed.  The residual of the
    product against the defining equation is measured by centered finite
    differences on a 256 x 256 subsample of the two axes.
    Returns (phi normalizable, chi normalizable, residual).
    """
    if abs(Theta) < 0.1:
        raise ValueError("the factor equation degenerates as T -> 0")
    mu = float(np.cosh(Theta))
    nu = float(-np.sinh(Theta))
    if mu + nu <= 0:
        raise ValueError("phi factor would not be normalizable")
    half = min(1.0, max(0.25, 3.0 * abs(nu)))
    x1 = np.linspace(-8.0, 8.0, 2048)
    x2 = np.linspace(-half, half, 2048)

    q1 = (c * x1 - (mu + nu) * x1 * x1 / 2.0) / mu
    q2 = (c * x2 - (mu - nu) * x2 * x2 / 2.0) / nu
    phi = np.exp(q1 - q1.max())
    chi = np.exp(q2 - q2.max())
    h1 = x1[1] - x1[0]
    h2 = x2[1] - x2[0]
    dphi = np.gradient(phi, h1, edge_order=2)
    dchi = np.gradient(chi, h2, edge_order=2)

    sub = np.arange(1, x1.size - 1, 8)  # every 8th interior point: 256 per axis
    s_x1, s_phi, s_dphi = x1[sub], phi[sub], dphi[sub]
    s_x2, s_chi, s_dchi = x2[sub], chi[sub], dchi[sub]
    # mu (d/dx1 + x1 - x2) + nu (x1 + x2 - d/dx2) applied to phi(x1) chi(x2):
    # two outer products, summed by one (256 x 2) @ (2 x 256) product
    left = np.stack((mu * s_dphi + (mu + nu) * s_x1 * s_phi, s_phi), axis=1)
    res = left @ np.stack((s_chi, (nu - mu) * s_x2 * s_chi - nu * s_dchi))
    residual = float(max(res.max(), -res.min()))

    phi_norm = -(mu + nu) / (2.0 * mu) < 0
    chi_norm = -(mu - nu) / (2.0 * nu) < 0
    return bool(phi_norm), bool(chi_norm), residual
