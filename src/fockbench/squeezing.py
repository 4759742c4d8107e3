"""Single-mode and two-mode squeezing.

Single mode: S = exp((xi a+^2 - xi* a^2)/2) with xi = r e^{i phi}, its
closed-form vacuum expansion, the hyperbolic vacuum built from a+^2, the
vacuum moment recurrence and the number-shift route to squeezing.

Two mode: the pair generator a1 a2, its disentangled form through the
general SU(1,1) splitting, Schmidt and noise diagnostics, the two-boson
factorization through the rotated modes L+- and the factorized Gaussian
solution of the generalized quantum condition.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

from .fock import (
    FockState,
    GridWavefunction,
    TwoModeState,
    build_ladder,
    fock_basis_state,
    ladder_exp_action,
    ladder_moments,
    log_series,
    matrix_exponential,
    quadrature_moments,
)
from .twomode import charge_sectors, ladders_sparse, number_diagonals, pair_ladder

__all__ = [
    "SqueezeSpec",
    "BogoliubovMap",
    "DisentangleCoeffs",
    "GeneralizedFactorSolution",
    "squeeze_operator",
    "squeeze_action",
    "squeezed_vacuum",
    "squeezed_vacuum_closed_form",
    "squeeze_operator_factored",
    "squeezed_wavefunction",
    "theta_vacuum",
    "theta_vacuum_residual",
    "vacuum_moment_u",
    "vacuum_moment_closed_form",
    "phase_squeezed_state_SR",
    "phase_squeezed_profile",
    "su11_disentangle_general",
    "disentangle_identity_residual",
    "two_mode_squeezed_vacuum",
    "schmidt_profile",
    "two_mode_theta_vacuum",
    "two_mode_noise_report",
    "bogoliubov_apply",
    "lambda_mode_factorization",
    "generalized_condition_solution",
]


@dataclass(frozen=True)
class SqueezeSpec:
    r: float
    phi: float
    dim: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeeze magnitude must be nonnegative")

    @property
    def xi(self) -> complex:
        return self.r * np.exp(1j * self.phi)


@dataclass(frozen=True)
class BogoliubovMap:
    """Hyperbolic mixing of a and a+ with parameter theta."""

    theta: float

    @property
    def matrix(self) -> np.ndarray:
        ch, sh = np.cosh(self.theta), np.sinh(self.theta)
        return np.array([[ch, -sh], [-sh, ch]])

    @property
    def determinant(self) -> float:
        m = self.matrix
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def compose(self, other: "BogoliubovMap") -> "BogoliubovMap":
        return BogoliubovMap(self.theta + other.theta)


@dataclass(frozen=True)
class DisentangleCoeffs:
    gamma0: complex
    gamma_plus: complex
    gamma_minus: complex
    theta_sq: complex


@dataclass(frozen=True)
class GeneralizedFactorSolution:
    mu: float
    nu: float
    c: float
    phi_part: GridWavefunction
    chi_part: GridWavefunction
    phi_normalizable: bool
    chi_normalizable: bool
    pde_residual: float


# ---------------------------------------------------------------- single mode


def squeeze_operator(spec: SqueezeSpec) -> np.ndarray:
    a, adag = build_ladder(spec.dim)
    xi = spec.xi
    return matrix_exponential((xi * adag @ adag - np.conj(xi) * a @ a) / 2.0)


def squeeze_action(xi: complex, v: np.ndarray) -> np.ndarray:
    """exp((xi a+^2 - xi* a^2)/2) v on the len(v)-level basis."""
    ns = np.arange(len(v), dtype=float)
    return ladder_exp_action(np.sqrt(ns * (ns - 1.0)), 2, xi / 2.0, v)


def squeezed_vacuum(spec: SqueezeSpec) -> FockState:
    return FockState(squeeze_action(spec.xi, fock_basis_state(spec.dim, 0).amps)).normalized()


def _even_ket(ratio: complex, dim: int) -> FockState:
    """Unit ket with amps_{2j} proportional to ratio^j sqrt((2j)!)/j!,
    the expansion of exp(ratio a+^2)|0> on dim levels."""
    js = np.arange((dim + 1) // 2)
    amps = np.zeros(dim, dtype=complex)
    amps[::2] = log_series(0.5 * gammaln(2.0 * js + 1.0) - gammaln(js + 1.0), ratio)
    return FockState(amps)


def squeezed_vacuum_closed_form(spec: SqueezeSpec) -> FockState:
    """Even-ket expansion of the squeezed vacuum.

    amps_{2j} is proportional to (e^{i phi} tanh r / 2)^j sqrt((2j)!)/j!.
    The factor 2^{-j} is required for the expansion to reproduce the
    exponential construction; see the uncertainty and fidelity tests.
    """
    return _even_ket(np.tanh(spec.r) / 2.0 * np.exp(1j * spec.phi), spec.dim)


def _nilpotent_exp_matrix(m: np.ndarray) -> np.ndarray:
    """Exponential of a strictly triangular matrix by its finite series."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, m.shape[0] + 1):
        term = term @ m / k
        if not term.any():
            break
        out += term
    return out


def squeeze_operator_factored(spec: SqueezeSpec) -> np.ndarray:
    """Squeeze operator as the ordered product of up, diagonal and down
    exponentials obtained from the general disentangling coefficients."""
    coeffs = su11_disentangle_general(0.0, spec.xi, -np.conj(spec.xi))
    a, adag = build_ladder(spec.dim)
    ns = np.arange(spec.dim)
    k0_diag = (ns + 0.5) / 2.0
    up = _nilpotent_exp_matrix(coeffs.gamma_plus * adag @ adag / 2.0)
    down = _nilpotent_exp_matrix(coeffs.gamma_minus * a @ a / 2.0)
    middle = np.diag(np.exp(np.log(coeffs.gamma0) * k0_diag))
    return up @ middle @ down


def squeezed_wavefunction(s: float, x0: float, p0: float, xs: np.ndarray) -> GridWavefunction:
    """Gaussian of width s centered at (x0, p0), grid normalized."""
    if s <= 0:
        raise ValueError("width must be positive")
    xs = np.asarray(xs, dtype=float)
    if xs[0] > x0 - 8.0 * s or xs[-1] < x0 + 8.0 * s:
        raise ValueError("grid must cover [x0 - 8s, x0 + 8s]")
    psi = np.exp(-((xs - x0) ** 2) / (2.0 * s * s) + 1j * p0 * xs)
    return GridWavefunction(float(xs[0]), float(xs[1] - xs[0]), psi).normalized()


def theta_vacuum(theta: float, dim: int) -> FockState:
    """Vacuum of the hyperbolically rotated mode a cosh t - a+ sinh t.

    Built from the up-exponential exp((tanh t / 2) a+^2)|0> term by term
    and renormalized on the basis, like the squeezed vacuum.
    """
    return _even_ket(np.tanh(theta) / 2.0, dim)


def theta_vacuum_residual(theta: float, dim: int) -> float:
    state = theta_vacuum(theta, dim)
    a, adag = build_ladder(dim)
    rotated = np.cosh(theta) * a - np.sinh(theta) * adag
    return float(np.linalg.norm(rotated @ state.amps))


def vacuum_moment_u(theta: float, n: int, dim: int) -> complex:
    """Numeric vacuum moment <0| a^{2n} S_theta |0>."""
    if n < 1:
        raise ValueError("moment order must be positive")
    if 2 * n >= dim // 2:
        raise ValueError("moment order too large for this truncation")
    spec = SqueezeSpec(abs(theta), 0.0 if theta >= 0 else np.pi, dim)
    psi = squeeze_action(spec.xi, fock_basis_state(dim, 0).amps)
    # <0| a^{2n} = sqrt((2n)!) <2n|
    return complex(math.sqrt(math.factorial(2 * n)) * psi[2 * n])


def vacuum_moment_closed_form(theta: float, n: int) -> complex:
    """k_n cosh^{-1/2}(theta) tanh^n(theta) with k_n = (2n-1)!! ."""
    k_n = math.factorial(2 * n - 1) // (math.factorial(n - 1) * 2 ** (n - 1))
    return complex(k_n * np.cosh(theta) ** -0.5 * np.tanh(theta) ** n)


def phase_squeezed_state_SR(beta: complex, dim: int) -> FockState:
    """Squeezed-profile state from the number-shift ladder R+.

    The geometric amplitude ratio beta corresponds to the exponent
    parameter artanh|beta| e^{i arg beta} in exp(alpha R+ - alpha* R-);
    the map mirrors beta = e^{i nu} tanh r with exponent r e^{i nu}.
    """
    if abs(beta) >= 1.0:
        raise ValueError("profile ratio must lie inside the unit disc")
    if dim < 3:
        raise ValueError("dim must be at least 3")
    alpha = np.arctanh(abs(beta)) * np.exp(1j * np.angle(beta))
    # R-|n> = n|n-1>
    amps = ladder_exp_action(np.arange(dim, dtype=float), 1, alpha, fock_basis_state(dim, 0).amps)
    return FockState(amps).normalized()


def phase_squeezed_profile(beta: complex, dim: int) -> FockState:
    return FockState(log_series(np.zeros(dim), beta))


# ----------------------------------------------------------------- splitting


def su11_disentangle_general(
    zeta0: complex, zeta_plus: complex, zeta_minus: complex
) -> DisentangleCoeffs:
    """Coefficients of exp(z0 K0 + z+ K+ + z- K-) as an ordered product
    exp(g+ K+) exp(ln g0 K0) exp(g- K-).

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
    return DisentangleCoeffs(gamma0, gamma_plus, gamma_minus, theta_sq)


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
    and the cross-sector entries vanish identically.  Sectors that reach no
    interior entry are skipped.
    """
    da, db = dims
    cut_a, cut_b = da // 3, db // 3
    if cut_a < 1 or cut_b < 1:
        raise ValueError("dims must be at least 3 for a non-empty interior block")
    coeffs = su11_disentangle_general(zeta0, zeta_plus, zeta_minus)
    worst = 0.0
    for n1, n2 in charge_sectors(da, db).values():
        keep = (n1 < cut_a) & (n2 < cut_b)
        if not keep.any():
            continue
        k0_diag = (n1 + n2 + 1.0) / 2.0
        pair_down = np.diag(np.sqrt(n1[1:]) * np.sqrt(n2[1:]), 1)
        pair_up = pair_down.T
        lhs = matrix_exponential(
            zeta0 * np.diag(k0_diag) + zeta_plus * pair_up + zeta_minus * pair_down
        )
        rhs = (
            _nilpotent_exp_matrix(coeffs.gamma_plus * pair_up)
            @ np.diag(np.exp(np.log(coeffs.gamma0) * k0_diag))
            @ _nilpotent_exp_matrix(coeffs.gamma_minus * pair_down)
        )
        worst = max(worst, float(np.abs((lhs - rhs)[np.ix_(keep, keep)]).max()))
    return worst


# ------------------------------------------------------------------ two mode


def two_mode_squeezed_vacuum(s: float, dims: tuple[int, int]) -> TwoModeState:
    """exp((s/2)(a1 a2 - a1+ a2+)) |0,0> on the pair ladder chain."""
    weights, step = pair_ladder(*dims)
    vac = np.zeros(weights.size, dtype=complex)
    vac[0] = 1.0
    out = ladder_exp_action(weights, step, -s / 2.0, vac)
    return TwoModeState(out.reshape(dims)).normalized()


def schmidt_profile(state: TwoModeState, floor: float = 1e-4) -> dict:
    """Diagonal amplitudes, off-diagonal mass and the ratio ladder.

    Ratios are formed only where consecutive diagonal amplitudes both
    exceed `floor`; deeper entries are dominated by roundoff.
    """
    amps = state.amps
    diag = np.diag(amps)
    off_mass = float(np.sum(np.abs(amps) ** 2) - np.sum(np.abs(diag) ** 2))
    mags = np.abs(diag)
    usable = np.flatnonzero((mags[:-1] > floor) & (mags[1:] > floor))
    ratios = diag[usable + 1] / diag[usable]
    spread = float(np.abs(ratios - ratios.mean()).max()) if ratios.size else 0.0
    return {
        "diagonal": diag,
        "off_diagonal_mass": off_mass,
        "ratios": ratios,
        "ratio_spread": spread,
    }


def two_mode_theta_vacuum(Theta: float, dims: tuple[int, int]) -> TwoModeState:
    """Geometric pair expansion exp(a1+ a2+ tanh T)|0,0>, renormalized."""
    amps = np.zeros(dims, dtype=complex)
    np.fill_diagonal(amps, log_series(np.zeros(min(dims)), np.tanh(Theta)))
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


def bogoliubov_apply(
    bmap: BogoliubovMap, a: np.ndarray, adag: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if a.shape != adag.shape:
        raise ValueError("ladder matrices must share a shape")
    ch, sh = np.cosh(bmap.theta), np.sinh(bmap.theta)
    a_theta = ch * a - sh * adag
    return a_theta, a_theta.conj().T


def lambda_mode_factorization(Theta: float, dims: tuple[int, int]) -> tuple[float, float, float]:
    """Cross-check of the rotated-mode route to the pair vacuum.

    Builds L+- = (a1 +- i a2)/sqrt2, checks their boson algebra, then
    compares exp((i/2)(L+^2+ - L-^2+) tanh T)|0,0> against the geometric
    pair expansion.  Returns (commutator defect, vacuum annihilation
    defect, 1 - fidelity).
    """
    da, db = dims
    a1, a2 = ladders_sparse(da, db)
    lam_p = ((a1 + 1j * a2) / np.sqrt(2.0)).tocsr()
    lam_m = ((a1 - 1j * a2) / np.sqrt(2.0)).tocsr()
    n1, n2 = number_diagonals(da, db)
    interior = (n1 < da - 1) & (n2 < db - 1)
    identity = sp.identity(da * db, format="csr", dtype=complex)

    def interior_defect(mat) -> float:
        coo = mat.tocoo()
        keep = interior[coo.row] & interior[coo.col]
        return float(np.abs(coo.data[keep]).max()) if keep.any() else 0.0

    comm_self = interior_defect(lam_p @ lam_p.conj().T - lam_p.conj().T @ lam_p - identity)
    comm_self = max(
        comm_self,
        interior_defect(lam_m @ lam_m.conj().T - lam_m.conj().T @ lam_m - identity),
    )
    comm_mixed = interior_defect(lam_p @ lam_m.conj().T - lam_m.conj().T @ lam_p)
    comm = max(comm_self, comm_mixed)

    vac = np.zeros(da * db, dtype=complex)
    vac[0] = 1.0
    annih = max(
        float(np.linalg.norm(lam_p @ vac)), float(np.linalg.norm(lam_m @ vac))
    )

    up = lam_p.conj().T
    dn = lam_m.conj().T
    gen = (1j / 2.0) * (up @ up - dn @ dn) * np.tanh(Theta)
    built = expm_multiply(gen.tocsc(), vac)
    built = built / np.linalg.norm(built)
    target = two_mode_theta_vacuum(Theta, dims)
    deficit = 1.0 - abs(np.vdot(built, target.ravel())) ** 2
    return comm, annih, float(deficit)


# ------------------------------------------------- generalized condition


def generalized_condition_solution(
    Theta: float,
    c: float,
    grids: tuple[np.ndarray, np.ndarray] | None = None,
) -> GeneralizedFactorSolution:
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
    """
    if abs(Theta) < 0.1:
        raise ValueError("the factor equation degenerates as T -> 0")
    mu = float(np.cosh(Theta))
    nu = float(-np.sinh(Theta))
    if mu + nu <= 0:
        raise ValueError("phi factor would not be normalizable")
    if grids is None:
        half = min(1.0, max(0.25, 3.0 * abs(nu)))
        x1 = np.linspace(-8.0, 8.0, 2048)
        x2 = np.linspace(-half, half, 2048)
    else:
        x1, x2 = (np.asarray(g, dtype=float) for g in grids)

    q1 = (c * x1 - (mu + nu) * x1 * x1 / 2.0) / mu
    q2 = (c * x2 - (mu - nu) * x2 * x2 / 2.0) / nu
    phi = np.exp(q1 - q1.max())
    chi = np.exp(q2 - q2.max())
    h1 = x1[1] - x1[0]
    h2 = x2[1] - x2[0]
    dphi = np.gradient(phi, h1, edge_order=2)
    dchi = np.gradient(chi, h2, edge_order=2)

    stride1 = max(1, x1.size // 256)
    stride2 = max(1, x2.size // 256)
    i1 = np.arange(1, x1.size - 1, stride1)
    i2 = np.arange(1, x2.size - 1, stride2)
    s_x1, s_phi, s_dphi = x1[i1], phi[i1], dphi[i1]
    s_x2, s_chi, s_dchi = x2[i2], chi[i2], dchi[i2]
    res = (
        mu * np.outer(s_dphi + s_x1 * s_phi, s_chi)
        - mu * np.outer(s_phi, s_x2 * s_chi)
        + nu * np.outer(s_x1 * s_phi, s_chi)
        + nu * np.outer(s_phi, s_x2 * s_chi)
        - nu * np.outer(s_phi, s_dchi)
    )
    residual = float(np.abs(res).max())

    phi_norm = -(mu + nu) / (2.0 * mu) < 0
    chi_norm = -(mu - nu) / (2.0 * nu) < 0
    return GeneralizedFactorSolution(
        mu=mu,
        nu=nu,
        c=c,
        phi_part=GridWavefunction(float(x1[0]), float(h1), phi),
        chi_part=GridWavefunction(float(x2[0]), float(h2), chi),
        phi_normalizable=bool(phi_norm),
        chi_normalizable=bool(chi_norm),
        pde_residual=residual,
    )
