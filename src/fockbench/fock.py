"""Truncated Fock-space linear algebra.

Basis convention: the space is spanned by number states |0>..|dim-1>.
The annihilation matrix has entries a[n-1, n] = sqrt(n); everything else
(quadratures, number operator, exponentials) is built from it.

Truncation contract: operator identities such as [a, a+] = 1 hold exactly
on the interior of the basis and provably fail on the last row.  Checks
therefore always go through an interior projector; see `max_abs_interior`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FockState",
    "TwoModeState",
    "GridWavefunction",
    "ladder_matrix",
    "build_ladder",
    "build_quadratures",
    "number_operator",
    "matrix_exponential",
    "ladder_exp_action",
    "ladder_exp_dense",
    "ladder_nilpotent_exp",
    "ladder_moments",
    "quadrature_moments",
    "quadrature_report",
    "number_moments",
    "fock_basis_state",
    "check_dim",
    "log_gamma",
    "log_series",
    "max_abs_interior",
]

# norm^2 slack allowed for a constructed state (mass lost to the truncation tail)
STATE_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class FockState:
    """Complex amplitudes over a truncated single-mode number basis."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitude vector must be 1-d with dim >= 2")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FockState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockState(self.amps / n)

    def check_normalized(self) -> None:
        n2 = self.norm ** 2
        if not (1.0 - STATE_TAIL_TOL <= n2 <= 1.0 + 1e-12):
            raise ValueError(f"state norm^2 = {n2!r} outside the allowed band")

    def tail_mass(self, fraction: float) -> float:
        """Probability carried by the top `fraction` of the basis."""
        start = int(self.dim * (1.0 - fraction))
        return float(np.sum(np.abs(self.amps[start:]) ** 2))

    def overlap(self, other: "FockState") -> complex:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "FockState") -> float:
        return abs(self.overlap(other)) ** 2


@dataclass(frozen=True)
class TwoModeState:
    """Complex amplitude grid over a truncated two-mode number basis.

    amps[n1, n2] multiplies |n1, n2>.  Row-major flattening matches the
    tensor-product ordering a1 = a x I, a2 = I x a.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 2:
            raise ValueError("two-mode amplitudes must form a matrix")
        object.__setattr__(self, "amps", amps)

    @property
    def dims(self) -> tuple[int, int]:
        return self.amps.shape

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "TwoModeState":
        return TwoModeState(self.amps / self.norm)

    def ravel(self) -> np.ndarray:
        return self.amps.reshape(-1)

    def fidelity(self, other: "TwoModeState") -> float:
        return abs(np.vdot(self.amps, other.amps)) ** 2


@dataclass(frozen=True)
class GridWavefunction:
    """Sampled complex wavefunction on a uniform spatial grid."""

    x_min: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.dx <= 0:
            raise ValueError("dx must be positive")

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.values.size)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx))

    def normalized(self) -> "GridWavefunction":
        return GridWavefunction(self.x_min, self.dx, self.values / self.norm)

    def l2_distance(self, other: "GridWavefunction") -> float:
        return float(np.sqrt(np.sum(np.abs(self.values - other.values) ** 2) * self.dx))


def check_dim(*dims: int) -> None:
    """Reject a truncation that keeps fewer than two levels of some mode."""
    if min(dims) < 2:
        raise ValueError("dim must be at least 2")


def ladder_matrix(weights: np.ndarray, step: int) -> np.ndarray:
    """Dense complex L with L[n - step, n] = weights[n], stacked for weight rows
    (..., dim): the lowering operator L|n> = weights[n]|n-step> that the
    exponential and moment routines take as `(weights, step)`; L+ is L.conj().T."""
    weights = np.asarray(weights)
    out = np.zeros(weights.shape + weights.shape[-1:], dtype=complex)
    ns = np.arange(step, weights.shape[-1])
    out[..., ns - step, ns] = weights[..., step:]
    return out


def build_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices on a dim-dimensional basis."""
    check_dim(dim)
    a = ladder_matrix(np.sqrt(np.arange(dim, dtype=float)), 1)
    return a, a.conj().T


def build_quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian position and momentum matrices, x = (a+a+)/sqrt2 etc."""
    a, adag = build_ladder(dim)
    x = (a + adag) / np.sqrt(2.0)
    p = -1j * (a - adag) / np.sqrt(2.0)
    return x, p


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


# Higham (2005): the largest 1-norm at which the [13/13] Pade approximant of
# exp is exact to double precision, and its numerator coefficients
# b_j = (26 - j)! / (j! (13 - j)!), normalized to b_13 = 1
_THETA_13 = 5.371920351148152
_PADE_13 = [math.factorial(26 - j) / (math.factorial(j) * math.factorial(13 - j))
            for j in range(14)]


def _pade_13(A: np.ndarray) -> np.ndarray:
    """The [13/13] Pade approximant (V - U)^-1 (V + U) of exp(A), with U the
    odd and V the even part of the numerator, by Higham's six-product
    evaluation."""
    b = _PADE_13
    ident = np.eye(A.shape[-1], dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    return np.linalg.solve(V - U, V + U)


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005): the degree-13 Pade approximant of
    exp(M / 2^s), squared s times, with the least s >= 0 that brings the
    1-norm within theta_13.  A diagonal M gets the exact diag(exp(d)), and
    a real M stays real.

    M may be a stack (..., n, n).  The stack shares one squaring count,
    taken from its largest 1-norm; a stack of diagonal matrices (an all-zero
    one included) gets the exact diag(exp(d)) of each.

    The accuracy contract (relative error <= 1e-10 for norms up to ~50)
    is enforced by the test suite against an independent Taylor reference.
    """
    M = np.asarray(M, dtype=np.result_type(M, float))
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite entries")
    with np.errstate(over="ignore"):
        norm = float(np.abs(M).sum(axis=-2).max())
    if not math.isfinite(norm):
        raise ValueError("matrix exponential of a matrix whose norm overflows")
    diagonal = np.diagonal(M, axis1=-2, axis2=-1)
    if np.count_nonzero(M) == np.count_nonzero(diagonal):
        out = np.zeros_like(M)
        ns = np.arange(M.shape[-1])
        out[..., ns, ns] = np.exp(diagonal)
        return out
    squarings = max(0, math.ceil(math.log2(norm / _THETA_13)))
    X = _pade_13(M * 2.0 ** -squarings)
    for _ in range(squarings):
        X = X @ X
    return X


def bundled_lapack(**routines):
    """numpy's bundled OpenBLAS routines by name: name=(k, p) takes k strings, p
    pointers or arrays (ILP64), then k string lengths; None if one is missing."""
    import ctypes
    try:
        libs = (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so")
        lib = ctypes.CDLL(str(next(libs)))
        found = [getattr(lib, f"scipy_{name}_64_") for name in routines]
    except (StopIteration, OSError, AttributeError):
        return None
    for routine, (k, p) in zip(found, routines.values()):
        routine.argtypes = [ctypes.c_char_p] * k + [ctypes.c_void_p] * p + [ctypes.c_size_t] * k
        routine.restype = None
    return [lambda *args, f=f: f(*(a.ctypes.data if isinstance(a, np.ndarray) else a
                                   for a in args)) for f in found]


@functools.lru_cache(maxsize=None)
def _chain_svd():
    """u, s, vt of the square upper-bidiagonal B = diag(d) + diag(e, 1): dbdsdc, which
    gesdd runs after an identity bidiagonalisation, else np.linalg.svd(B); same bits."""
    if (found := bundled_lapack(dbdsdc=(2, 12))) is None:
        return lambda d, e: np.linalg.svd(np.diag(d) + np.diag(e, 1))

    def dbdsdc(d, e):
        # copies: dbdsdc overwrites d and e and reads e contiguous; ut, v hold u, vt by columns
        n, s, e, ints = d.size, np.array(d, float), np.array(e, float), np.array([d.size, 0])
        ut, v, work = np.empty((n, n)), np.empty((n, n)), np.empty(3 * n * n + 4 * n)
        found[0](b"U", b"I", ints, s, e, ut, ints, v, ints, None, None, work,
                 np.empty(8 * n, np.int64), ints.ctypes.data + 8, 1, 1)
        if ints[1]:
            raise ArithmeticError(f"bidiagonal SVD did not converge (info {ints[1]})")
        return ut.T, s, v.T

    return dbdsdc


def ladder_exp_action(
    weights: np.ndarray, step: int, alpha: complex, v: np.ndarray
) -> np.ndarray:
    """exp(alpha L+ - alpha* L) v for L|n> = weights[n]|n-step>.

    The generator couples n only to n +- step, so it acts on each residue
    chain {c, c + step, c + 2 step, ...} as one tridiagonal matrix G.  The
    gauge g_k = (i alpha/|alpha|)^k turns iG into the real symmetric
    tridiagonal T with zero diagonal and off-diagonal |alpha| weights, and
    exp(G) = g exp(-iT) g*.  T couples even sites to odd ones only, so it is
    [[0, B], [B^T, 0]] (Golub-Kahan), and with B = U diag(s) V^T

        exp(-iT) = [[U cos(s) U^T, -i U sin(s) V^T],
                    [-i V sin(s) U^T, V cos(s) V^T]].

    An odd chain gets a decoupled odd site (a zero last row, dropped from the
    result), so the upper-bidiagonal B^T is square; `_chain_svd` takes its
    SVD.  Chains on which v vanishes are skipped.  This exponentiates the
    truncated generator; it reads no closed form.
    """
    out = np.array(v, dtype=complex)
    if alpha == 0:
        return out
    with np.errstate(over="ignore"):
        w = abs(alpha) * np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("exponential action of a generator with non-finite weights")
    unit = 1j * alpha / abs(alpha)
    for c in range(min(step, out.size)):
        chain = out[c::step]
        if chain.size < 2 or not chain.any():
            continue
        gauge = unit ** np.arange(chain.size)
        x = gauge.conj() * chain
        # B^T[j, j] couples sites 2j, 2j + 1 and B^T[j, j + 1] sites 2j + 1, 2j + 2
        d = np.append(w[c + step :: 2 * step], [0.0] * (chain.size % 2))
        v_odd, s, u_even_t = _chain_svd()(d, w[c + 2 * step :: 2 * step])
        v_odd = v_odd[: chain.size // 2]
        even = u_even_t @ x[0::2]
        odd = v_odd.T @ x[1::2]
        y = np.empty_like(x)
        y[1::2] = v_odd @ (np.cos(s) * odd - 1j * np.sin(s) * even)
        y[0::2] = u_even_t.T @ (np.cos(s) * even - 1j * np.sin(s) * odd)
        out[c::step] = gauge * y
    return out


def ladder_exp_dense(weights: np.ndarray, step: int, alpha: complex) -> np.ndarray:
    """Dense exp(alpha L+ - alpha* L) for L|n> = weights[n]|n-step>.  The gauge
    |n> -> e^{i n arg(alpha)/step}|n> makes the generator the real |alpha|(L+ - L),
    and its residue chains {c, c + step, ...}, zero-padded to one length,
    take the dense Pade route as one stack."""
    w = abs(alpha) * np.asarray(weights, dtype=float)
    length = -(-w.size // step)
    chains = np.pad(w, (0, length * step - w.size)).reshape(length, step).T  # row c: chain c
    raising = ladder_matrix(chains, 1).real.swapaxes(1, 2)
    out = np.zeros((length, step, length, step), dtype=complex)
    cs = np.arange(step)
    out[:, cs, :, cs] = matrix_exponential(raising - raising.swapaxes(1, 2))
    out = out.reshape(length * step, length * step)[: w.size, : w.size]
    gauge = np.exp(1j * np.angle(alpha) / step * np.arange(w.size))
    return gauge[:, None] * out * gauge.conj()


def ladder_nilpotent_exp(weights: np.ndarray, step: int, g: complex) -> np.ndarray:
    """Dense exp(g L) for L|n> = weights[n]|n-step>; exp(g L+) is its transpose.
    A stack of weight rows (..., dim) gives the stack of exponentials.

    The k-th term g^k L^k / k! of the finite series is the diagonal at offset
    k step, entry n the product over j <= k of g weights[n + j step] / j: one
    cumulative product down a (k, dim) array of factors, O(dim^2) in all.
    """
    weights = np.asarray(weights)
    stack, dim = weights.shape[:-1], weights.shape[-1]
    ks = np.arange(1, (dim - 1) // step + 1)[:, None]
    cols = np.arange(dim) + step * ks
    k, n = np.nonzero(cols < dim)
    c = cols[k, n]
    factors = np.zeros(stack + cols.shape, dtype=complex)
    factors[..., k, n] = g * weights[..., c] / ks[k, 0]
    out = np.tile(np.eye(dim, dtype=complex), stack + (1, 1))
    out[..., n, c] = np.cumprod(factors, axis=-2)[..., k, n]
    return out


def ladder_moments(
    amps: np.ndarray, weights: np.ndarray, axis: int = 0, batch: bool = False
) -> tuple:
    """<L>, <L^2>, <L+L> and <LL+> for L|n> = weights[n]|n-1> along `axis`.

    These are the truncated-matrix moments: the top level has no L+ image.
    Each is a sum over shifted slices, O(amps.size).  With `batch`, `amps`
    holds one state per column (levels along axis 0) and each moment is an
    array over the columns.
    """
    psi = np.asarray(amps).swapaxes(0, axis)
    w = np.asarray(weights, dtype=float)[1:].reshape((-1,) + (1,) * (psi.ndim - 1))
    low = w * psi[1:]  # L psi on levels 0 .. dim-2
    up = w * psi[:-1]  # L+ psi on levels 1 .. dim-1
    dot = (lambda x, y: np.vecdot(x, y, axis=0)) if batch else np.vdot
    second = dot(psi[:-2], w[:-1] * low[1:])
    return dot(psi[:-1], low), second, dot(low, low).real, dot(up, up).real


def quadrature_moments(moments: tuple) -> tuple[float, float, float, float]:
    """Means and variances of x = (L + L+)/sqrt2 and p = -i(L - L+)/sqrt2.

    <x^2> and <p^2> are sums halved, so vacuum variances are exactly 1/2.
    """
    first, second, up_down, down_up = moments
    mean_x = math.sqrt(2.0) * first.real
    mean_p = math.sqrt(2.0) * first.imag
    var_x = (up_down + down_up + 2.0 * second.real) / 2.0 - mean_x * mean_x
    var_p = (up_down + down_up - 2.0 * second.real) / 2.0 - mean_p * mean_p
    return mean_x, mean_p, var_x, var_p


def quadrature_report(state: FockState) -> dict:
    """Means, variances and the uncertainty product of x and p, keyed as in
    a state artifact's "quadrature_report" entry."""
    state.check_normalized()
    moments = ladder_moments(state.amps, np.sqrt(np.arange(state.dim, dtype=float)))
    mx, mp, vx, vp = quadrature_moments(moments)
    return {"mean_x": mx, "mean_p": mp, "var_x": vx, "var_p": vp, "product": vx * vp}


def number_moments(state: FockState) -> tuple[float, float]:
    """Mean and variance of N = a+a; <N^2> is <L+L> for L|n> = n|n-1>."""
    state.check_normalized()
    ns = np.arange(state.dim, dtype=float)
    mean_n = ladder_moments(state.amps, np.sqrt(ns))[2]
    return mean_n, ladder_moments(state.amps, ns)[2] - mean_n * mean_n


def fock_basis_state(dim: int, n: int) -> FockState:
    check_dim(dim)
    if not 0 <= n < dim:
        raise ValueError("basis index out of range")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockState(amps)


def log_gamma(x: np.ndarray) -> np.ndarray:
    """ln Gamma(x) elementwise for a 1-d array of positive reals, by
    `math.lgamma`; the closed-form series weights need nothing more."""
    x = np.asarray(x, dtype=float)
    try:
        return np.fromiter(map(math.lgamma, x.tolist()), float, count=x.size)
    except OverflowError as exc:
        raise ValueError("log-gamma weight beyond the float range") from exc


def log_series(log_weights: np.ndarray, ratio: complex) -> np.ndarray:
    """Unit vector c_j proportional to ratio^j exp(log_weights[j]).

    The moduli are formed in log space and scaled by the largest term, so
    no term underflows or overflows before normalization.  A real ratio
    keeps its exact sign (-1)^j; ratio 0 gives the first basis vector.
    """
    amps = np.zeros(log_weights.size, dtype=complex)
    if ratio == 0:
        amps[0] = 1.0
        return amps
    js = np.arange(log_weights.size)
    log_mod = log_weights + js * np.log(abs(ratio))
    phase = np.exp(1j * js * np.angle(ratio)) if ratio.imag else np.sign(ratio.real) ** js
    amps[:] = np.exp(log_mod - log_mod.max()) * phase
    return amps / np.linalg.norm(amps)


def max_abs_interior(M: np.ndarray, size: int) -> float:
    """Largest entry magnitude of the leading size x size block."""
    return float(np.abs(M[:size, :size]).max())
