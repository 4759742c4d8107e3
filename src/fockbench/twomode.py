"""Two-mode ladder operators, number diagonals and charge sectors on a
rectangular truncated basis.

Index order is row-major in (n1, n2): mode 1 varies slowest, so
a1 = a x I and a2 = I x a.

A banded operator is a dict {k: w_k} of `(weights, step)` ladders, as in
`fock.ladder_matrix`: A|n> = sum_k w_k[n]|n - k>, where k < 0 raises, and
w_k[n] = 0 where n - k leaves the basis.  The ladders a1 and a2 are single
bands at k = dim_b and k = 1; their products and adjoints stay banded.
"""

from __future__ import annotations

import numpy as np

from .fock import check_dim

__all__ = [
    "ladders_banded",
    "band_apply",
    "band_adjoint",
    "band_product",
    "number_diagonals",
    "pair_ladder",
    "charge_sectors",
]


def _shift(x: np.ndarray, k: int) -> np.ndarray:
    """y[i] = x[i + k], zero where i + k leaves the range."""
    y = np.zeros_like(x)
    if k >= 0:
        y[: max(x.size - k, 0)] = x[k:]
    else:
        y[min(-k, x.size) :] = x[: max(x.size + k, 0)]
    return y


def ladders_banded(dim_a: int, dim_b: int) -> tuple[dict, dict]:
    """a1 and a2 as banded operators: a1|n> = sqrt(n1)|n - dim_b> and
    a2|n> = sqrt(n2)|n - 1>, whose weight is 0 where a row of the grid starts."""
    check_dim(dim_a, dim_b)
    n1, n2 = number_diagonals(dim_a, dim_b)
    return {dim_b: np.sqrt(n1)}, {1: np.sqrt(n2)}


def band_apply(op: dict, v: np.ndarray) -> np.ndarray:
    """op v, the bands summed in ascending k order."""
    out = np.zeros(v.shape, dtype=np.result_type(v, *op.values()))
    for k in sorted(op):
        lo, hi = max(0, k), min(v.size, v.size + k)
        if lo < hi:
            out[lo - k : hi - k] += op[k][lo:hi] * v[lo:hi]
    return out


def band_adjoint(op: dict) -> dict:
    """op+: band -k holds the conjugate of band k, moved to its target."""
    return {-k: _shift(w, k).conj() for k, w in op.items()}


def band_product(a: dict, b: dict) -> dict:
    """a b: (a b)|n> = sum_{k,l} a_k[n - l] b_l[n]|n - k - l>."""
    out = {}
    for k, w in a.items():
        for l, e in b.items():
            term = _shift(w, -l) * e
            out[k + l] = out[k + l] + term if k + l in out else term
    return out


def number_diagonals(dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupation numbers (n1, n2) along the flattened basis."""
    n1 = np.repeat(np.arange(dim_a), dim_b).astype(float)
    n2 = np.tile(np.arange(dim_b), dim_a).astype(float)
    return n1, n2


def pair_ladder(dim_a: int, dim_b: int) -> tuple[np.ndarray, int]:
    """Weights and step of the pair operator a1 a2 on the flattened basis:
    a1 a2 |i> = weights[i] |i - step> with weights sqrt(n1 n2) and step
    dim_b + 1, the one-band operator {step: weights}.  The weight is 0
    wherever n2 = 0, so no chain wraps past the edge of a row."""
    check_dim(dim_a, dim_b)
    n1, n2 = number_diagonals(dim_a, dim_b)
    return np.sqrt(n1 * n2), dim_b + 1


def charge_sectors(dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupations (n1, n2) along each charge sector q = n1 - n2, one row
    per charge 1 - dim_b .. dim_a - 1, zero-padded to the longest sector
    min(dim_a, dim_b), and the mask of the entries that are not padding.

    Within a sector both occupations rise by one per step, so the pair
    operator a1 a2 is the single superdiagonal (sqrt(n1) sqrt(n2))[1:], its
    adjoint the subdiagonal, and K0 = (n1 + n2 + 1)/2 is diagonal.  The
    truncation n1 < dim_a, n2 < dim_b only shortens sectors, so these
    blocks are exact; the zero padding adds no coupling.
    """
    charges = np.arange(1 - dim_b, dim_a)[:, None]
    n2 = np.maximum(0, -charges) + np.arange(min(dim_a, dim_b))
    n1 = n2 + charges
    real = (n1 < dim_a) & (n2 < dim_b)
    return n1 * real, n2 * real, real
