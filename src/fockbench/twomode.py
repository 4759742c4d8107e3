"""Two-mode ladder operators, number diagonals and charge sectors on a
rectangular truncated basis.

Index order is row-major in (n1, n2): mode 1 varies slowest, so
a1 = a x I and a2 = I x a.

A banded operator is a dict {k: d_k} of full-length bands with
(A v)[i] = sum_k d_k[i] v[i + k]; entries whose column i + k leaves the
basis are zero.  The two ladders are single bands, a1 at k = dim_b and a2
at k = 1, and their products and adjoints stay banded.
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
    """a1 and a2 as banded operators: a1[i, i + dim_b] = sqrt(n1 + 1) and
    a2[i, i + 1] = sqrt(n2 + 1), which is 0 where a row of the grid ends."""
    check_dim(dim_a, dim_b)
    n1, n2 = number_diagonals(dim_a, dim_b)
    return {dim_b: _shift(np.sqrt(n1), dim_b)}, {1: _shift(np.sqrt(n2), 1)}


def band_apply(op: dict, v: np.ndarray) -> np.ndarray:
    """op v, the bands summed in ascending k (column) order."""
    out = np.zeros(v.shape, dtype=np.result_type(v, *op.values()))
    for k in sorted(op):
        lo, hi = max(0, -k), min(v.size, v.size - k)
        if lo < hi:
            out[lo:hi] += op[k][lo:hi] * v[lo + k : hi + k]
    return out


def band_adjoint(op: dict) -> dict:
    """op+: band -k holds the conjugate of band k, moved to its column."""
    return {-k: _shift(d, -k).conj() for k, d in op.items()}


def band_product(a: dict, b: dict) -> dict:
    """a b: (a b)[i, i + k + l] = a_k[i] b_l[i + k]."""
    out = {}
    for k, d in a.items():
        for l, e in b.items():
            term = d * _shift(e, k)
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
    dim_b + 1.  The weight is 0 wherever n2 = 0, so no chain wraps past
    the edge of a row.  This is the one-band operator {step: d} with
    d[i] = weights[i + step]."""
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
