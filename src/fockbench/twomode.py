"""Two-mode ladder operators, number diagonals and charge sectors on a
rectangular truncated basis.

Index order is row-major in (n1, n2): mode 1 varies slowest, so
a1 = a x I and a2 = I x a.
"""

from __future__ import annotations

import numpy as np

from .fock import build_ladder, check_dim

__all__ = ["ladders_sparse", "number_diagonals", "pair_ladder", "charge_sectors"]


def ladders_sparse(dim_a: int, dim_b: int):
    """a1 and a2 as scipy CSR matrices."""
    import scipy.sparse as sp

    a, _ = build_ladder(dim_a)
    b, _ = build_ladder(dim_b)
    a1 = sp.kron(sp.csr_matrix(a), sp.identity(dim_b, format="csr"), format="csr")
    a2 = sp.kron(sp.identity(dim_a, format="csr"), sp.csr_matrix(b), format="csr")
    return a1, a2


def number_diagonals(dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupation numbers (n1, n2) along the flattened basis."""
    n1 = np.repeat(np.arange(dim_a), dim_b).astype(float)
    n2 = np.tile(np.arange(dim_b), dim_a).astype(float)
    return n1, n2


def pair_ladder(dim_a: int, dim_b: int) -> tuple[np.ndarray, int]:
    """Weights and step of the pair operator a1 a2 on the flattened basis:
    a1 a2 |i> = weights[i] |i - step> with weights sqrt(n1 n2) and step
    dim_b + 1.  The weight is 0 wherever n2 = 0, so no chain wraps past
    the edge of a row."""
    check_dim(dim_a, dim_b)
    n1, n2 = number_diagonals(dim_a, dim_b)
    return np.sqrt(n1 * n2), dim_b + 1


def charge_sectors(dim_a: int, dim_b: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Occupations (n1, n2) of each charge sector q = n1 - n2.

    Within a sector both occupations rise by one per step, so the pair
    operator a1 a2 is the single superdiagonal (sqrt(n1) sqrt(n2))[1:], its
    adjoint the subdiagonal, and K0 = (n1 + n2 + 1)/2 is diagonal.  The
    truncation n1 < dim_a, n2 < dim_b only shortens sectors, so these
    blocks are exact.
    """
    sectors = {}
    for q in range(1 - dim_b, dim_a):
        n2 = np.arange(max(0, -q), min(dim_b, dim_a - q))
        sectors[q] = (n2 + q, n2)
    return sectors
