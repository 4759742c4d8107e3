"""Numerical laboratory for coherent and squeezed oscillator states.

Single-mode and two-mode state families are built in a truncated Fock
space; an isospectral-potential family is built on a spatial grid.  The
package verifies the closed-form identities these constructions satisfy.
"""

from .fock import (
    FockState,
    GridWavefunction,
    TwoModeState,
    build_ladder,
    build_quadratures,
    fock_basis_state,
    matrix_exponential,
    number_operator,
    quadrature_report,
)

__version__ = "0.1.0"
