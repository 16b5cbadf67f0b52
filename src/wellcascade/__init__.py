"""Bound states and tunneling times of asymmetric double square wells.

The package solves the exact boundary-matching equations of a double square
well between hard walls, verifies the spectra against an independent
finite-difference discretisation, derives two-level oscillation and decay
times from resonant doublets, and chains four wells into the
electron-transfer cascade model of the bacterial photosynthetic reaction
center.
"""

from .cascade import solve_cascade
from .eigensolver import solve_pair
from .oracle import fd_solve
from .potential import CascadeSpec, WellPair
from .wavefunctions import build_wavefunction

__version__ = "0.1.0"

__all__ = [
    "CascadeSpec",
    "WellPair",
    "build_wavefunction",
    "fd_solve",
    "solve_cascade",
    "solve_pair",
]
