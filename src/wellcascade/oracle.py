"""Independent finite-difference check of the matching-equation solver.

Discretises the 1D Hamiltonian on a uniform grid with Dirichlet walls and
central second-order differences, then extracts the lowest eigenvalues of
the symmetric tridiagonal matrix by Sturm-sequence bisection (LAPACK
``stebz``/``stein`` via :func:`scipy.linalg.eigh_tridiagonal`).

The potential enters as its average over each grid cell.  For a
piecewise-constant profile the cell average is exact and the discretisation
error is a clean O(h^2), which makes Richardson step-halving meaningful;
sampling the potential pointwise instead would leave an O(h) boundary
misalignment error that dominates and does not extrapolate away.

scipy is imported inside the two functions that call it, so importing the
package, and running every CLI command but ``oracle``, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import PotentialProfile
from .quantities import CODATA2018, PhysicalConstants

__all__ = [
    "FdConfig",
    "FdResult",
    "fd_solve",
    "fd_levels",
    "fd_states",
    "count_nodes",
]


@dataclass(frozen=True)
class FdConfig:
    """Grid resolution and refinement switches for the oracle."""

    grid_points: int = 20001
    padding: float = 0.0
    extrapolate: bool = False

    def __post_init__(self) -> None:
        if self.grid_points < 1001 or self.grid_points % 2 == 0:
            raise ValueError(
                f"grid_points must be odd and >= 1001, got {self.grid_points}"
            )
        if not (math.isfinite(self.padding) and self.padding >= 0.0):
            raise ValueError(f"padding must be non-negative, got {self.padding}")


@dataclass(frozen=True)
class FdResult:
    """Eigenvalues below the barrier top, with optional Richardson data."""

    levels: tuple[float, ...]
    truncated: bool
    error_estimates: tuple[float, ...] | None = None


def _extended_segments(profile: PotentialProfile, padding: float):
    edges = [profile.x_min, *profile.breakpoints, profile.x_max]
    values = list(profile.segment_values)
    if padding > 0.0:
        edges = [profile.x_min - padding, *edges, profile.x_max + padding]
        values = [values[0], *values, values[-1]]
    return np.asarray(edges, dtype=float), np.asarray(values, dtype=float)


def _cell_averaged_potential(edges, values, x, h):
    """Mean of the piecewise-constant potential over each cell [x-h/2, x+h/2]."""
    cumulative = np.concatenate(([0.0], np.cumsum(values * np.diff(edges))))

    def antiderivative(points):
        clipped = np.clip(points, edges[0], edges[-1])
        idx = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, len(values) - 1)
        return cumulative[idx] + values[idx] * (clipped - edges[idx])

    return (antiderivative(x + 0.5 * h) - antiderivative(x - 0.5 * h)) / h


def _tridiagonal(profile, grid_points, padding, constants):
    edges, values = _extended_segments(profile, padding)
    span = edges[-1] - edges[0]
    h = span / (grid_points + 1)
    x = edges[0] + h * np.arange(1, grid_points + 1)
    kinetic = constants.kinetic_coefficient()
    diag = 2.0 * kinetic / h**2 + _cell_averaged_potential(edges, values, x, h)
    off = np.full(grid_points - 1, -kinetic / h**2)
    return x, h, diag, off


def _eigenvalues(profile, n_levels, grid_points, padding, constants):
    from scipy.linalg import eigh_tridiagonal

    _, _, diag, off = _tridiagonal(profile, grid_points, padding, constants)
    top = min(n_levels, grid_points)
    return eigh_tridiagonal(
        diag, off, select="i", select_range=(0, top - 1), eigvals_only=True
    )


def fd_solve(
    profile: PotentialProfile,
    n_levels: int,
    config: FdConfig | None = None,
    constants: PhysicalConstants = CODATA2018,
) -> FdResult:
    """Lowest ``n_levels`` bound eigenvalues of the discretised Hamiltonian.

    Eigenvalues at or above the highest barrier are box artifacts, not bound
    states; they are dropped and the result is marked ``truncated`` when that
    leaves fewer than ``n_levels`` entries.  With ``extrapolate`` the grid
    step is halved once and each level Richardson-combined; the raw
    step-halving difference ``|E_half - E_full|`` is reported per level as a
    conservative error estimate.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    cfg = config or FdConfig()
    coarse = _eigenvalues(profile, n_levels, cfg.grid_points, cfg.padding, constants)
    estimates = None
    if cfg.extrapolate:
        fine = _eigenvalues(profile, n_levels, 2 * cfg.grid_points + 1, cfg.padding, constants)
        combined = (4.0 * fine - coarse) / 3.0
        estimates = np.abs(fine - coarse)
        levels_all = combined
    else:
        levels_all = coarse
    barrier_top = profile.max_value()
    keep = levels_all < barrier_top
    levels = tuple(float(e) for e in levels_all[keep])
    est = tuple(float(e) for e in estimates[keep]) if estimates is not None else None
    return FdResult(levels=levels, truncated=len(levels) < n_levels, error_estimates=est)


def fd_levels(
    profile: PotentialProfile,
    n_levels: int,
    config: FdConfig | None = None,
    constants: PhysicalConstants = CODATA2018,
) -> list[float]:
    return list(fd_solve(profile, n_levels, config, constants).levels)


def fd_states(
    profile: PotentialProfile,
    n_levels: int,
    config: FdConfig | None = None,
    constants: PhysicalConstants = CODATA2018,
):
    """Grid positions, bound eigenvalues and unit-norm eigenfunctions.

    Eigenvectors come back L2-normalised so that ``h * sum(psi**2) = 1``.
    Extrapolation does not apply to states; the configured grid is used as is.
    """
    from scipy.linalg import eigh_tridiagonal

    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    cfg = config or FdConfig()
    x, h, diag, off = _tridiagonal(profile, cfg.grid_points, cfg.padding, constants)
    top = min(n_levels, cfg.grid_points)
    energies, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, top - 1))
    keep = energies < profile.max_value()
    return x, energies[keep], vectors[:, keep] / math.sqrt(h)


def count_nodes(values, rel_floor: float = 1e-9) -> int:
    """Count sign changes of a sampled wavefunction, ignoring noise-level entries."""
    v = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return 0
    significant = v[np.abs(v) > rel_floor * peak]
    signs = np.sign(significant)
    return int(np.count_nonzero(signs[:-1] * signs[1:] < 0.0))
