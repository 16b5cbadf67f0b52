"""Independent finite-difference check of the matching-equation solver.

Discretises the 1D Hamiltonian on a uniform grid with central second-order
differences and Dirichlet ends at the profile's own hard walls, ``x_min``
and ``x_max``, so the matrix is that of the given potential and no other.
It then extracts the lowest eigenvalues of the symmetric tridiagonal matrix
by Sturm-sequence bisection (LAPACK ``stebz``/``stein`` via
:func:`scipy.linalg.eigh_tridiagonal`).

Only eigenvalues below the barrier top are bound states; the ones above it
are box artifacts.  So each solve first counts the eigenvalues in
(Gershgorin floor, barrier top], then bisects by index only up to the
smaller of that count and the request.  The count is a ``stebz`` call by
value whose absolute tolerance is as wide as the window itself: the window
counts as converged before its first halving, so LAPACK returns after the
Sturm counts at its two ends (about 1 ms on 20 001 rows, against ~5 ms per
bisected eigenvalue).  A request at or below the count makes the same
LAPACK call as one without the count, so its values are the same.  A
request above it stops short of that call's index range and cannot repeat
its bisection; it converges to a quarter of ``stebz``'s default absolute
tolerance ulp*||T|| instead, so the two differ by little more than that
call's own error (at most 7e-11 eV on pair-crosscheck's 20 001-row grids).

The potential enters as its average over each grid cell.  For a
piecewise-constant profile the cell average is exact and the discretisation
error is a clean O(h^2), which makes Richardson step-halving meaningful;
sampling the potential pointwise instead would leave an O(h) boundary
misalignment error that dominates and does not extrapolate away.

scipy is imported inside the functions that call it, so importing the
package, and running every CLI command but ``oracle``, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import _MAX_GRID_POINTS
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

# entries below this fraction of the peak are noise to count_nodes
_NODE_FLOOR = 1e-9


@dataclass(frozen=True)
class FdConfig:
    """Grid resolution and refinement switches for the oracle; 1001 to 10**7 grid points."""

    grid_points: int = 20001
    extrapolate: bool = False

    def __post_init__(self) -> None:
        if not 1001 <= self.grid_points <= _MAX_GRID_POINTS or self.grid_points % 2 == 0:
            raise ValueError(
                f"grid_points must be odd and in [1001, {_MAX_GRID_POINTS}], "
                f"got {self.grid_points}"
            )


@dataclass(frozen=True)
class FdResult:
    """Eigenvalues below the barrier top, with optional Richardson data."""

    levels: tuple[float, ...]
    truncated: bool
    error_estimates: tuple[float, ...] | None = None


def _cell_averaged_potential(edges, values, x, h):
    """Mean of the piecewise-constant potential over each cell [x-h/2, x+h/2]."""
    cumulative = np.concatenate(([0.0], np.cumsum(values * np.diff(edges))))

    def antiderivative(points):
        clipped = np.clip(points, edges[0], edges[-1])
        idx = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, len(values) - 1)
        return cumulative[idx] + values[idx] * (clipped - edges[idx])

    return (antiderivative(x + 0.5 * h) - antiderivative(x - 0.5 * h)) / h


def _tridiagonal(profile, grid_points, constants):
    edges = np.array([profile.x_min, *profile.breakpoints, profile.x_max], dtype=float)
    values = np.array(profile.segment_values, dtype=float)
    span = edges[-1] - edges[0]
    h = span / (grid_points + 1)
    x = edges[0] + h * np.arange(1, grid_points + 1)
    kinetic = constants.kinetic_coefficient()
    diag = 2.0 * kinetic / h**2 + _cell_averaged_potential(edges, values, x, h)
    off = np.full(grid_points - 1, -kinetic / h**2)
    return x, h, diag, off


def _gershgorin(diag, off) -> tuple[float, float]:
    """Interval that holds every eigenvalue of the tridiagonal matrix."""
    reach = 2.0 * float(np.max(np.abs(off)))
    return float(np.min(diag)) - reach, float(np.max(diag)) + reach


def _bound_count(diag, off, barrier_top: float) -> int:
    """Number of eigenvalues in (Gershgorin floor, ``barrier_top``]: one Sturm count.

    An absolute tolerance as wide as the window stops ``stebz``'s bisection
    before it starts, so the call costs the Sturm counts at the two ends.
    The floor sits below the Gershgorin bound by more than the rounding of
    a Sturm count, so no eigenvalue can fall under it.
    """
    from scipy.linalg import eigh_tridiagonal

    lo, hi = _gershgorin(diag, off)
    floor = lo - diag.size * np.finfo(float).eps * max(abs(lo), abs(hi))
    if not barrier_top > floor:
        return 0
    width = barrier_top - floor
    return eigh_tridiagonal(
        diag, off, select="v", select_range=(floor, barrier_top), eigvals_only=True, tol=width
    ).size


def _index_top(n_levels, matrices, barrier_top) -> int:
    """Levels to bisect by index: the request, capped by the bound count and the grid.

    With several grids the cap is the largest of their counts, so every grid
    is solved over the same index range.
    """
    count = max(_bound_count(diag, off, barrier_top) for _, _, diag, off in matrices)
    return min(n_levels, matrices[0][2].size, count)


def _by_index(matrix, top, capped, eigvals_only=True):
    """The lowest ``top`` eigenvalues (and unit eigenvectors unless ``eigvals_only``).

    A ``capped`` range ends below the request, so ``stebz`` cannot repeat
    the bisection of the uncapped call; it converges to a quarter of the
    default absolute tolerance ulp*||T|| instead, so it differs from the
    uncapped call by little more than that call's own error.
    """
    from scipy.linalg import eigh_tridiagonal

    _, _, diag, off = matrix
    if top == 0:
        return np.empty(0) if eigvals_only else (np.empty(0), np.empty((diag.size, 0)))
    tol = 0.0
    if capped:
        tol = np.finfo(float).eps * max(map(abs, _gershgorin(diag, off))) / 4.0
    return eigh_tridiagonal(
        diag, off, select="i", select_range=(0, top - 1), eigvals_only=eigvals_only, tol=tol
    )


def fd_solve(
    profile: PotentialProfile,
    n_levels: int,
    config: FdConfig | None = None,
    constants: PhysicalConstants = CODATA2018,
) -> FdResult:
    """Lowest ``n_levels`` bound eigenvalues of the discretised Hamiltonian.

    Eigenvalues at or above the highest barrier are box artifacts, not bound
    states.  They are counted first and never bisected (see module notes);
    any that slip under the count are dropped, and the result is marked
    ``truncated`` when fewer than ``n_levels`` entries remain.  With
    ``extrapolate`` the grid step is halved once and each level
    Richardson-combined; both grids are solved over one index range, capped
    by the larger of their counts and by the coarse grid's size.  The raw
    step-halving difference ``|E_half - E_full|`` is reported per level as a
    conservative error estimate.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    cfg = config or FdConfig()
    barrier_top = profile.max_value()
    sizes = [cfg.grid_points] + ([2 * cfg.grid_points + 1] if cfg.extrapolate else [])
    matrices = [_tridiagonal(profile, n, constants) for n in sizes]
    top = _index_top(n_levels, matrices, barrier_top)
    capped = top < n_levels
    levels_all = coarse = _by_index(matrices[0], top, capped)
    estimates = None
    if cfg.extrapolate:
        fine = _by_index(matrices[1], top, capped)
        levels_all = (4.0 * fine - coarse) / 3.0
        estimates = np.abs(fine - coarse)
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
    The index range is :func:`fd_solve`'s, so without extrapolation the
    energies are its levels bit for bit.  Extrapolation does not apply to
    states; the configured grid is used as is.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    cfg = config or FdConfig()
    barrier_top = profile.max_value()
    matrix = _tridiagonal(profile, cfg.grid_points, constants)
    x, h = matrix[:2]
    top = _index_top(n_levels, [matrix], barrier_top)
    energies, vectors = _by_index(matrix, top, top < n_levels, eigvals_only=False)
    keep = energies < barrier_top
    return x, energies[keep], vectors[:, keep] / math.sqrt(h)


def count_nodes(values) -> int:
    """Count sign changes of a sampled wavefunction, ignoring noise-level entries.

    An entry counts when its magnitude exceeds 1e-9 of the peak.
    """
    v = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return 0
    significant = v[np.abs(v) > _NODE_FLOOR * peak]
    signs = np.sign(significant)
    return int(np.count_nonzero(signs[:-1] * signs[1:] < 0.0))
