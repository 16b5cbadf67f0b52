"""Independent finite-difference check of the matching-equation solver.

Discretises the 1D Hamiltonian on a uniform grid with central second-order
differences and Dirichlet ends at the profile's own hard walls, the start
of its first segment and the end of its last, so the matrix is that of the
given potential and no other.
Its lowest eigenvalues are then located by the Sturm count of the
symmetric tridiagonal matrix.

The potential is piecewise constant, so the matrix is a few runs of equal
rows (five for a pair, one per segment and one per cell that straddles a
breakpoint).  Within a run the Sturm sequence has a closed form, a sine or
a pair of exponentials, so the count at an energy costs one step per run,
not per row (:func:`_sturm_count`).  The cells that straddle a breakpoint
are runs of one row, and take one step of the recurrence itself instead
(:func:`_one_row`).  A call sorts its energies once, so each long run's
regimes are contiguous slices; on a pair's five runs it costs about 95 us
plus 0.25 us per energy (2-CPU x86-64 host, numpy 2.4).  Every
level is located by index, all levels together, with the program's one
multisection, :func:`~wellcascade.eigensolver._multisect`, walked by that
count: at most six halvings per count call, until each bracket is two
adjacent doubles.
The count reads the matrix's potential as ``d - 2c`` from its stored
diagonal, which is exact, so it counts the same matrix LAPACK would; and
it carries the slope of the sequence apart from its value, so it loses no
precision to the ``2c`` on the diagonal.  Its levels lie within a few ulp
of a long-double bisection of the same matrix, where LAPACK ``stebz``
rounds its Sturm counts at about ulp*||T||, 1e-11 to 1e-10 eV on 20 001
rows.  Nothing here comes from :mod:`wellcascade.transcendental`, and the
shared multisection is bracket logic only, so the oracle stays independent
of the formulas it checks.

Only eigenvalues below the barrier top are bound states; the ones above it
are box artifacts.  So each solve first counts the eigenvalues below the
barrier top and locates only the smaller of that count and the request.
LAPACK certifies the count: a ``stebz`` call by value over (Gershgorin
floor, barrier top], whose absolute tolerance is as wide as the window, so
it returns after the Sturm counts at its two ends (about 1 ms on 20 001
rows), must give the same number, or the solve fails with
:class:`SturmCountError`.  A level within LAPACK's count rounding of the top
may fall on either side of it for LAPACK, so where the two counts differ the
closed-form count stands if it lies between LAPACK's counts at the top -/+
4 eps ||T||.  :func:`fd_states` takes its eigenvectors from LAPACK ``stein``
at the located levels.

The potential enters as its average over each grid cell: a cell inside one
segment takes that segment's value, and a cell that straddles a breakpoint
the mean of its parts.  Sampling the potential pointwise instead would leave
an O(h) misalignment error at every breakpoint.  The error is still not
smooth in h, since each breakpoint's place inside its cell moves with h, so
Richardson step-halving is not reliable.  Measured against the solver on
paper.cfg pairs 1-4, extrapolating from 20 001 rows leaves 2.8e-9 to 1.5e-8
eV where the raw levels are off by 8.9e-8 to 1.1e-6 eV; from 200 001 rows it
leaves 5.3e-9 eV on pair 2, where the raw levels are off by 9.4e-10 eV.
ROADMAP.md ("An oracle that converges at a known order") plans a grid with a
node on every breakpoint.

scipy is imported inside the functions that call it, and the CLI imports
this module only in its ``oracle`` command, so importing the package, and
running every CLI command but ``oracle``, loads neither.  :class:`FdConfig`
and :class:`SturmCountError` are defined in :mod:`wellcascade.eigensolver`,
beside :class:`~wellcascade.eigensolver.SolverConfig`, so that reading a
config needs nothing of this module; they are imported here, so
``wellcascade.oracle.FdConfig`` and ``.SturmCountError`` name them still.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .eigensolver import FdConfig, SturmCountError, _multisect
from .potential import PotentialProfile
from .quantities import CODATA2018, PhysicalConstants

__all__ = [
    "FdConfig",
    "FdResult",
    "fd_solve",
    "fd_states",
    "count_nodes",
    "SturmCountError",
]

# entries below this fraction of the peak are noise to count_nodes
_NODE_FLOOR = 1e-9
# floor of a run's decay rate per row: the rate of every |E - V| above about
# 1e-300 c exceeds it, so it acts only at E = V
_KAPPA_FLOOR = 1e-150
# magnitude that an exact zero of a one-row run takes (see _one_row)
_PIVOT_FLOOR = np.finfo(float).tiny


class FdResult(NamedTuple):
    """Eigenvalues below the barrier top, with optional Richardson data."""

    levels: tuple[float, ...]
    truncated: bool
    error_estimates: tuple[float, ...] | None = None


def _cell_averaged_potential(edges, values, x, h):
    """Mean of the piecewise-constant potential over each cell [x-h/2, x+h/2].

    A cell inside one segment takes that segment's value as it is; only the
    cells that straddle a breakpoint are averaged.
    """
    lo, hi = x - 0.5 * h, x + 0.5 * h
    last = len(values) - 1
    first = np.clip(np.searchsorted(edges, lo, side="right") - 1, 0, last)
    final = np.clip(np.searchsorted(edges, hi, side="left") - 1, 0, last)
    average = values[first]
    straddle = np.flatnonzero(first != final)
    if straddle.size:
        cumulative = np.concatenate(([0.0], np.cumsum(values * np.diff(edges))))

        def antiderivative(points):
            clipped = np.clip(points, edges[0], edges[-1])
            idx = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, last)
            return cumulative[idx] + values[idx] * (clipped - edges[idx])

        average[straddle] = (antiderivative(hi[straddle]) - antiderivative(lo[straddle])) / h
    return average


def _tridiagonal(profile, grid_points, constants):
    starts, ends, values = np.array(profile.segments).T
    edges = np.append(starts, ends[-1])
    span = edges[-1] - edges[0]
    h = span / (grid_points + 1)
    x = edges[0] + h * np.arange(1, grid_points + 1)
    kinetic = constants.kinetic_coefficient()
    diag = 2.0 * kinetic / h**2 + _cell_averaged_potential(edges, values, x, h)
    off = np.full(grid_points - 1, -kinetic / h**2)
    return x, h, diag, off


def _gershgorin(diag, off) -> tuple[float, float]:
    """Interval that holds every eigenvalue of the tridiagonal matrix.

    It is wider than the Gershgorin bounds by more than the rounding of a
    Sturm count, so no count can place an eigenvalue outside it.
    """
    reach = 2.0 * float(np.max(np.abs(off)))
    lo, hi = float(np.min(diag)) - reach, float(np.max(diag)) + reach
    slack = diag.size * np.finfo(float).eps * max(abs(lo), abs(hi))
    return lo - slack, hi + slack


def _bound_count(diag, off, barrier_top: float, floor: float) -> int:
    """LAPACK's number of eigenvalues in (``floor``, ``barrier_top``].

    ``floor`` is the matrix's Gershgorin floor (:func:`_gershgorin`).  An
    absolute tolerance as wide as the window stops ``stebz``'s bisection
    before it starts, so the call costs the Sturm counts at the two ends.
    The profile's values are finite, so the matrix is, and no finiteness scan
    runs.
    """
    from scipy.linalg import eigh_tridiagonal

    if not barrier_top > floor:
        return 0
    width = barrier_top - floor
    return eigh_tridiagonal(
        diag, off, select="v", select_range=(floor, barrier_top), eigvals_only=True, tol=width,
        check_finite=False,
    ).size


def _runs(diag, off):
    """The matrix as runs of equal rows: each run's potential ``d - 2c``, its
    length, and the coupling ``c``."""
    c = -float(off[0])
    starts = np.flatnonzero(np.concatenate(([True], diag[1:] != diag[:-1])))
    lengths = np.diff(np.append(starts, diag.size))
    return diag[starts] - 2.0 * c, lengths, c


def _oscillating(x, m, psi, step):
    """Sign changes across a run with ``0 < x < 1`` and the state at its end.

    There ``a = 2 cos(theta)`` with ``sin(theta/2)**2 = x``, and the
    sequence is ``R sin(chi + j theta)`` for ``j = -1, 0, ..., m``, where
    ``chi`` is the phase of ``psi``: a sign change lies wherever the phase
    crosses a multiple of pi.  ``chi`` takes the sign of ``psi`` exactly, and
    the run's last entry takes the sign of the turns counted: within rounding
    of a multiple of pi, ``sin`` can keep the sign from before a change that
    ``floor`` counts, and the next run would count it again.
    """
    half = np.sqrt(x)  # sin(theta/2)
    theta = 2.0 * np.arcsin(half)
    # R cos(chi) sin(theta) = psi cos(theta) - psi_prev, with cos(theta) = 1 - 2x
    chi = np.arctan2(psi * 2.0 * half * np.sqrt(1.0 - x), step - 2.0 * x * psi)
    end = chi + m * theta
    turns = np.floor(end / np.pi)
    psi = np.copysign(np.sin(end), 0.5 - (turns.astype(np.int64) & 1))
    # sin(end) - sin(end - theta) = 2 sin(theta/2) cos(end - theta/2)
    return turns - np.floor(chi / np.pi), psi, 2.0 * half * np.cos(end - 0.5 * theta)


def _decaying(x, m, psi, step):
    """Sign changes across a run with ``a = 2 cosh(kappa) >= 2`` and the state at its end.

    ``x = -sinh(kappa/2)**2 <= 0``.  The sequence is ``A g**j + B g**-j`` with
    ``g = exp(kappa)``, ``j = 0`` at ``psi``; ``2 sinh(kappa) A = step +
    (g - 1) psi`` and ``2 sinh(kappa) B = (1 - 1/g) psi - step``, each a
    sum that keeps the relative precision of ``step`` when the two nearly
    cancel.  The end of the run is scaled by ``2 sinh(kappa) g**-m``, so no
    run overflows however long.  A floor on ``kappa`` makes the same
    formulas the linear solution at ``a = 2``.  The run holds one sign
    change when its first and last entries differ in sign, else none.
    """
    kappa = np.maximum(2.0 * np.arcsinh(np.sqrt(-x)), _KAPPA_FLOOR)
    grow, shrink = np.expm1(kappa), -np.expm1(-kappa)  # g - 1 and 1 - 1/g
    a = step + grow * psi
    b = shrink * psi - step
    fade = np.expm1(-2.0 * m * kappa)  # g**-2m - 1
    # a + b g**-2m, written so that the step cancels exactly as kappa -> 0
    end = (grow + shrink) * psi + b * fade
    return psi * end < 0.0, end, a * shrink - (b + b * fade) * grow


def _alternating(x, m, psi, step):
    """Sign changes across a run with ``a <= -2`` and the state at its end.

    ``x >= 1``.  With every other entry negated the run is one with
    ``-a >= 2`` and ``1 - x`` in place of ``x``, whose sequence changes sign
    at most once; each of the ``m`` steps of the run on which the negated
    sequence keeps its sign is a sign change.  The end state is taken up to
    an overall sign.
    """
    changes, end, end_step = _decaying(1.0 - x, m, -psi, step - 2.0 * psi)
    return m - changes, end, 2.0 * end - end_step


def _one_row(x, psi, step):
    """Sign changes across a run of one row and the state at its end.

    One step of the recurrence, ``psi_(i+1) = (2 - 4x) psi_i - psi_(i-1)``,
    in every regime: a few array operations where a closed form takes about
    fifteen.  An entry that comes out exactly zero counts as a sign change,
    as a zero pivot does in LAPACK's count.  It is replaced by the smallest
    normal double of the sign opposite to ``psi``, as LAPACK replaces the
    pivot by ``-pivmin``, so the runs after it see a definite sign and do
    not count the change a second time.
    """
    after = psi + step - 4.0 * x * psi
    if not after.all():
        zero = after == 0.0
        after[zero] = np.copysign(_PIVOT_FLOOR, -psi[zero])
    return psi * after < 0.0, after, after - psi


def _sturm_count(runs, energies) -> np.ndarray:
    """Number of eigenvalues below each energy: the sign changes of the Sturm sequence.

    The sequence is the leading minors of ``T - E``, scaled by ``c`` per row:
    ``psi_(i+1) = a_i psi_i - psi_(i-1)`` with ``a_i - 2 = (V_i - E) / c``,
    from ``psi_0 = 1`` and ``psi_(-1) = 0``.  Over a run of equal rows it has
    a closed form (see :func:`_oscillating`, :func:`_decaying` and
    :func:`_alternating`, by ``x = (E - V) / 4c``), so the cost is per run,
    not per row.  A run of one row, a cell that straddles a breakpoint,
    takes one step of the recurrence instead (:func:`_one_row`), which is
    cheaper than any closed form and counts as LAPACK does where its entry
    is exactly zero.  The state is ``psi_i`` and the step ``psi_i - psi_(i-1)``,
    kept apart so that a slowly varying sequence keeps its slope to full
    precision, and it leaves each run at unit length.  The energies may come
    in any order and shape; the counts come back in the same.
    """
    values, lengths, c = runs
    e = np.asarray(energies, dtype=float)
    # sorted, every run's regimes are three contiguous slices, found by bisection:
    # x <= 0 decays, 0 < x < 1 oscillates, x >= 1 (and NaN, sorted last) alternates
    order = np.argsort(e, axis=None)
    sorted_e = e.ravel()[order]
    psi, step, count = np.ones(e.size), np.ones(e.size), np.zeros(e.size)
    for value, m in zip(values.tolist(), lengths.tolist()):
        x = (sorted_e - value) / (4.0 * c)
        if m == 1:
            changes, psi, step = _one_row(x, psi, step)
            count += changes
        else:
            i, j = np.searchsorted(x, 0.0, side="right"), np.searchsorted(x, 1.0)
            for branch, part in ((_decaying, slice(0, i)), (_oscillating, slice(i, j)),
                                 (_alternating, slice(j, x.size))):
                if part.start < part.stop:
                    changes, psi[part], step[part] = branch(x[part], m, psi[part], step[part])
                    count[part] += changes
        norm = np.hypot(psi, step)
        psi, step = psi / norm, step / norm
    counts = np.empty(e.size, dtype=np.int64)
    counts[order] = count
    return counts.reshape(e.shape)


def _grid(profile, grid_points, constants):
    """The matrix on one grid, its runs, its number of bound levels and its Gershgorin interval.

    The closed-form count at the barrier top must equal LAPACK's, or lie
    between LAPACK's counts at the top -/+ 4 eps ||T||, or the grid is
    rejected.
    """
    x, h, diag, off = _tridiagonal(profile, grid_points, constants)
    runs, (floor, ceiling) = _runs(diag, off), _gershgorin(diag, off)
    barrier_top = profile.max_value()
    bound = int(_sturm_count(runs, [barrier_top])[0])
    certificate = _bound_count(diag, off, barrier_top, floor)
    if bound != certificate:
        # LAPACK's count rounds at about eps*||T||: a level that close to the
        # top may fall on either side of it
        slack = 4.0 * np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
        below, above = (_bound_count(diag, off, barrier_top + s, floor) for s in (-slack, slack))
        if not below <= bound <= above:
            raise SturmCountError(
                f"at E = {barrier_top!r} eV the closed-form Sturm count is {bound} but LAPACK "
                f"counts {certificate} (from {below} to {above} within {slack:.3g} eV), "
                f"on {grid_points} rows of {profile!r}"
            )
    return x, h, diag, off, runs, bound, (floor, ceiling)


def _levels(grid, top, barrier_top) -> np.ndarray:
    """The lowest ``top`` eigenvalues of one grid's matrix.

    Levels below its bound count are bracketed by (Gershgorin floor, barrier
    top]; with several grids solved over one index range, the rest by
    (barrier top, Gershgorin ceiling].
    """
    _, _, _, _, runs, bound, (floor, ceiling) = grid
    k = np.arange(top)
    lo = np.where(k < bound, floor, barrier_top)
    hi = np.where(k < bound, barrier_top, ceiling)
    # level k lies above every point counting k or fewer below it
    lo, hi = _multisect(lo, hi, lambda live, points: np.where(
        _sturm_count(runs, points) <= k[live, None], 1, -1))
    return 0.5 * (lo + hi)


def fd_solve(
    profile: PotentialProfile,
    n_levels: int,
    config: FdConfig | None = None,
    constants: PhysicalConstants = CODATA2018,
) -> FdResult:
    """Lowest ``n_levels`` bound eigenvalues of the discretised Hamiltonian.

    Eigenvalues at or above the highest barrier are box artifacts, not bound
    states.  They are counted first, by runs, with LAPACK's count as the
    certificate, and never located (see module notes); any that slip under
    the count are dropped, and the result is marked ``truncated`` when fewer
    than ``n_levels`` entries remain.  With ``extrapolate`` the grid step is
    halved once and each level Richardson-combined; both grids are solved
    over one index range, capped by the larger of their counts and by the
    coarse grid's size.  The raw step-halving difference ``|E_half -
    E_full|`` is reported per level as an error estimate.  It is not a bound:
    on every paper.cfg pair, at 20 001 and at 200 001 rows, some extrapolated
    level is off by more than its estimate (pair 4 at 20 001 rows, level 2:
    4.1e-9 against 3.4e-10 eV, see the module notes).
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    cfg = config or FdConfig()
    barrier_top = profile.max_value()
    sizes = [cfg.grid_points] + ([2 * cfg.grid_points + 1] if cfg.extrapolate else [])
    grids = [_grid(profile, n, constants) for n in sizes]
    top = min(n_levels, cfg.grid_points, max(grid[5] for grid in grids))
    levels_all = coarse = _levels(grids[0], top, barrier_top)
    estimates = None
    if cfg.extrapolate:
        fine = _levels(grids[1], top, barrier_top)
        levels_all = (4.0 * fine - coarse) / 3.0
        estimates = np.abs(fine - coarse)
    keep = levels_all < barrier_top
    levels = tuple(float(e) for e in levels_all[keep])
    est = tuple(float(e) for e in estimates[keep]) if estimates is not None else None
    return FdResult(levels=levels, truncated=len(levels) < n_levels, error_estimates=est)


def fd_states(
    profile: PotentialProfile,
    n_levels: int,
    config: FdConfig | None = None,
    constants: PhysicalConstants = CODATA2018,
):
    """Grid positions, bound eigenvalues and unit-norm eigenfunctions.

    The eigenvalues are :func:`fd_solve`'s, bit for bit, without
    extrapolation, which does not apply to states: the configured grid is
    used as is.  The eigenvectors come from LAPACK ``stein`` (inverse
    iteration) at those eigenvalues, L2-normalised so that
    ``h * sum(psi**2) = 1``.
    """
    from scipy.linalg import lapack

    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    cfg = config or FdConfig()
    barrier_top = profile.max_value()
    grid = _grid(profile, cfg.grid_points, constants)
    x, h, diag, off, _, bound, _ = grid
    energies = _levels(grid, min(n_levels, bound), barrier_top)
    energies = energies[energies < barrier_top]
    if not energies.size:
        return x, energies, np.empty((x.size, 0))
    blocks = np.ones(diag.size, dtype=np.int32)
    splits = np.zeros(diag.size, dtype=np.int32)
    splits[0] = diag.size
    vectors, info = lapack.dstein(diag, off, energies, blocks, splits)
    if info:
        raise np.linalg.LinAlgError(f"stein: {info} eigenvector(s) of {profile!r} did not converge")
    return x, energies, vectors / math.sqrt(h)


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
