"""Bound-state search and geometry calibration for well pairs.

Every level is addressed by its index.  The Sturm oscillation count
:func:`~wellcascade.transcendental.count_below` gives the number N(E) of
levels below any energy, so the levels inside a solve window are numbered
by N at its two ends, and each one is placed on the uniform energy grid
``lo + step*i`` by narrowing an index bracket on N until it is one grid cell.
The grid is never built: N is evaluated only at the bracket points, about a
thousand energies for a full-range pair where a full scan took 79 000.  A cell where N
rises by two or more holds a doublet narrower than the step; it is halved on
N in continuous energy until each level has a bracket of its own, so the
step sets how each residual is scaled, not which levels are found.

The cleared matching function (see :mod:`.transcendental`) is then evaluated
at every bracket end in one call, and every bracket is refined on it by
bisection.  All brackets are bisected in lockstep, several halvings per
round, by :func:`_multisect`, the program's one multisection (the oracle
locates its levels with it too, walked by its own count): a round evaluates
the cleared form once, at every midpoint of bisection's own tree a few
levels below each open bracket (six levels for a few brackets, one for a
few hundred), and each bracket descends its tree by the signs.  Each
bracket carries its own pair's geometry and still sees its own midpoint
sequence, so the roots are those of bisecting one bracket at a time.  The
lockstep spans every solve of a batch.  A batch is one geometry of
parameter arrays (one pair per element) solved with one
:class:`SolverConfig` over one energy window: a single :func:`solve_pair`
is a batch of one, the cascade solves its four pairs as one batch, and
calibration solves its whole coarse grid as one batch, the template's
geometry with the searched parameter set to an array.  So numpy's per-call
overhead is paid once per round rather than once per round and candidate.
Bisection is unconditionally safe here because the cleared form is
continuous and free of poles; it always runs down to machine resolution, so
every reported bracket closes at adjacent doubles (or at an exact zero) and
no tolerance stops it early.  A one-level cell is
the bracket that scanning the whole grid for sign changes finds (see
:func:`_solve_batch` for a level within rounding of a grid point), so the
energies and residuals are the scan's bit for bit.

A level's ``residual`` is the magnitude of the cleared matching function at
the refined energy divided by its larger magnitude at the two ends of the
level's grid cell (a positive rescaling, so the root set is untouched).
True roots collapse this ratio to near machine epsilon; a sign change
produced by anything that is not a root cannot shrink it, which is what the
``residual_tol`` filter screens for.  Raw-mismatch residuals would be meaningless here: deep-well
levels sit within ~1e-13 eV of poles of the deep-side matching function,
where the raw mismatch is ill-conditioned beyond double precision.

Calibration searches one geometry parameter (center distance or one depth)
so that the pair's levels best match a set of target energies: a
deterministic coarse batch (the whole grid solved as one batch, every misfit
read from its level arrays at once; no pair object is built per candidate),
then Newton refinement on implicit level slopes inside the best cell.  Each
target is matched to its nearest level; the slope of a level follows from
the cleared form F(x, E) = 0 as dE/dx = -F_x/F_E, both partials by differences of one
:func:`characteristic` call, and a Gauss-Newton step (halved until the
misfit drops) costs one windowed solve, so a fit takes about two solves.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .potential import WellPair, pair_segments
from .quantities import CODATA2018, PhysicalConstants
from .transcendental import Regime, characteristic, classify_regime, count_below, grid_scan

__all__ = [
    "SolverConfig",
    "Level",
    "SolveDiagnostics",
    "SolveResult",
    "CalibrationResult",
    "CalibrationError",
    "solve_pair",
    "find_levels",
    "calibrate_distance",
    "calibrate_depth",
    "uniform_grid",
]

# difference steps of the implicit level slopes, as fractions of the
# calibration step (parameter) and of the solver grid step (energy)
_SLOPE_H = 1e-3
# Gauss-Newton iterations per calibration; a fit needs two or three
_NEWTON_ITERATIONS = 10
# largest misfit (eV) of an accepted calibration
_MISFIT_TOL = 5e-3
# margin (eV) of a calibration's solve window beyond its lowest and highest target
_SEARCH_PAD = 0.05
# most points of one grid: 125x the 79k energies of a full-range solve at 2e-5 eV; it
# also bounds the oracle's rows and a sampled wavefunction's points
_MAX_GRID_POINTS = 10_000_000
# points per multisection round of a solve batch (count or cleared form), and most
# sections of one bracket: a call costs about as much as a few hundred energies (the
# cleared form 16 us plus 60 ns per energy, the count 50 us plus 125 ns per energy, on
# a 2-CPU x86-64 host with numpy 2.4), so a few brackets are cut in many sections and
# a large batch is bisected
_ROUND_POINTS = 512
_SECTIONS = 64
# the lower end of a window open at the bottom: the count is 0 there, and the
# cleared form is defined (grid_scan takes energies above 0)
_TINY = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class SolverConfig:
    """Grid step and residual filter of the bound-state search.

    ``grid_step`` (eV) sets the grid cell that scales each residual, not
    which levels are found; ``residual_tol`` is the largest residual of a
    reported level.  Every bracket closes at adjacent doubles and every level
    of the window is reported, so neither needs a setting.
    """

    grid_step: float = 2e-5
    residual_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.grid_step) and self.grid_step > 0.0):
            raise ValueError(f"grid_step must be finite and > 0, got {self.grid_step}")
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise ValueError(f"residual_tol must be positive, got {self.residual_tol}")


@dataclass(frozen=True)
class Level:
    """One bound state: pair-local energy plus solver bookkeeping.

    ``residual`` is the relative size of the cleared matching function at the
    root (see module notes); ``bracket`` is the final bisection interval.
    """

    energy: float
    regime: Regime
    residual: float
    bracket: tuple[float, float]
    index: int


@dataclass(frozen=True)
class SolveDiagnostics:
    grid_points: int
    sign_changes: int
    skipped_intervals: tuple[tuple[float, float], ...]
    discarded_candidates: tuple[float, ...]


@dataclass(frozen=True)
class SolveResult:
    pair: WellPair
    config: SolverConfig
    levels: tuple[Level, ...]
    diagnostics: SolveDiagnostics


def _grid_size(lo: float, hi: float, step: float) -> int:
    """Number of points ``lo + step*i`` for ``i = 0, 1, ...`` up to ``hi``; at most ``_MAX_GRID_POINTS``."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got lo={lo!r}, hi={hi!r}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"grid step must be finite and positive, got {step!r}")
    span = (hi - lo) / step
    if span >= _MAX_GRID_POINTS:
        raise ValueError(
            f"grid step {step!r} over [{lo!r}, {hi!r}] needs {span + 1:.4g} points, "
            f"more than {_MAX_GRID_POINTS}"
        )
    return int(math.floor(span)) + 1


def uniform_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Points ``lo + step*i`` for ``i = 0, 1, ...`` up to ``hi``; at most ``_MAX_GRID_POINTS``."""
    return lo + step * np.arange(_grid_size(lo, hi, step))


class _Geometry(NamedTuple):
    """The parameters of many pairs as arrays, one pair per element."""

    width: np.ndarray
    distance: np.ndarray
    v_shallow: np.ndarray
    v_deep: np.ndarray
    shallow_floor = WellPair.shallow_floor

    @classmethod
    def of(cls, pairs) -> _Geometry:
        return cls(*(np.array([getattr(p, name) for p in pairs]) for name in cls._fields))

    @classmethod
    def varied(cls, template: WellPair, field: str, values) -> _Geometry:
        """``template`` once per entry of ``values``, with ``field`` set to that entry."""
        values = np.asarray(values, dtype=float)
        return cls(*(values if name == field else np.full(values.shape, getattr(template, name))
                     for name in cls._fields))

    def take(self, index) -> _Geometry:
        return _Geometry(*(a[index] for a in self))


def _multisect(lo, hi, decide):
    """Shrink brackets down to machine resolution, together: the program's one multisection.

    A round descends ``depth`` levels of bisection's own midpoint tree with
    one ``decide(live, points)`` call, on the midpoints ``0.5*(a + b)`` of
    every node down to that depth of every bracket still open: ``live``
    holds the indices of those brackets, ``points[i]`` their tree in order.
    ``depth`` is as large as ``_ROUND_POINTS`` and ``_SECTIONS`` allow (one
    level for a few hundred brackets, six for a few).  ``decide`` returns
    the move at each node: 1 to its right child, -1 to its left one, and 0
    at an exact hit, which collapses the bracket to ``(mid, mid)``.  Each
    bracket walks its own tree, so it sees the midpoint sequence it would see
    alone.  A bracket closes when its midpoint is no longer strictly inside
    it, or after 200 halvings.  A midpoint not strictly inside its node is
    one of its ends, where a consistent ``decide`` moves toward the other
    end: the walk keeps the bracket, and the next round closes it.  Rounds
    carry only the open brackets, and each bracket's ends are written back
    when it closes; a one-level round builds no tree, as each bracket keeps
    the half its move names.
    """
    lo, hi = lo.copy(), hi.copy()
    live, a, b, halvings = np.arange(lo.size), lo, hi, 0
    while halvings < 200:
        root = 0.5 * (a + b)
        keep = (a < root) & (root < b)
        if not keep.all():
            # only open brackets are carried; the closed ones leave their ends here
            lo[live], hi[live] = a, b
            live, a, b, root = (x[keep] for x in (live, a, b, root))
        if not live.size:
            break
        # the deepest tree whose 2**depth - 1 midpoints the round affords, at least one level
        n = live.size
        depth = min(max(1, min(_SECTIONS, _ROUND_POINTS // n + 1).bit_length() - 1), 200 - halvings)
        halvings += depth
        if depth == 1:
            move = decide(live, root[:, None])[:, 0]
            a, b = np.where(move < 0, a, root), np.where(move > 0, b, root)
            continue
        # the tree in order: ends[m] is the midpoint of node m, which spans
        # ends[m - h] to ends[m + h] with h = 2**(depth - 1 - level); its children
        # are m - h/2 and m + h/2
        width = 2**depth
        ends = np.empty((n, width + 1))
        ends[:, 0], ends[:, width // 2], ends[:, width] = a, root, b
        for span in (width >> level for level in range(1, depth)):
            ends[:, span // 2 :: span] = 0.5 * (ends[:, :-1:span] + ends[:, span::span])
        move = decide(live, ends[:, 1:-1])
        # each bracket walks down from its root; ``at`` indexes the flattened nodes
        rows = np.arange(n)
        at = rows * (width - 1) + (width // 2 - 1)
        for level in range(1, depth):
            at += (width >> (level + 1)) * move.ravel()[at]
        # the leaf on the side of the last move, or (mid, mid) at a zero; ``at``
        # now indexes the node's midpoint in the flattened ends
        last = move.ravel()[at]
        at += 2 * rows + 1
        a, b = ends.ravel()[at - (last < 0)], ends.ravel()[at + (last > 0)]
    lo[live], hi[live] = a, b
    return lo, hi


def _bisect(geometry, lo, hi, f_lo, constants):
    """Shrink verified sign-change brackets of the cleared form, together.

    ``geometry`` holds each bracket's pair parameters, so the brackets may
    come from different pairs.  :func:`_multisect` walks each bracket by the
    sign of one :func:`characteristic` call per round: to the right child
    where f has lo's sign, else to the left one, and it stops at an exact
    zero.  The open brackets' geometry and signs are gathered only when some
    bracket closes.
    """
    # f > 0 at lo: a halving keeps lo on its side of the root, so this never changes
    columns, up = _Geometry(*(x[:, None] for x in geometry)), (f_lo > 0.0)[:, None]
    open_columns, open_up = columns, up

    def decide(live, points):
        nonlocal open_columns, open_up
        if live.size != open_up.size:
            open_columns, open_up = columns.take(live), up[live]
        f = characteristic(open_columns, points, constants)
        move = np.where((f > 0.0) == open_up, 1, -1)
        move[f == 0.0] = 0
        return move

    return _multisect(lo, hi, decide)


def _grids(geometry, step, e_min, e_max):
    """Each pair's window and grid: ``(bottom, top, first point, size)``.

    The window runs from ``e_min`` (or just above 0) to ``e_max`` (or the
    barrier top ``v_deep``); the grid is the part of it inside
    [step, v_deep - step]."""
    # a NaN bound would fall out of max/min below and leave the full range
    for name, bound in (("e_min", e_min), ("e_max", e_max)):
        if bound is not None and math.isnan(bound):
            raise ValueError(f"solve window bound {name} must be a number, got nan")
    bottom = max(_TINY, -math.inf if e_min is None else e_min)
    top = np.minimum(geometry.v_deep, math.inf if e_max is None else e_max)
    lo, hi = max(step, bottom), np.minimum(geometry.v_deep - step, top)
    # every grid at once; the first pair past the point limit raises _grid_size's error
    span, sized = (hi - lo) / step, hi > lo
    bad = np.flatnonzero(sized & ~(span < _MAX_GRID_POINTS))
    if bad.size:
        _grid_size(lo, float(hi[bad[0]]), step)
    return bottom, top, lo, np.where(sized, np.floor(span) + 1, 0).astype(int)


def _sign_change(f_lo, f_hi):
    """Where the cleared form changes sign across a bracket: both ends finite and nonzero."""
    return np.isfinite(f_lo) & np.isfinite(f_hi) & (np.sign(f_lo) * np.sign(f_hi) < 0.0)


def _cells(count, grid, size, bottom, top):
    """Number every level inside each pair's window and find its cell.

    Returns per level its pair, its index ``k`` among all levels of that
    pair, the cell ``[a, a + 1]`` that holds it (``N(grid(a)) <= k <
    N(grid(a + 1))``), and ``N`` at both cell ends.  Index -1 stands for the
    window's bottom and ``size`` for its top: the end cells ``[-1, 0]`` and
    ``[size - 1, size]`` run from the grid's end points out to the window's
    ends (a window without grid points is the one cell ``[-1, 0]``).  The
    first round cuts each whole window, its ends included, and the counts at
    the ends number the levels; then the index brackets ``[a, b]`` shrink by
    multisection over the grid, every level of every pair together.
    Brackets of two levels are the same or disjoint, so levels in one bracket
    (adjacent in the arrays) share its count points.  A round spends about
    ``_ROUND_POINTS`` points: a few brackets get many sections each, a large
    batch is bisected.
    """
    cells = np.flatnonzero(top > bottom)
    length = size[cells] + 1  # from index -1 to size
    sections = max(1, min(_SECTIONS, _ROUND_POINTS // max(cells.size, 1), int(length.max(initial=1))))
    points = length[:, None] * np.arange(sections + 1) // sections - 1
    energies = grid(points)
    energies[points < 0] = bottom
    energies[:, -1] = top[cells]
    at = np.repeat(cells, sections + 1)
    counts = count(at, energies.ravel()).reshape(points.shape)
    per = counts[:, -1] - counts[:, 0]
    owner = np.repeat(cells, per)
    k = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per - counts[:, 0], per)
    row = np.repeat(np.arange(cells.size), per)
    t = np.count_nonzero(counts[row] <= k[:, None], axis=1)
    a, b = points[row, t - 1], points[row, t]
    n_a, n_b = counts[row, t - 1], counts[row, t]
    while True:
        live = np.flatnonzero(b - a > 1)
        if not live.size:
            return owner, k, a, n_a, n_b
        new = np.ones(live.size, dtype=bool)
        new[1:] = (owner[live[1:]] != owner[live[:-1]]) | (a[live[1:]] != a[live[:-1]])
        head, which = live[new], np.cumsum(new) - 1
        width = b[head] - a[head]
        sections = max(2, min(_SECTIONS, _ROUND_POINTS // head.size, int(width.max())))
        points = a[head, None] + width[:, None] * np.arange(1, sections) // sections
        at = np.repeat(owner[head], sections - 1)
        counts = count(at, grid(points.ravel())).reshape(points.shape)
        # t: how many of a level's count points lie at or below it; the new
        # cell is [t, t + 1] of its bracket's points with the ends included
        t = np.count_nonzero(counts[which] <= k[live, None], axis=1)
        points = np.concatenate((a[head, None], points, b[head, None]), axis=1)
        counts = np.concatenate((n_a[head, None], counts, n_b[head, None]), axis=1)
        a[live], b[live] = points[which, t], points[which, t + 1]
        n_a[live], n_b[live] = counts[which, t], counts[which, t + 1]


def _isolate(count, owner, k, lo, hi, n_a, n_b):
    """Halve the bracket of every level that shares it, on the count, in place.

    A bracket holds level ``k`` alone once ``N(lo) == k`` and ``N(hi) == k + 1``;
    returns where that holds.  Brackets narrower than two doubles stay shared.
    """
    for _ in range(200):
        live = np.flatnonzero((n_a != k) | (n_b != k + 1))
        mid = 0.5 * (lo[live] + hi[live])
        inside = (lo[live] < mid) & (mid < hi[live])
        live, mid = live[inside], mid[inside]
        if not live.size:
            break
        n_mid = count(owner[live], mid)
        above = n_mid > k[live]
        hi[live[above]], n_b[live[above]] = mid[above], n_mid[above]
        lo[live[~above]], n_a[live[~above]] = mid[~above], n_mid[~above]
    return (n_a == k) & (n_b == k + 1)


def _neighbour_cells(scan, cell_end, size, owner, a, stray, lo, hi, f_lo, f_hi):
    """Move stray one-level brackets to the neighbour cell that changes sign, in place.

    A level within rounding of a grid point lies on either side of it for the
    count and for the cleared form alike, so the cell the count gives can show
    no sign change while the next one does; scanning the whole grid finds the
    level there.  The neighbour ``[a-1, a]`` or ``[a+1, a+2]`` is taken when it
    is a grid cell, no other level's count places it there and the cleared
    form changes sign across it; with both, the side whose shared end is
    nearer zero.  ``cell_end(owner, index)`` gives the energy of a cell end.
    Returns the levels moved.
    """
    r, i = owner[stray], a[stray]
    before, after = np.maximum(stray - 1, 0), np.minimum(stray + 1, a.size - 1)
    taken_left = (before != stray) & (owner[before] == r) & (a[before] == i - 1)
    taken_right = (after != stray) & (owner[after] == r) & (a[after] == i + 1)
    both = np.tile(r, 2)
    outer, _ = scan(both, cell_end(both, np.concatenate([i - 1, i + 2])))
    f_left, f_right = outer.reshape(2, -1)
    left = (i >= 1) & ~taken_left & _sign_change(f_left, f_lo[stray])
    right = (i + 2 < size[r]) & ~taken_right & _sign_change(f_hi[stray], f_right)
    right &= ~left | (np.abs(f_hi[stray]) <= np.abs(f_lo[stray]))
    left &= ~right
    go = stray[right]
    lo[go], hi[go] = hi[go], cell_end(owner[go], a[go] + 2)
    f_lo[go], f_hi[go] = f_hi[go], f_right[right]
    go = stray[left]
    lo[go], hi[go] = cell_end(owner[go], a[go] - 1), lo[go]
    f_lo[go], f_hi[go] = f_left[left], f_lo[go]
    return stray[left | right]


class _Batch(NamedTuple):
    """Per-level arrays of a solve batch, grouped by pair in batch order."""

    owner: np.ndarray  # the pair of each level, as its place in the batch
    size: np.ndarray  # grid points of each pair
    found: np.ndarray  # a root was bisected, or lies at a bracket end
    change: np.ndarray  # the cleared form changes sign across the bracket
    kept: np.ndarray  # found and within residual_tol: reported
    discarded: np.ndarray  # found but beyond residual_tol
    energy: np.ndarray
    residual: np.ndarray
    r_lo: np.ndarray  # the refined bracket
    r_hi: np.ndarray
    lo: np.ndarray  # the bracket before refinement
    hi: np.ndarray


def _solve_batch(geometry: _Geometry, cfg: SolverConfig, e_min, e_max, constants) -> _Batch:
    """Solve every pair of ``geometry`` with one config and one window, every level by its index.

    ``geometry`` holds the pairs' parameters as arrays.  The grid of a pair
    is ``lo + step*i`` over the window (as :func:`uniform_grid`), cut to its
    own barrier top, but it is never built.  The oscillation count
    :func:`count_below` at the two window ends numbers the levels inside, and
    each level's cell follows by multisection of the count over the grid
    index (:func:`_cells`).  The cells beyond the grid's end points run out
    to the window's ends; an open window's bracket ends there are the
    smallest positive double and the double below ``v_deep``, inside the
    range :func:`grid_scan` takes.  A cell that holds two or more levels is halved
    on the count in continuous energy until each has a bracket of its own
    (:func:`_isolate`).  One :func:`grid_scan` call evaluates the cleared form
    at every bracket end, and every bracket with a sign change goes to
    :func:`_bisect`, all together, several halvings per call.  A one-level
    cell is the bracket the full-grid scan would find, so its level is the
    scan's bit for bit.  A level within rounding of a grid point may show its
    sign change in the next cell instead, as on the full grid: that cell is
    taken when no other level's count places it there.  Every other bracket
    without a sign change of the cleared form is reported in
    ``skipped_intervals``.  Returns per-level arrays, which
    :func:`_solve_all` assembles into one :class:`SolveResult` per pair and
    calibration reads directly.
    """
    step = cfg.grid_step
    bottom, top, first, size = _grids(geometry, step, e_min, e_max)
    ceiling = np.minimum(top, np.nextafter(geometry.v_deep, 0.0))

    def count(owner, energies):
        return count_below(pair_segments(geometry.take(owner)), energies, constants)

    def grid(index):
        return first + step * index

    def cell_end(owner, index):
        """A cell end's energy: the window's ends lie at -1 and from ``size`` on."""
        energy = grid(index)
        energy[index < 0] = bottom
        above = index >= size[owner]
        energy[above] = ceiling[owner[above]]
        return energy

    def scan(owner, energies):
        scanned = grid_scan(geometry.take(owner), energies, constants)
        return scanned.char, scanned.char_scale

    owner, k, a, n_a, n_b = _cells(count, grid, size, bottom, top)
    cell_lo, cell_hi = cell_end(owner, a), cell_end(owner, a + 1)
    lo, hi = cell_lo.copy(), cell_hi.copy()
    isolated = _isolate(count, owner, k, lo, hi, n_a, n_b)
    split = np.flatnonzero((lo != cell_lo) | (hi != cell_hi))

    # the cleared form at every bracket end, and at the cell ends of split cells
    char, char_scale = scan(
        np.concatenate([owner, owner, owner[split], owner[split]]),
        np.concatenate([lo, hi, cell_lo[split], cell_hi[split]]),
    )
    # rows of a reshape, not np.split, whose Python-level slicing costs more per solve
    f_lo, f_hi = char[: 2 * k.size].reshape(2, -1)
    s_lo, s_hi = char_scale[: 2 * k.size].reshape(2, -1)
    f_cell = char[2 * k.size :]
    # a sign change is bisected; a zero at a bracket end is a level already
    change = isolated & _sign_change(f_lo, f_hi)
    zero_hi = isolated & ~change & (f_hi == 0.0) & (s_hi != 0.0)
    zero_lo = isolated & ~change & ~zero_hi & (f_lo == 0.0) & (s_lo != 0.0)

    stray = np.flatnonzero(isolated & ~(change | zero_hi | zero_lo))
    stray = stray[~np.isin(stray, split)]
    if stray.size:
        change[_neighbour_cells(scan, cell_end, size, owner, a, stray, lo, hi, f_lo, f_hi)] = True

    # residual scale: the cleared form's size at the ends of the level's grid cell
    scale = np.maximum(np.abs(f_lo), np.abs(f_hi))
    scale[split] = np.maximum(*np.abs(f_cell).reshape(2, -1))
    scale[zero_hi], scale[zero_lo] = s_hi[zero_hi], s_lo[zero_lo]
    r_lo, r_hi = np.where(zero_hi, hi, lo), np.where(zero_lo, lo, hi)
    r_lo[change], r_hi[change] = _bisect(
        geometry.take(owner[change]), lo[change], hi[change], f_lo[change], constants
    )
    found = change | zero_hi | zero_lo
    energy = 0.5 * (r_lo + r_hi)
    residual = np.full(k.size, np.nan)
    residual[found] = (
        np.abs(characteristic(geometry.take(owner[found]), energy[found], constants)) / scale[found]
    )

    discarded = found & (residual > cfg.residual_tol)
    kept = found & ~discarded
    return _Batch(owner, size, found, change, kept, discarded, energy, residual, r_lo, r_hi, lo, hi)


def _solve_all(pairs, cfg, e_min, e_max, constants) -> list[SolveResult]:
    """One :class:`SolveResult` per pair, all solved with ``cfg`` over the window
    ``(e_min, e_max)`` as one :func:`_solve_batch`."""
    batch = _solve_batch(_Geometry.of(pairs), cfg, e_min, e_max, constants)
    bounds = np.searchsorted(batch.owner, np.arange(len(pairs) + 1))
    return [
        _levels(pair, cfg, batch, slice(bounds[r], bounds[r + 1]), int(batch.size[r]))
        for r, pair in enumerate(pairs)
    ]


def _levels(pair, cfg, batch, own, points) -> SolveResult:
    kept, skipped = batch.kept[own], ~batch.found[own]
    rows = zip(*(x[own][kept].tolist() for x in (batch.energy, batch.residual, batch.r_lo,
                                                  batch.r_hi)))
    levels = tuple(
        Level(energy=e, regime=classify_regime(pair, e), residual=res, bracket=(b0, b1), index=i)
        for i, (e, res, b0, b1) in enumerate(rows)
    )
    diag = SolveDiagnostics(
        grid_points=points,
        sign_changes=int(np.count_nonzero(batch.change[own])),
        skipped_intervals=tuple(zip(batch.lo[own][skipped].tolist(),
                                    batch.hi[own][skipped].tolist())),
        discarded_candidates=tuple(batch.energy[own][batch.discarded[own]].tolist()),
    )
    return SolveResult(pair=pair, config=cfg, levels=levels, diagnostics=diag)


def solve_pair(
    pair: WellPair,
    config: SolverConfig | None = None,
    *,
    e_min: float | None = None,
    e_max: float | None = None,
    constants: PhysicalConstants = CODATA2018,
) -> SolveResult:
    """Find all bound states of ``pair`` with energies in (0, v_deep).

    Optional ``e_min``/``e_max`` restrict the search window (used by the
    calibration loop and the CLI).  An empty level list is a valid outcome
    for wells too shallow or narrow to bind a state.
    """
    return _solve_all([pair], config or SolverConfig(), e_min, e_max, constants)[0]


def find_levels(
    pair: WellPair,
    config: SolverConfig | None = None,
    *,
    e_min: float | None = None,
    e_max: float | None = None,
    constants: PhysicalConstants = CODATA2018,
) -> list[Level]:
    return list(solve_pair(pair, config, e_min=e_min, e_max=e_max, constants=constants).levels)


@dataclass(frozen=True)
class CalibrationResult:
    """Best parameter value found, its misfit, and the levels of its solve.

    ``levels`` holds every kept level of the solve window, which runs from
    ``min(targets) - 0.05`` to ``max(targets) + 0.05`` eV, so it may hold more
    levels than there are targets; the misfit matches each target to its
    nearest one.
    """

    value: float
    misfit: float
    levels: tuple[float, ...]


class CalibrationError(ValueError):
    """Raised when no candidate reaches the misfit threshold."""

    def __init__(self, message: str, best: CalibrationResult):
        super().__init__(message)
        self.best = best


def _nearest(levels: Sequence[float], targets: list[float]) -> list[float]:
    """The level nearest each target; two targets may share a level."""
    return [min(levels, key=lambda e: abs(t - e)) for t in targets]


def _misfits(energies: np.ndarray, counts: np.ndarray, targets: list[float]) -> np.ndarray:
    """Misfit of each candidate: ``energies`` holds ``counts[i]`` levels of candidate ``i`` in turn.

    The root of the summed squares, in target order, of each target's distance
    to its nearest level; inf for a candidate without levels.  ``float_power``
    squares with the C library's ``pow``, as Python's ``** 2`` does: ``d * d``
    rounds exact ties differently, and a near match leaves few bits in ``d``.
    """
    has = counts > 0
    starts = (np.cumsum(counts) - counts)[has]
    total = np.zeros(starts.size)
    for t in targets:
        total += np.float_power(np.minimum.reduceat(np.abs(t - energies), starts), 2)
    misfit = np.full(counts.size, math.inf)
    misfit[has] = np.sqrt(total)
    return misfit


def _level_slopes(template, field, x, energies, x_range, h, h_e, constants) -> np.ndarray:
    """dE/dx of each level in ``energies`` (roots at ``field = x`` of ``template``), implicitly.

    On the cleared form F(x, E) = 0 the implicit-function theorem gives
    dE/dx = -F_x / F_E.  Both partials are difference quotients from one
    :func:`characteristic` call on the template's geometry with ``field``
    set per energy: F_x from the pairs at ``x - h`` and ``x + h``, cut to
    ``x_range`` (so one-sided at its ends; the caller keeps every pair in it
    valid), and F_E from the pair at ``x`` at ``E - h_e`` and ``E + h_e``.  A
    zero F_E gives a non-finite slope.
    """
    e = np.asarray(energies, dtype=float)
    x_lo, x_hi = max(x - h, x_range[0]), min(x + h, x_range[1])
    e_lo, e_hi = e - h_e, e + h_e
    with np.errstate(divide="ignore", invalid="ignore"):
        f = characteristic(
            _Geometry.varied(template, field, np.repeat([x_lo, x_hi, x, x], e.size)),
            np.concatenate([e, e, e_lo, e_hi]),
            constants,
        ).reshape(4, e.size)
        return -((f[1] - f[0]) / (x_hi - x_lo)) / ((f[3] - f[2]) / (e_hi - e_lo))


def _calibrate_1d(template, field, targets, lo, hi, step, cfg, constants, what):
    """Fit ``template``'s parameter ``field`` over ``[lo, hi]`` to the target energies.

    Every solve, the coarse batch and each Newton trial alike, is a
    :func:`_solve_batch` of parameter arrays; the callers' range checks keep
    every pair in the range valid, so no :class:`WellPair` is built."""
    targets = [float(t) for t in targets]
    if not targets:
        raise ValueError("calibration needs at least one target energy")
    for t in targets:
        if not math.isfinite(t):
            raise ValueError(f"target energies must be finite, got {t!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} range must be finite, got ({lo}, {hi})")
    if hi < lo:
        raise ValueError(f"empty {what} range ({lo}, {hi})")

    e_min, e_max = min(targets) - _SEARCH_PAD, max(targets) + _SEARCH_PAD

    def fit(x: float, energies: np.ndarray) -> CalibrationResult:
        misfit = _misfits(energies, np.array([energies.size]), targets)[0]
        return CalibrationResult(value=x, misfit=float(misfit), levels=tuple(energies.tolist()))

    def evaluate(x: float) -> CalibrationResult:
        batch = _solve_batch(_Geometry.varied(template, field, [x]), cfg, e_min, e_max, constants)
        return fit(x, batch.energy[batch.kept])

    def newton_step(at: CalibrationResult) -> float:
        """Gauss-Newton step on the nearest-level residuals; nan if it has no slope."""
        matched = _nearest(at.levels, targets)
        slope = _level_slopes(
            template, field, at.value, matched, (lo, hi), _SLOPE_H * step,
            _SLOPE_H * cfg.grid_step, constants,
        )
        gain = float(slope @ slope)
        if not (math.isfinite(gain) and gain > 0.0):
            return math.nan
        return -float(slope @ (np.array(matched) - targets)) / gain

    # a one-point range is a one-point grid, after the same step check
    grid = uniform_grid(lo, hi, step).tolist()
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid.append(hi)
    # the whole coarse grid is one batch, its misfits taken from the level arrays
    batch = _solve_batch(_Geometry.varied(template, field, grid), cfg, e_min, e_max, constants)
    energies = batch.energy[batch.kept]
    counts = np.bincount(batch.owner[batch.kept], minlength=len(grid))
    b = int(np.argmin(_misfits(energies, counts, targets)))
    first = int(counts[:b].sum())
    best = coarse_best = fit(grid[b], energies[first : first + counts[b]])
    iterates, solves = [], 0
    if 1e-12 < best.misfit < math.inf and len(grid) > 1:
        # Gauss-Newton from the best coarse point, kept inside its grid cell; a
        # step is halved until the misfit decreases.  A tiny misfit is no reason
        # to stop: a level that barely moves with x has one while x is still off.
        # The error at a stop is about the last |dx|, so stopping at xtol / 2
        # keeps golden section's bound (the midpoint of a bracket <= xtol wide).
        g_lo = grid[max(0, b - 1)]
        g_hi = grid[min(len(grid) - 1, b + 1)]
        xtol = 0.5e-6 * max(step, 1e-9)
        fine = best
        for _ in range(_NEWTON_ITERATIONS):
            dx = newton_step(fine)
            if math.isfinite(dx):
                dx = min(max(fine.value + dx, g_lo), g_hi) - fine.value
            iterates.append((fine.value, fine.misfit, dx))
            if not math.isfinite(dx):
                break
            while abs(dx) > xtol:
                trial = evaluate(fine.value + dx)
                solves += 1
                if trial.misfit < fine.misfit:
                    break
                dx *= 0.5
            else:
                break
            fine = trial
        if fine.misfit <= best.misfit:
            best = fine
    _log_calibration(what, coarse_best, len(grid), iterates, solves)
    if best.misfit > _MISFIT_TOL:
        raise CalibrationError(
            f"calibration failed: best {what} {best.value:.6g} leaves misfit "
            f"{best.misfit:.3e} eV above threshold {_MISFIT_TOL:.3e} eV",
            best=best,
        )
    return best


def _log_calibration(what, start, points, iterates, solves) -> None:
    # imported here: only calibration logs, and the other commands start without logging
    import logging

    log = logging.getLogger("wellcascade")
    if log.isEnabledFor(logging.DEBUG):
        steps = "; ".join(f"x={x:.9g} misfit={m:.3e} dx={dx:.3e}" for x, m, dx in iterates)
        log.debug(
            "calibrate %s: best of %d coarse points %s=%.9g (misfit %.3e eV); "
            "newton [%s]; %d refinement solves",
            what, points, what, start.value, start.misfit, steps or "none", solves,
        )


def calibrate_distance(
    pair_template: WellPair,
    targets: list[float],
    l_range: tuple[float, float],
    *,
    config: SolverConfig | None = None,
    step: float = 0.01,
    constants: PhysicalConstants = CODATA2018,
) -> CalibrationResult:
    """Find the center distance whose levels best match ``targets`` (eV).

    Searches ``l_range`` on a ``step`` grid (0.01 Angstrom by default) as one
    coarse batch, then refines the best cell by Newton steps on implicit
    level slopes.  Raises :class:`CalibrationError` (carrying the best
    candidate) if the final misfit exceeds 5e-3 eV.  Each solve spans the
    targets with 0.05 eV to spare on either side.  Target energies must be
    finite.
    """
    lo, hi = float(l_range[0]), float(l_range[1])
    if lo <= pair_template.width:
        raise ValueError(
            f"distance range must exceed the well width {pair_template.width}, got {l_range}"
        )
    cfg = config or SolverConfig()
    return _calibrate_1d(pair_template, "distance", targets, lo, hi, step, cfg, constants,
                         "distance")


def calibrate_depth(
    pair_template: WellPair,
    fixed_role: str,
    targets: list[float],
    depth_range: tuple[float, float],
    *,
    config: SolverConfig | None = None,
    step: float = 5e-4,
    constants: PhysicalConstants = CODATA2018,
) -> CalibrationResult:
    """Search one well depth with the other held fixed.

    ``fixed_role`` names the depth that stays at its template value,
    ``"shallow"`` or ``"deep"``; the other one is varied over ``depth_range``.
    Target energies are pair-local (measured from the deep-well bottom).
    """
    lo, hi = float(depth_range[0]), float(depth_range[1])
    if fixed_role not in ("shallow", "deep"):
        raise ValueError(f"fixed_role must be 'shallow' or 'deep', got {fixed_role!r}")
    cfg = config or SolverConfig()
    if fixed_role == "shallow":
        if lo <= pair_template.v_shallow:
            raise ValueError(
                "searched deep depth must stay above the fixed shallow depth "
                f"{pair_template.v_shallow}, got range {depth_range}"
            )
        field = "v_deep"
    else:
        if hi >= pair_template.v_deep or lo <= 0.0:
            raise ValueError(
                "searched shallow depth must stay inside (0, v_deep="
                f"{pair_template.v_deep}), got range {depth_range}"
            )
        field = "v_shallow"
    return _calibrate_1d(pair_template, field, targets, lo, hi, step, cfg, constants, "depth")
