"""Bound-state search and geometry calibration for well pairs.

Every level is addressed by its index.  The Sturm oscillation count
:func:`~wellcascade.transcendental.count_below` gives the number N(E) of
levels below any energy, so the levels inside a solve window are numbered
by N at its two ends, and each one is placed on the uniform energy grid
``lo + step*i`` by narrowing an index bracket on N until it is one grid cell.
The grid is never built: N is evaluated only at the bracket points, about a
thousand energies in two or three calls for a full-range pair, where a full
scan took 79 000.  The first call cuts each window into as many sections as
one call affords (512 for a single pair).  A calibration trial cuts it into
64 instead and adds the grid points around the cell where it predicts each
level, so that it finds every cell in that one call.  Any first-round points
that include the window ends give the same cells, so a prediction changes no
result.  A cell where N
rises by two or more holds a doublet narrower than the step; it is halved on
N in continuous energy until each level has a bracket of its own, so the
step sets how each residual is scaled, not which levels are found.

The cleared matching function (see :mod:`.transcendental`) is then evaluated
at every bracket end in one call, and every bracket is refined on it by
bisection.  All brackets are bisected in lockstep, several halvings per
round, each round one evaluation of the cleared form.  Up to 32 brackets
walk paths (:func:`_paths`): a round evaluates, per open bracket, the
midpoints bisection visits if the root lies on the side of a regula-falsi
guess, and each bracket follows its path while the signs agree with the
guess, so a 2e-5 eV cell closes in about three rounds.  A larger batch is
multisected by :func:`_multisect` (the oracle locates its levels with it
too, walked by its own count): a round evaluates every midpoint of
bisection's own tree a few levels below each open bracket (six levels for a
few brackets, one for a few hundred), and each bracket descends its tree by
the signs.  Either way each bracket carries its own pair's geometry and
takes its own midpoint sequence, so the roots are those of bisecting one
bracket at a time.  The lockstep spans every solve of a batch.  A batch is
one geometry of parameter arrays (one pair per element) solved with one
:class:`SolverConfig` over one energy window: a single :func:`solve_pair`
is a batch of one, the cascade solves its four pairs as one batch, and
calibration solves the candidates of its coarse grid that can win as one
or two batches, the template's geometry with the searched parameter set to
an array.  So numpy's per-call overhead is paid once per round rather than
once per round and candidate.
Bisection is unconditionally safe here because the cleared form is
continuous and free of poles; it always runs down to machine resolution, so
every bisected bracket closes at adjacent doubles (or at an exact zero) and
no tolerance stops it early.  A one-level cell with a sign change is the
bracket that scanning the whole grid for sign changes finds, so its energy
and residual are the scan's bit for bit; a level within rounding of a grid
point is reported at that point (see :func:`_solve_batch`).

A level's ``residual`` is the magnitude of the cleared matching function at
the refined energy divided by its larger magnitude at the two ends of the
level's grid cell (a positive rescaling, so the root set is untouched).
True roots collapse this ratio to near machine epsilon; a sign change
produced by anything that is not a root cannot shrink it, which is what the
fixed ``_RESIDUAL_TOL`` filter screens for.  Raw-mismatch residuals would be meaningless here: deep-well
levels sit within ~1e-13 eV of poles of the deep-side matching function,
where the raw mismatch is ill-conditioned beyond double precision.

Calibration searches one geometry parameter (center distance or one depth)
so that the pair's levels best match a set of target energies: a
deterministic coarse search, then Newton refinement on implicit level
slopes inside the best cell.  The coarse search first screens its grid by
the count alone: a ladder of windows ``t +- delta`` around each target,
``delta`` falling by decades from ``_SEARCH_PAD``, drops every candidate
that has no level in some window, and that window proves a lower bound on
its misfit.  The candidates left at the last rung are solved as one batch,
then those whose bound does not exceed the best misfit found; every misfit
is read from the level arrays at once, and no pair object is built per
candidate.  The others cannot win, so the best coarse point is that of
solving the whole grid, bit for bit.  Each target is matched to its
nearest level; the slope of a level follows from
the cleared form F(x, E) = 0 as dE/dx = -F_x/F_E, both partials by differences of one
:func:`characteristic` call, and a Gauss-Newton step (halved until the
misfit drops) costs one windowed solve, a trial.  The step takes the slope
of every level of its iterate, so a trial at ``x + dx`` predicts each level
at ``E + slope*dx``; where the predictions hold, the trial finds every cell
in one count call (see :func:`_cells`), and a fit takes about two trials.

The finite-difference oracle's :class:`FdConfig` and :class:`SturmCountError`
are defined here too, beside :class:`SolverConfig`: the CLI parses a config's
``[oracle]`` section and catches the error without loading
:mod:`wellcascade.oracle`, which imports both back.  The result records
(:class:`Level`, :class:`SolveDiagnostics`, :class:`SolveResult`,
:class:`CalibrationResult`) only carry fields, so they are ``NamedTuple``
classes, cheaper to create at import than frozen dataclasses; derive a
changed copy with ``._replace``.
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
    "FdConfig",
    "SturmCountError",
    "Level",
    "SolveDiagnostics",
    "SolveResult",
    "CalibrationResult",
    "CalibrationError",
    "solve_pair",
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
# points per round of a solve batch (count or cleared form), and most sections or path
# points of one bracket: a call costs about as much as a few hundred energies (the
# cleared form 16 us plus 60 ns per energy, the count 50 us plus 125 ns per energy, on
# a 2-CPU x86-64 host with numpy 2.4), so a few brackets are cut in many sections or
# walk long paths, and a large batch is bisected.  The count's first round spends all
# _ROUND_POINTS on its windows, or _SECTIONS on each and _SECTIONS per predicted cell
_ROUND_POINTS = 512
_SECTIONS = 64
# most brackets that _bisect walks along paths (_paths) rather than multisects: a path
# step in Python floats costs about 0.3 us, so at 1 002 brackets the paths took 48 ms
# against the tree's 3.6 ms, and the two cross between 32 and 64 brackets (same host)
_PATH_BRACKETS = 32
# largest residual of a reported level: a level that is no root of the cleared form
# cannot shrink its residual, and over the 768 solves and 72 calibrations of the
# benchmark's pair-crosscheck and calibrate-sweep (seeds 1-3) the largest residual
# is below 1e-10 and no level is discarded
_RESIDUAL_TOL = 1e-8
# the lower end of a window open at the bottom: the count is 0 there, and the
# cleared form is defined (grid_scan takes energies above 0)
_TINY = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class SolverConfig:
    """Grid step of the bound-state search.

    ``grid_step`` (eV) sets the grid cell that scales each residual, not
    which levels are found.  Every bracket closes at adjacent doubles, every
    level of the window is reported, and the residual filter is the fixed
    ``_RESIDUAL_TOL``, so nothing else needs a setting.
    """

    grid_step: float = 2e-5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.grid_step) and self.grid_step > 0.0):
            raise ValueError(f"grid_step must be finite and > 0, got {self.grid_step}")


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


class SturmCountError(ArithmeticError):
    """A level count contradicts itself, or the oracle's count disagrees with LAPACK's."""


class Level(NamedTuple):
    """One bound state: pair-local energy plus solver bookkeeping.

    ``residual`` is the relative size of the cleared matching function at the
    root (see module notes); ``bracket`` is the final bisection interval.
    """

    energy: float
    regime: Regime
    residual: float
    bracket: tuple[float, float]
    index: int


class SolveDiagnostics(NamedTuple):
    grid_points: int
    sign_changes: int
    skipped_intervals: tuple[tuple[float, float], ...]
    discarded_candidates: tuple[float, ...]


class SolveResult(NamedTuple):
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
    """Shrink brackets down to machine resolution, together, by multisection.

    The oracle walks its count with it, and :func:`_bisect` the cleared form
    of batches too large for :func:`_paths`.  A round descends ``depth``
    levels of bisection's own midpoint tree with one ``decide(live,
    points)`` call, on the midpoints ``0.5*(a + b)`` of every node down to
    that depth of every bracket still open: ``live`` holds the indices of
    those brackets, ``points[i]`` their tree in order.
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


def _paths(lo, hi, f_lo, f_hi, value):
    """Bisect sign-change brackets ``[lo, hi]`` of f to machine resolution, along guessed paths.

    Bisection's result depends only on the signs of f at the midpoints it
    visits.  A round guesses them with one ``value(live, points)`` call,
    which returns f at ``points[i]``, the path of open bracket ``live[i]``:
    its midpoints ``0.5*(a + b)`` on the side of the regula-falsi guess from
    f at its ends, as many as ``_ROUND_POINTS`` and ``_SECTIONS`` allow.
    Each bracket follows its path while f agrees with the guessed side,
    takes the real move at the first disagreement, and starts the next round
    there with f known at both ends.  Every move is bisection's own: right
    where f has ``f_lo``'s sign (NaN counts as negative), and an exact zero
    collapses the bracket to ``(mid, mid)``.  So the brackets are
    :func:`_multisect`'s bit for bit.  A bracket closes when its midpoint is
    no longer strictly inside it, or after 200 halvings.  Paths are built and
    walked in Python floats, cheaper per step than a numpy call.
    """
    state = list(zip(lo.tolist(), hi.tolist(), f_lo.tolist(), f_hi.tolist(), [0] * lo.size))
    up, live = (f_lo > 0.0).tolist(), range(lo.size)
    while True:
        length, paths = min(_SECTIONS, _ROUND_POINTS // max(len(live), 1)), []
        for i in live:
            a, b, f_a, f_b, halvings = state[i]
            guess = a - f_a * (b - a) / (f_b - f_a) if f_b != f_a else math.nan
            guess = guess if a <= guess <= b else 0.5 * (a + b)
            path = []
            for _ in range(min(length, 200 - halvings)):
                mid = 0.5 * (a + b)
                if not a < mid < b:
                    break
                path.append(mid)
                a, b = (mid, b) if guess >= mid else (a, mid)
            paths.append((i, guess, path))
        paths = [p for p in paths if p[2]]
        if not paths:
            return np.array([s[0] for s in state]), np.array([s[1] for s in state])
        live, width = [p[0] for p in paths], max(len(p[2]) for p in paths)
        points = np.array([path + path[-1:] * (width - len(path)) for _, _, path in paths])
        for (i, guess, path), f in zip(paths, value(np.array(live), points).tolist()):
            a, b, f_a, f_b, halvings = state[i]
            for mid, f_mid in zip(path, f):
                halvings += 1
                if f_mid == 0.0:
                    a = b = mid
                    break
                right = (f_mid > 0.0) == up[i]
                a, b, f_a, f_b = (mid, b, f_mid, f_b) if right else (a, mid, f_a, f_mid)
                if right != (guess >= mid):
                    break
            state[i] = a, b, f_a, f_b, halvings


def _bisect(geometry, lo, hi, f_lo, f_hi, constants):
    """Shrink verified sign-change brackets of the cleared form, together.

    ``geometry`` holds each bracket's pair parameters, so the brackets may
    come from different pairs.  Up to ``_PATH_BRACKETS`` brackets are walked
    along regula-falsi paths (:func:`_paths`), a larger batch by
    :func:`_multisect`; both take bisection's steps, by the sign of one
    :func:`characteristic` call per round: to the right half where f has
    lo's sign, else to the left one, stopping at an exact zero.  The open
    brackets' geometry is gathered only when some bracket closes.
    """
    columns = _Geometry(*(x[:, None] for x in geometry))
    open_columns = columns

    def value(live, points):
        nonlocal open_columns
        if live.size != open_columns.width.size:
            open_columns = columns.take(live)
        return characteristic(open_columns, points, constants)

    if lo.size <= _PATH_BRACKETS:
        return _paths(lo, hi, f_lo, f_hi, value)
    # f > 0 at lo: a halving keeps lo on its side of the root, so this never changes
    up = (f_lo > 0.0)[:, None]

    def decide(live, points):
        f = value(live, points)
        move = np.where((f > 0.0) == up[live], 1, -1)
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


def _count_falls(geometry, pair, n_i, e_i, n_j, e_j) -> SturmCountError:
    """The error of a count that falls from ``n_i`` at ``e_i`` to ``n_j`` at ``e_j`` eV, for
    the pair ``pair`` of ``geometry``."""
    width, distance, v_shallow, v_deep = (x[pair] for x in geometry)
    return SturmCountError(
        f"the oscillation count of the pair (width {width} A, distance {distance} A, "
        f"depths {v_shallow}/{v_deep} eV) falls from {n_i} at {e_i} eV to {n_j} at {e_j} eV"
    )


def _cells(count, grid, size, bottom, top, geometry, predicted=()):
    """Number every level inside each pair's window and find its cell.

    Returns per level its pair, its index ``k`` among all levels of that
    pair, the cell ``[a, a + 1]`` that holds it (``N(grid(a)) <= k <
    N(grid(a + 1))``), and ``N`` at both cell ends.  Index -1 stands for the
    window's bottom and ``size`` for its top: the end cells ``[-1, 0]`` and
    ``[size - 1, size]`` run from the grid's end points out to the window's
    ends (a window without grid points is the one cell ``[-1, 0]``).  The
    first round cuts each whole window, its ends included, into
    ``_ROUND_POINTS`` sections shared among the pairs, and the counts at the
    ends number the levels; then the index brackets ``[a, b]`` shrink by
    multisection over the grid, every level of every pair together.
    ``predicted`` holds grid positions (``(E - grid(0)) / step``) where the
    caller expects levels: the first round then adds the ``_SECTIONS`` grid
    points around each predicted cell, inside the window, and cuts the window
    into ``_SECTIONS`` sections only.  A level's cell is unique, so any
    first-round points that include the window's ends give the same cells: a
    wrong prediction, or no number, costs only rounds.
    Brackets of two levels are the same or disjoint, so levels in one bracket
    (adjacent in the arrays) share its count points.  A round spends about
    ``_ROUND_POINTS`` points: a few brackets get many sections each, a large
    batch is bisected.  A count that falls along the points of a round, its
    bracket's ends included, raises :class:`SturmCountError`, naming the pair
    of ``geometry`` and the ends of the row's largest fall.
    """

    def energy(pairs, index):
        """Energy of grid index ``index`` of each pair: -1 is the window's bottom,
        ``size`` its top."""
        return np.where(index < 0, bottom, np.where(index >= size[pairs], top[pairs], grid(index)))

    def rising(pairs, points, counts):
        """Raise where the counts along a row fall: from the first point of the largest
        fall's high count to the last point of its low one."""
        drop = np.maximum.accumulate(counts, axis=1) - counts
        if drop.any():
            r = np.argmax(drop.any(axis=1))
            j = drop.shape[1] - 1 - np.argmax(drop[r, ::-1] == drop[r].max())
            i = np.argmax(counts[r] == counts[r, :j].max())
            e_i, e_j = energy(pairs[r], points[r, [i, j]])
            raise _count_falls(geometry, pairs[r], counts[r, i], e_i, counts[r, j], e_j)

    cells = np.flatnonzero(top > bottom)
    length = size[cells] + 1  # from index -1 to size
    share = min(_ROUND_POINTS // max(cells.size, 1), int(length.max(initial=1)))
    sections = max(1, min(_SECTIONS, share) if predicted else share)
    points = length[:, None] * np.arange(sections + 1) // sections - 1
    if predicted and cells.size:
        near = {c + j for c in map(math.floor, filter(math.isfinite, predicted))
                for j in range(1 - _SECTIONS // 2, 1 + _SECTIONS // 2)}
        rows = [sorted({*row, *(i for i in near if -1 <= i <= n)})
                for row, n in zip(points.tolist(), size[cells].tolist())]
        # rows of unequal length repeat their last point, which counts nothing new
        width = max(map(len, rows))
        points = np.array([row + row[-1:] * (width - len(row)) for row in rows])
    at = np.repeat(cells, points.shape[1])
    counts = count(at, energy(cells[:, None], points).ravel()).reshape(points.shape)
    rising(cells, points, counts)
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
        rising(owner[head], points, counts)
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


class _Batch(NamedTuple):
    """Per-level arrays of a solve batch, grouped by pair in batch order."""

    owner: np.ndarray  # the pair of each level, as its place in the batch
    size: np.ndarray  # grid points of each pair
    found: np.ndarray  # a root was bisected, or lies at a bracket end
    change: np.ndarray  # the cleared form changes sign across the bracket
    kept: np.ndarray  # found and within _RESIDUAL_TOL: reported
    discarded: np.ndarray  # found but beyond _RESIDUAL_TOL
    energy: np.ndarray
    residual: np.ndarray
    r_lo: np.ndarray  # the refined bracket
    r_hi: np.ndarray
    lo: np.ndarray  # the bracket before refinement
    hi: np.ndarray


def _solve_batch(geometry: _Geometry, cfg: SolverConfig, e_min, e_max, constants,
                 predicted=()) -> _Batch:
    """Solve every pair of ``geometry`` with one config and one window, every level by its index.

    ``geometry`` holds the pairs' parameters as arrays.  The grid of a pair
    is ``lo + step*i`` over the window (as :func:`uniform_grid`), cut to its
    own barrier top, but it is never built.  The oscillation count
    :func:`count_below` at the two window ends numbers the levels inside, and
    each level's cell follows by multisection of the count over the grid
    index (:func:`_cells`), whose first round also counts around the energies
    ``predicted`` for levels; they change no cell.  The cells beyond the
    grid's end points run out to the window's ends; an open window's bracket
    ends there are the smallest positive double and the double below
    ``v_deep``, inside the range :func:`grid_scan` takes.  A cell that holds two or more levels is halved
    on the count in continuous energy until each has a bracket of its own
    (:func:`_isolate`).  One :func:`grid_scan` call evaluates the cleared form
    at every bracket end, and every bracket with a sign change goes to
    :func:`_bisect`, all together, several halvings per call.  A one-level
    cell with a sign change is the bracket the full-grid scan would find, so
    its level is the scan's bit for bit.  A bracket without one has its level
    at the end nearer zero (the upper one at a tie) when the cleared form
    there passes the residual filter and is no zero of all its terms
    (``char_scale`` 0): exactly zero on any bracket, or within
    ``_RESIDUAL_TOL`` of a one-level grid cell's finite scale.  The latter is
    a level within rounding of a grid point, which the count can place on the
    other side of that point than the cleared form.  Every other bracket
    without a sign change is reported in ``skipped_intervals``.  Returns
    per-level arrays, which :func:`_solve_all` assembles into one
    :class:`SolveResult` per pair and calibration reads directly.
    """
    step = cfg.grid_step
    bottom, top, first, size = _grids(geometry, step, e_min, e_max)
    ceiling = np.minimum(top, np.nextafter(geometry.v_deep, 0.0))

    def count(owner, energies):
        return count_below(pair_segments(geometry.take(owner)), energies, constants)

    def grid(index):
        return first + step * index

    def cell_end(owner, index):
        """A cell end's energy: the window's ends lie at -1 and ``size``."""
        energy = grid(index)
        energy[index < 0] = bottom
        above = index >= size[owner]
        energy[above] = ceiling[owner[above]]
        return energy

    owner, k, a, n_a, n_b = _cells(count, grid, size, bottom, top, geometry,
                                   [(e - first) / step for e in predicted])
    cell_lo, cell_hi = cell_end(owner, a), cell_end(owner, a + 1)
    lo, hi = cell_lo.copy(), cell_hi.copy()
    isolated = _isolate(count, owner, k, lo, hi, n_a, n_b)
    split = np.flatnonzero((lo != cell_lo) | (hi != cell_hi))

    # the cleared form at every bracket end, and at the cell ends of split cells
    scan = grid_scan(
        geometry.take(np.concatenate([owner, owner, owner[split], owner[split]])),
        np.concatenate([lo, hi, cell_lo[split], cell_hi[split]]),
        constants,
    )
    # rows of a reshape, not np.split, whose Python-level slicing costs more per solve
    f_lo, f_hi = scan.char[: 2 * k.size].reshape(2, -1)
    s_lo, s_hi = scan.char_scale[: 2 * k.size].reshape(2, -1)
    m_lo, m_hi = np.abs(f_lo), np.abs(f_hi)
    # residual scale: the cleared form's size at the ends of the level's grid cell
    scale = np.maximum(m_lo, m_hi)
    # a sign change between finite ends is bisected; without one, the level is at an end
    finite = np.isfinite(scale)
    change = isolated & finite & (np.sign(f_lo) * np.sign(f_hi) < 0.0)
    tol = np.where(finite, _RESIDUAL_TOL * scale, 0.0)
    tol[split] = 0.0
    scale[split] = np.maximum(*np.abs(scan.char[2 * k.size :]).reshape(2, -1))
    upper = m_hi <= m_lo
    end = np.where(upper, hi, lo)
    at_end = isolated & ~change & (np.minimum(m_lo, m_hi) <= tol)
    at_end &= np.where(upper, s_hi, s_lo) != 0.0
    r_lo, r_hi = np.where(at_end, end, lo), np.where(at_end, end, hi)
    r_lo[change], r_hi[change] = _bisect(
        geometry.take(owner[change]), lo[change], hi[change], f_lo[change], f_hi[change], constants
    )
    found = change | at_end
    energy = 0.5 * (r_lo + r_hi)
    residual = np.full(k.size, np.nan)
    residual[found] = (
        np.abs(characteristic(geometry.take(owner[found]), energy[found], constants)) / scale[found]
    )

    discarded = found & (residual > _RESIDUAL_TOL)
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


class CalibrationResult(NamedTuple):
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


def _nearest(levels: Sequence[float], targets: list[float]) -> list[int]:
    """The index of the level nearest each target; two targets may share a level."""
    return [min(range(len(levels)), key=lambda i: abs(t - levels[i])) for t in targets]


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


def _screen(geometry, targets, constants):
    """Prove lower bounds on the coarse candidates' misfits by the count alone.

    A ladder of rungs ``delta = _SEARCH_PAD, _SEARCH_PAD/10, ...``: each rung
    is one :func:`count_below` call at ``t - delta`` and ``t + delta`` for
    every target ``t`` of every candidate still passing.  A candidate without
    a level between those ends for some target leaves the ladder: each of its
    levels lies at least ``gap``, the nearer end's distance, from that target,
    so its misfit is at least ``gap`` as :func:`_misfits` rounds it, whatever
    the solver keeps of the levels the count sees.  The descent stops when at
    most one candidate passes, or before a rung that none passes.  A count
    that falls from ``t - delta`` to ``t + delta`` proves no bound: it raises
    :class:`SturmCountError`, naming the candidate and both energies.  Returns
    the candidates passing at the last rung, each candidate's bound (0 for
    those passing) and the number of rungs.
    """
    t = np.array(targets)
    bound = np.zeros(geometry.width.size)
    passing, delta, rungs = np.arange(bound.size), _SEARCH_PAD, 0
    while passing.size > 1:
        ends = np.concatenate([t - delta, t + delta])
        segments = pair_segments(geometry.take(np.repeat(passing, ends.size)))
        n = count_below(segments, np.tile(ends, passing.size), constants)
        n = n.reshape(passing.size, 2, t.size)
        fall = np.argwhere(n[:, 1] < n[:, 0])
        if fall.size:
            c, j = fall[0]
            raise _count_falls(geometry, passing[c], n[c, 0, j], ends[j], n[c, 1, j],
                               ends[t.size + j])
        rungs += 1
        inside = (n[:, 1] > n[:, 0]).all(axis=1)
        if not inside.any():
            break
        gap = np.minimum(t - ends[: t.size], ends[t.size :] - t).min()
        bound[passing[~inside]] = np.sqrt(np.float_power(gap, 2))
        passing, delta = passing[inside], delta / 10.0
    return passing, bound, rungs


def _calibrate_1d(template, field, targets, lo, hi, step, cfg, constants, what):
    """Fit ``template``'s parameter ``field`` over ``[lo, hi]`` to the target energies.

    The coarse grid is screened by the count (:func:`_screen`); the
    candidates still passing are solved as one batch, and their smallest
    misfit M* then leaves one more batch: the screened-out candidates whose
    proven bound does not exceed M*.  Every other candidate's misfit is
    above M*, so the best coarse point and its levels are those of solving
    the whole grid, bit for bit (a candidate's levels do not depend on its
    batch).  Every solve, the coarse batches and each Newton trial alike, is
    a :func:`_solve_batch` of parameter arrays; the callers' range checks
    keep every pair in the range valid, so no :class:`WellPair` is built.
    A Newton step takes the slope of every level of its iterate, and each
    trial passes the levels it predicts from them to :func:`_solve_batch`,
    whose count then finds every cell in one call where they hold; the
    trial's levels are those of a solve without predictions, bit for bit."""
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

    def evaluate(x: float, predicted) -> CalibrationResult:
        batch = _solve_batch(_Geometry.varied(template, field, [x]), cfg, e_min, e_max, constants,
                             predicted)
        return fit(x, batch.energy[batch.kept])

    def newton_step(at: CalibrationResult) -> tuple[float, list[float]]:
        """Gauss-Newton step on the nearest-level residuals, nan if it has no slope, and the
        slope of every level of ``at``."""
        slopes = _level_slopes(
            template, field, at.value, at.levels, (lo, hi), _SLOPE_H * step,
            _SLOPE_H * cfg.grid_step, constants,
        )
        nearest = _nearest(at.levels, targets)
        slope, matched = slopes[nearest], np.array(at.levels)[nearest]
        gain = float(slope @ slope)
        if not (math.isfinite(gain) and gain > 0.0):
            return math.nan, []
        return -float(slope @ (matched - targets)) / gain, slopes.tolist()

    # a one-point range is a one-point grid, after the same step check
    grid = uniform_grid(lo, hi, step).tolist()
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid.append(hi)
    # the coarse grid: the screen's last passing set, then the candidates that
    # can still win, each one batch with its misfits taken from the level arrays
    geometry = _Geometry.varied(template, field, grid)
    passing, bound, rungs = _screen(geometry, targets, constants)
    misfit = np.full(len(grid), math.inf)
    first, counts, pool = np.zeros(len(grid), dtype=int), np.zeros(len(grid), dtype=int), []

    def solve(which):
        batch = _solve_batch(geometry.take(which), cfg, e_min, e_max, constants)
        energies = batch.energy[batch.kept]
        counts[which] = np.bincount(batch.owner[batch.kept], minlength=which.size)
        first[which] = sum(e.size for e in pool) + np.cumsum(counts[which]) - counts[which]
        misfit[which] = _misfits(energies, counts[which], targets)
        pool.append(energies)

    solve(passing)
    bound[passing] = math.inf
    rest = np.flatnonzero(bound <= misfit.min())
    if rest.size:
        solve(rest)
    b = int(np.argmin(misfit))
    energies = np.concatenate(pool)[first[b] : first[b] + counts[b]]
    best = coarse_best = fit(grid[b], energies)
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
            dx, slopes = newton_step(fine)
            if math.isfinite(dx):
                dx = min(max(fine.value + dx, g_lo), g_hi) - fine.value
            iterates.append((fine.value, fine.misfit, dx))
            if not math.isfinite(dx):
                break
            while abs(dx) > xtol:
                # each level of the trial predicted on its slope, to seed the count's first round
                trial = evaluate(fine.value + dx, [e + s * dx for e, s in zip(fine.levels, slopes)])
                solves += 1
                if trial.misfit < fine.misfit:
                    break
                dx *= 0.5
            else:
                break
            fine = trial
        if fine.misfit <= best.misfit:
            best = fine
    _log_calibration(what, coarse_best, len(grid), rungs, passing.size + rest.size, iterates,
                     solves)
    if best.misfit == math.inf:
        raise CalibrationError(
            f"calibration failed: no {what} in [{lo:.6g}, {hi:.6g}] has a level in the "
            f"solve window [{e_min:.6g}, {e_max:.6g}] eV",
            best=best,
        )
    if best.misfit > _MISFIT_TOL:
        raise CalibrationError(
            f"calibration failed: best {what} {best.value:.6g} leaves misfit "
            f"{best.misfit:.3e} eV above threshold {_MISFIT_TOL:.3e} eV",
            best=best,
        )
    return best


def _log_calibration(what, start, points, rungs, solved, iterates, solves) -> None:
    # imported here: only calibration logs, and the other commands start without logging
    import logging

    log = logging.getLogger("wellcascade")
    if log.isEnabledFor(logging.DEBUG):
        steps = "; ".join(f"x={x:.9g} misfit={m:.3e} dx={dx:.3e}" for x, m, dx in iterates)
        log.debug(
            "calibrate %s: best of %d coarse points %s=%.9g (misfit %.3e eV); "
            "%d screen rungs, %d coarse points solved; newton [%s]; %d refinement solves",
            what, points, what, start.value, start.misfit, rungs, solved, steps or "none",
            solves,
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

    Searches ``l_range`` on a ``step`` grid (0.01 Angstrom by default),
    solving only the points that the count screen leaves able to win (see
    :func:`_calibrate_1d`), then refines the best cell by Newton steps on
    implicit level slopes.  Raises :class:`CalibrationError` (carrying the best
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
    ``"shallow"`` or ``"deep"``; the other one is varied over ``depth_range``
    on a ``step`` grid (5e-4 eV by default), screened, solved and refined as
    in :func:`calibrate_distance`.  Target energies are pair-local (measured
    from the deep-well bottom).
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
