"""Bound-state search and geometry calibration for well pairs.

Roots are located by scanning the denominator-cleared matching function on a
uniform energy grid and refining every sign change by bisection.  All
brackets are halved in lockstep, with one array evaluation of the cleared
form per step; each bracket carries its own pair's geometry and still sees
its own midpoint sequence, so the roots are those of bisecting one bracket
at a time.  The lockstep spans every solve of a batch: a single
:func:`solve_pair` is a batch of one, and calibration sends its whole coarse
grid of candidates through one batch, so numpy's per-call overhead is paid
once per halving rather than once per halving and candidate.  Bisection is
unconditionally safe here because the cleared form is continuous and free
of poles; it always runs down to machine resolution, so the configured
``refine_tol`` acts as a guaranteed upper bound on the reported bracket
width rather than a stopping knob.

The scans of a batch share one slot: the window stage of the last scan,
which is every factor of the cleared form but the distance's
``exp(-2 beta (L-a))`` (see :mod:`.transcendental`), keyed by its grid
(lo, hi, step), ``width``, ``v_deep`` and ``shallow_floor``.  A run of
requests with the same key, such as a distance calibration's coarse grid,
evaluates that window once and pays only the distance stage per candidate;
a new key drops the slot before its own window is computed, so at most one
window is alive.

A level's ``residual`` is the magnitude of the cleared matching function at
the refined energy divided by its magnitude at the isolating grid bracket
(a positive rescaling, so the root set is untouched).  True roots collapse
this ratio to near machine epsilon; a sign change produced by anything that
is not a root cannot shrink it, which is what the ``residual_tol`` filter
screens for.  Raw-mismatch residuals would be meaningless here: deep-well
levels sit within ~1e-13 eV of poles of the deep-side matching function,
where the raw mismatch is ill-conditioned beyond double precision.

Calibration searches one geometry parameter (center distance or one depth)
so that the pair's levels best match a set of target energies: a
deterministic coarse batch (the whole grid solved as one batch), then Newton
refinement on implicit level slopes inside the best cell.  Each target is
matched to its nearest level; the slope of a level follows from the cleared
form F(x, E) = 0 as dE/dx = -F_x/F_E, both partials by differences of one
:func:`characteristic` call, and a Gauss-Newton step (halved until the
misfit drops) costs one windowed solve, so a fit takes about two solves.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .potential import WellPair
from .quantities import CODATA2018, PhysicalConstants
from .transcendental import Regime, characteristic, classify_regime, grid_scan

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


@dataclass(frozen=True)
class SolverConfig:
    """Scan/refinement tolerances for the bound-state search."""

    grid_step: float = 2e-5
    refine_tol: float = 1e-9
    residual_tol: float = 1e-8
    max_levels: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.grid_step):
            raise ValueError(f"grid_step must be finite, got {self.grid_step}")
        if not (self.grid_step > self.refine_tol > 0.0):
            raise ValueError(
                f"need grid_step > refine_tol > 0, got {self.grid_step} / {self.refine_tol}"
            )
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise ValueError(f"residual_tol must be positive, got {self.residual_tol}")
        if self.max_levels is not None and self.max_levels < 0:
            raise ValueError(f"max_levels must be non-negative, got {self.max_levels}")


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
    pole_points: int
    skipped_intervals: tuple[tuple[float, float], ...]
    discarded_candidates: tuple[float, ...]


@dataclass(frozen=True)
class SolveResult:
    pair: WellPair
    config: SolverConfig
    levels: tuple[Level, ...]
    diagnostics: SolveDiagnostics


def uniform_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Points ``lo + step*i`` for ``i = 0, 1, ...`` up to ``hi``."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got lo={lo!r}, hi={hi!r}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"grid step must be finite and positive, got {step!r}")
    n = int(math.floor((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


class _Geometry(NamedTuple):
    """Pair parameters per bracket: the attributes :func:`characteristic` reads."""

    width: np.ndarray
    distance: np.ndarray
    v_deep: np.ndarray
    shallow_floor: np.ndarray

    @classmethod
    def of(cls, pairs) -> _Geometry:
        return cls(*(np.array([getattr(p, name) for p in pairs]) for name in cls._fields))

    def take(self, index) -> _Geometry:
        return _Geometry(*(a[index] for a in self))


def _bisect(geometry, lo, hi, f_lo, constants):
    """Shrink verified sign-change brackets down to machine resolution, together.

    ``geometry`` holds each bracket's pair parameters, so the brackets may
    come from different pairs.  Every iteration evaluates
    :func:`characteristic` once, on the midpoints of the brackets still open,
    so each bracket sees the midpoint sequence it would see alone.  A bracket
    closes when its midpoint is no longer strictly inside it, after 200
    halvings, or at an exact zero, which collapses it to ``(mid, mid)``.
    """
    lo, hi, f_lo = lo.copy(), hi.copy(), f_lo.copy()
    live = np.arange(lo.size)
    for _ in range(200):
        mid = 0.5 * (lo[live] + hi[live])
        inside = (lo[live] < mid) & (mid < hi[live])
        live, mid = live[inside], mid[inside]
        if not live.size:
            break
        f_mid = characteristic(geometry.take(live), mid, constants)
        zero = f_mid == 0.0
        same = ~zero & ((f_mid > 0.0) == (f_lo[live] > 0.0))
        lo[live[same | zero]] = mid[same | zero]
        hi[live[~same]] = mid[~same]
        f_lo[live[same]] = f_mid[same]
    return lo, hi


class _Brackets(NamedTuple):
    """One solve's grid scan, reduced to its brackets and diagnostics."""

    pair: WellPair
    config: SolverConfig
    lo: np.ndarray
    hi: np.ndarray
    f_lo: np.ndarray
    scale: np.ndarray  # residual scale of each bracket
    grid_points: int = 0
    sign_changes: int = 0
    pole_points: int = 0
    skipped_intervals: tuple[tuple[float, float], ...] = ()


def _scan(pair, cfg, e_min, e_max, constants, slot) -> _Brackets:
    # a NaN bound would fall out of max/min below and leave the full range
    for name, bound in (("e_min", e_min), ("e_max", e_max)):
        if bound is not None and math.isnan(bound):
            raise ValueError(f"solve window bound {name} must be a number, got nan")
    step = cfg.grid_step
    lo = max(step, e_min if e_min is not None else step)
    hi = min(pair.v_deep - step, e_max if e_max is not None else pair.v_deep - step)
    if hi <= lo:
        none = np.empty(0)
        return _Brackets(pair, cfg, none, none, none, none)

    # ``slot`` holds the window of the last scan, keyed by what it reads; any
    # other window is dropped before this scan computes its own
    key = (lo, hi, step, pair.width, pair.v_deep, pair.shallow_floor)
    window = slot.pop(key, None)
    slot.clear()
    energies = uniform_grid(lo, hi, step) if window is None else window.energies
    scan = grid_scan(pair, energies, constants, window)
    slot[key] = scan.window

    char = scan.char
    valid = np.isfinite(char) & ~((char == 0.0) & (scan.char_scale == 0.0))
    change = char[:-1] * char[1:] < 0.0
    isolated = change & valid[:-1] & valid[1:]
    skipped = np.flatnonzero(change & ~isolated)
    # an exact zero on the grid is a bracket of zero width, already a root; no
    # bracket touches it, so brackets in grid order yield ascending roots
    exact = valid & (char == 0.0)
    left = np.flatnonzero(exact | np.append(isolated, False))
    right = np.where(exact[left], left, left + 1)
    # convergence measure: cleared mismatch at the root relative to its size at
    # the isolating grid bracket (at a grid zero, its own term scale); a pole
    # artifact cannot shrink it
    scale = np.where(
        exact[left], scan.char_scale[left], np.maximum(np.abs(char[left]), np.abs(char[right]))
    )
    return _Brackets(
        pair,
        cfg,
        energies[left],
        energies[right],
        char[left],
        scale,
        grid_points=energies.size,
        sign_changes=int(np.count_nonzero(isolated)),
        pole_points=int(np.count_nonzero(scan.pole)),
        skipped_intervals=tuple(zip(energies[skipped].tolist(), energies[skipped + 1].tolist())),
    )


def _levels(scanned: _Brackets, energy, residual, r_lo, r_hi) -> SolveResult:
    pair, cfg = scanned.pair, scanned.config
    discard = residual > cfg.residual_tol
    kept = np.flatnonzero(~discard)[: cfg.max_levels]
    rows = zip(*(a[kept].tolist() for a in (energy, residual, r_lo, r_hi)))
    levels = tuple(
        Level(energy=e, regime=classify_regime(pair, e), residual=res, bracket=(b0, b1), index=i)
        for i, (e, res, b0, b1) in enumerate(rows)
    )
    diag = SolveDiagnostics(
        grid_points=scanned.grid_points,
        sign_changes=scanned.sign_changes,
        pole_points=scanned.pole_points,
        skipped_intervals=scanned.skipped_intervals,
        discarded_candidates=tuple(energy[discard].tolist()),
    )
    return SolveResult(pair=pair, config=cfg, levels=levels, diagnostics=diag)


def _solve_all(requests, constants, slot=None) -> list[SolveResult]:
    """Solve ``(pair, config, e_min, e_max)`` requests, bisecting all brackets together.

    Each scan is reduced to its brackets before the next one runs, so only
    one grid's worth of scan arrays is alive at a time.  Consecutive requests
    that share a grid and every pair parameter but ``distance`` share one
    window of the cleared form (a distance calibration's coarse batch).  A
    caller-owned ``slot`` keeps that window across batches (a calibration's
    refinement solves); without one, the window is dropped before bisection,
    which reads none.
    """
    shared = {} if slot is None else slot
    found = [_scan(*request, constants, shared) for request in requests]
    if slot is None:
        shared.clear()
    if not found:
        return []
    counts = [b.lo.size for b in found]
    geometry = _Geometry.of([b.pair for b in found]).take(np.repeat(np.arange(len(found)), counts))
    lo, hi, f_lo, scale = (
        np.concatenate([getattr(b, name) for b in found]) for name in ("lo", "hi", "f_lo", "scale")
    )
    r_lo, r_hi = _bisect(geometry, lo, hi, f_lo, constants)
    energy = 0.5 * (r_lo + r_hi)
    residual = np.abs(characteristic(geometry, energy, constants)) / scale
    ends = np.cumsum(counts)[:-1]
    parts = (np.split(a, ends) for a in (energy, residual, r_lo, r_hi))
    return [_levels(scanned, *arrays) for scanned, *arrays in zip(found, *parts)]


def solve_pair(
    pair: WellPair,
    config: SolverConfig | None = None,
    *,
    e_min: float | None = None,
    e_max: float | None = None,
    constants: PhysicalConstants = CODATA2018,
    _slot: dict | None = None,
) -> SolveResult:
    """Find all bound states of ``pair`` with energies in (0, v_deep).

    Optional ``e_min``/``e_max`` restrict the scan window (used by the
    calibration loop and the CLI).  An empty level list is a valid outcome
    for wells too shallow or narrow to bind a state.  ``_slot`` is the
    calibration's window slot (see :func:`_solve_all`), not part of the API.
    """
    return _solve_all([(pair, config or SolverConfig(), e_min, e_max)], constants, _slot)[0]


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
    """Best parameter value found, its misfit, and the matched levels."""

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


def _misfit(levels: list[float], targets: list[float]) -> float:
    if not levels:
        return math.inf
    return math.sqrt(sum((t - e) ** 2 for t, e in zip(targets, _nearest(levels, targets))))


def _level_slopes(make_pair, x, energies, x_range, h, h_e, constants) -> np.ndarray:
    """dE/dx of each level in ``energies`` (roots at parameter ``x``), implicitly.

    On the cleared form F(x, E) = 0 the implicit-function theorem gives
    dE/dx = -F_x / F_E.  Both partials are difference quotients from one
    :func:`characteristic` call: F_x from the pairs at ``x - h`` and ``x + h``,
    cut to ``x_range`` (so one-sided at its ends, where ``make_pair`` is valid),
    and F_E from the pair at ``x`` at ``E - h_e`` and ``E + h_e``.  A zero F_E
    gives a non-finite slope; ``make_pair`` errors propagate.
    """
    e = np.asarray(energies, dtype=float)
    x_lo, x_hi = max(x - h, x_range[0]), min(x + h, x_range[1])
    e_lo, e_hi = e - h_e, e + h_e
    geometry = _Geometry.of([make_pair(x_lo), make_pair(x_hi), make_pair(x)])
    with np.errstate(divide="ignore", invalid="ignore"):
        f = characteristic(
            geometry.take(np.repeat([0, 1, 2, 2], e.size)),
            np.concatenate([e, e, e_lo, e_hi]),
            constants,
        ).reshape(4, e.size)
        return -((f[1] - f[0]) / (x_hi - x_lo)) / ((f[3] - f[2]) / (e_hi - e_lo))


def _calibrate_1d(make_pair, targets, lo, hi, step, cfg, constants, what):
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

    def candidate(x: float) -> WellPair | None:
        try:
            return make_pair(x)
        except ValueError:
            return None

    def fit(x: float, solved: SolveResult | None) -> CalibrationResult:
        if solved is None:
            return CalibrationResult(value=x, misfit=math.inf, levels=())
        levels = [lv.energy for lv in solved.levels]
        return CalibrationResult(value=x, misfit=_misfit(levels, targets), levels=tuple(levels))

    # one window slot for the whole calibration: a refinement solve of a
    # distance fit has the coarse batch's key, so it pays the distance stage only
    slot = {}

    def evaluate(x: float) -> CalibrationResult:
        pair = candidate(x)
        if pair is None:
            return fit(x, None)
        solved = solve_pair(pair, cfg, e_min=e_min, e_max=e_max, constants=constants, _slot=slot)
        return fit(x, solved)

    def newton_step(at: CalibrationResult) -> float:
        """Gauss-Newton step on the nearest-level residuals; nan if it has no slope."""
        matched = _nearest(at.levels, targets)
        try:
            slope = _level_slopes(
                make_pair, at.value, matched, (lo, hi), _SLOPE_H * step, _SLOPE_H * cfg.grid_step,
                constants,
            )
        except ValueError:
            return math.nan
        gain = float(slope @ slope)
        if not (math.isfinite(gain) and gain > 0.0):
            return math.nan
        return -float(slope @ (np.array(matched) - targets)) / gain

    # a one-point range is a one-point grid, after the same step check
    grid = uniform_grid(lo, hi, step).tolist()
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid.append(hi)
    # the whole coarse grid is one batch: its brackets are bisected together
    pairs = [candidate(x) for x in grid]
    requests = [(p, cfg, e_min, e_max) for p in pairs if p is not None]
    solved = iter(_solve_all(requests, constants, slot))
    coarse = [fit(x, None if p is None else next(solved)) for x, p in zip(grid, pairs)]
    b = int(np.argmin([r.misfit for r in coarse]))
    best = coarse[b]
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
    _log_calibration(what, coarse[b], len(grid), iterates, solves)
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

    Searches ``l_range`` on a 0.01 Angstrom grid as one coarse batch, then
    refines the best cell by Newton steps on implicit level slopes.  Raises
    :class:`CalibrationError` (carrying the best candidate) if the final
    misfit exceeds 5e-3 eV.  Each solve spans the targets with 0.05 eV to
    spare on either side.  Target energies must be finite.
    """
    lo, hi = float(l_range[0]), float(l_range[1])
    if lo <= pair_template.width:
        raise ValueError(
            f"distance range must exceed the well width {pair_template.width}, got {l_range}"
        )
    cfg = config or SolverConfig()

    def make_pair(distance: float) -> WellPair:
        return replace(pair_template, distance=distance)

    return _calibrate_1d(make_pair, targets, lo, hi, step, cfg, constants, "distance")


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

        def make_pair(depth: float) -> WellPair:
            return replace(pair_template, v_deep=depth)

    else:
        if hi >= pair_template.v_deep or lo <= 0.0:
            raise ValueError(
                "searched shallow depth must stay inside (0, v_deep="
                f"{pair_template.v_deep}), got range {depth_range}"
            )

        def make_pair(depth: float) -> WellPair:
            return replace(pair_template, v_shallow=depth)

    return _calibrate_1d(make_pair, targets, lo, hi, step, cfg, constants, "depth")
