import logging
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wellcascade import eigensolver, oracle, transcendental
from wellcascade.eigensolver import (
    CalibrationError,
    SolverConfig,
    SturmCountError,
    calibrate_depth,
    calibrate_distance,
    solve_pair,
    uniform_grid,
)
from wellcascade.oracle import FdConfig, fd_solve
from wellcascade.potential import WellPair, cascade_profile, pair_profile, pair_segments
from wellcascade.quantities import CODATA2018
from wellcascade.transcendental import characteristic, count_below, grid_scan


def random_pairs(n, seed):
    """Deterministic sample of small well pairs for oracle comparisons."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        a = rng.uniform(5.0, 50.0)
        v_deep = rng.uniform(0.3, 2.0)
        v_shallow = rng.uniform(0.1, 0.9 * v_deep)
        distance = a + rng.uniform(3.0, 20.0)
        pairs.append(WellPair(width=a, distance=distance, v_shallow=v_shallow, v_deep=v_deep))
    return pairs


def test_pair1_contains_reference_resonances(pair1):
    energies = [lv.energy for lv in solve_pair(pair1).levels]
    assert min(abs(e - 1.445) for e in energies) <= 5e-3
    assert min(abs(e - 1.460) for e in energies) <= 5e-3


def test_pair1_ground_state(pair1):
    ground = solve_pair(pair1).levels[0]
    assert ground.energy == pytest.approx(0.01828, abs=5e-4)


def test_levels_sorted_unique_and_converged(pair1):
    result = solve_pair(pair1)
    energies = [lv.energy for lv in result.levels]
    assert energies == sorted(energies)
    assert len(set(energies)) == len(energies)
    for i, lv in enumerate(result.levels):
        assert lv.index == i
        assert lv.residual <= eigensolver._RESIDUAL_TOL
        # report.json states 1e-9 eV as the bracket width
        assert lv.bracket[1] - lv.bracket[0] <= 1e-9


def test_brackets_close_to_adjacent_floats(pair1, pair2, pair3):
    for pair in (pair1, pair2, pair3):
        for lv in solve_pair(pair).levels:
            lo, hi = lv.bracket
            assert lo == hi or np.nextafter(lo, math.inf) == hi


def test_strict_residual_tol_discards_every_root(pair1, monkeypatch):
    energies = tuple(lv.energy for lv in solve_pair(pair1).levels)
    monkeypatch.setattr(eigensolver, "_RESIDUAL_TOL", 1e-300)
    strict = solve_pair(pair1)
    assert strict.levels == ()
    assert strict.diagnostics.discarded_candidates == energies


def test_grid_zero_is_a_level_and_infinite_bracket_is_skipped(monkeypatch):
    pair = WellPair(width=5.0, distance=10.0, v_shallow=0.5, v_deep=1.0)
    config = SolverConfig(grid_step=0.01)
    grid = uniform_grid(0.01, 0.99, 0.01)

    def fake_terms(pair, energies, constants):
        # cleared form (g + 2)*1 - 2*1 = g, exactly 0 at grid[10], within
        # rounding of 0 at grid[30] (with the sine's sign on both sides) and
        # -inf at grid[70]; elsewhere g = sin(37 e + 0.3)
        e = np.asarray(energies)
        g = np.select([e == grid[10], e == grid[30], e == grid[70]], [0.0, -1e-15, -np.inf],
                      np.sin(37.0 * e + 0.3))
        one = np.ones_like(e)
        return g + 2.0, one, 2.0 * one, one

    def fake_count(segments, energies, constants):
        # the roots of the sine, a level at grid[10], one just above grid[30], one
        # in (grid[69], grid[70]), and one between the grid's last point and the
        # barrier top, where the sine keeps its sign
        e = np.asarray(energies)
        sine = np.floor((37.0 * e + 0.3) / np.pi)
        levels = (sine + (e >= grid[10]) + (e > grid[30]) + (e > 0.5 * (grid[69] + grid[70]))
                  + (e > 0.995))
        return levels.astype(np.int64)

    monkeypatch.setattr(transcendental, "_cleared_terms", fake_terms)
    monkeypatch.setattr(eigensolver, "count_below", fake_count)
    result = solve_pair(pair, config)
    energies = [lv.energy for lv in result.levels]
    assert energies == sorted(set(energies))
    zero = [lv for lv in result.levels if lv.energy == grid[10]]
    assert len(zero) == 1 and zero[0].residual == 0.0 and zero[0].bracket == (grid[10], grid[10])
    # the count's cell above grid[30] shows no sign change: its level is that end
    near = [lv for lv in result.levels if lv.energy == grid[30]]
    assert len(near) == 1 and 0.0 < near[0].residual <= 1e-14
    assert near[0].bracket == (grid[30], grid[30])
    # the count's levels at an infinite cell end and in the end cell up to the
    # barrier top are reported, not dropped
    assert result.diagnostics.skipped_intervals == (
        (grid[69], grid[70]), (grid[-1], np.nextafter(1.0, 0.0))
    )
    assert result.diagnostics.sign_changes == len(result.levels) - 2 == 11


def _bisect_one(pair, lo, hi, f_lo):
    """One bracket at a time: the reference for the lockstep refinement."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        f_mid = characteristic(pair, np.array([mid]))[0]
        if f_mid == 0.0:
            return mid, mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo, hi


def _bisect_batch(brackets):
    """``_bisect`` on brackets ``(pair, lo, hi, f_lo)``, with f at each ``hi`` too."""
    pairs, lo, hi, f_lo = zip(*brackets)
    geometry, hi = eigensolver._Geometry.of(pairs), np.array(hi)
    f_hi = characteristic(geometry, hi)
    return eigensolver._bisect(geometry, np.array(lo), hi, np.array(f_lo), f_hi, CODATA2018)


def _count_one(grid, top, k):
    """Level ``k`` of an oracle grid by bisecting its count alone, from the
    bracket the oracle opens: below or above the barrier top ``top``."""
    _, _, diag, off, runs, bound, _ = grid
    floor, ceiling = oracle._gershgorin(diag, off)
    lo, hi = (floor, top) if k < bound else (top, ceiling)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if oracle._sturm_count(runs, [mid])[0] <= k:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sign_changes(pair, lo=2e-5, hi=None, step=2e-5):
    """Every sign change of the cleared form on the full grid: the scan's brackets."""
    energies = uniform_grid(lo, pair.v_deep - step if hi is None else hi, step)
    char = grid_scan(pair, energies).char
    i = np.flatnonzero(char[:-1] * char[1:] < 0.0)
    return [(pair, energies[j], energies[j + 1], char[j]) for j in i]


def test_levels_on_grid_points_keep_the_scan_brackets(reference_spec, monkeypatch):
    # a calibration's window starts 0.05 eV below a level, so the level sits
    # within rounding of a grid point, where the count and the cleared form
    # can place it in adjacent cells: the solve then reports it at that grid
    # point, an end of the scan's bracket, and never scans a second time
    pairs = [reference_spec.pair(i) for i in range(4)]
    levels = [solve_pair(pair).levels for pair in pairs]
    scans = []

    def recording(*args, **kwargs):
        scans.append(1)
        return grid_scan(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "grid_scan", recording)
    strays = 0
    for pair, found in zip(pairs, levels):
        for level in found:
            lo, hi = level.energy - 0.05, level.energy + 0.05
            scans.clear()
            result = solve_pair(pair, e_min=lo, e_max=hi)
            assert len(scans) == 1
            assert result.diagnostics.skipped_intervals == ()
            scanned = _sign_changes(pair, max(lo, 2e-5), min(hi, pair.v_deep - 2e-5))
            assert len(result.levels) == len(scanned)
            for lv, bracket in zip(result.levels, scanned):
                if lv.bracket != _bisect_one(*bracket):
                    strays += 1
                    assert lv.bracket[0] == lv.bracket[1] in bracket[1:3]
                    assert lv.residual <= 1e-8
    assert strays > 0


def test_lockstep_bisection_matches_one_bracket_at_a_time(pair1, pair3):
    one, three = _sign_changes(pair1), _sign_changes(pair3)
    # each pair alone, then both pairs' brackets interleaved in one call
    mixed = [b for both in zip(one, three) for b in both] + one[len(three):] + three[len(one):]
    assert {b[0] for b in mixed} == {pair1, pair3}
    for brackets in (one, three, mixed):
        r_lo, r_hi = _bisect_batch(brackets)
        expected = [_bisect_one(*b) for b in brackets]
        assert list(zip(r_lo.tolist(), r_hi.tolist())) == expected


def test_bisect_collapses_only_the_bracket_with_an_exact_zero(pair1, monkeypatch):
    shapes = []

    def fake(geometry, energies, constants):
        # a zero at 0.5, the first midpoint of the first bracket; a jump with no
        # zero at 1.3 inside the second one; a zero at 2.375 inside the third,
        # the third node on its path (2.5, 2.25, 2.375)
        assert np.broadcast_shapes(geometry.width.shape, energies.shape) == energies.shape
        shapes.append(energies.shape)
        return np.where(
            energies < 1.0,
            energies - 0.5,
            np.where(energies < 2.0, np.where(energies < 1.3, -1.0, 1.0), energies - 2.375),
        )

    monkeypatch.setattr(eigensolver, "characteristic", fake)
    # along paths, then by multisection, forced for these three brackets
    for limit in (eigensolver._PATH_BRACKETS, 0):
        shapes.clear()
        monkeypatch.setattr(eigensolver, "_PATH_BRACKETS", limit)
        lo, hi = eigensolver._bisect(
            eigensolver._Geometry.of([pair1, pair1, pair1]),
            np.array([0.0, 1.0, 2.0]),
            np.array([1.0, 2.0, 3.0]),
            np.array([-0.5, -1.0, -0.375]),
            np.array([0.5, 1.0, 0.625]),
            CODATA2018,
        )
        assert (lo[0], hi[0]) == (0.5, 0.5)
        assert lo[1] < 1.3 <= hi[1] and np.nextafter(lo[1], math.inf) == hi[1]
        assert (lo[2], hi[2]) == (2.375, 2.375)
        if limit:
            # one path per open bracket and call: the regula-falsi guesses are
            # the zeros, so the first and third brackets close in the first call;
            # on the jump each guess, from f = -1 and 1, is its bracket's
            # midpoint, a path agrees for about four halvings, and the second
            # bracket takes 13 more calls
            assert shapes == [(3, 53)] + [(1, 51 - 4 * i) for i in range(13)]
        else:
            # each call evaluates a tree of 2**6 - 1 midpoints per open bracket:
            # all three in the first round, then only the second, whose 52
            # halvings down to adjacent doubles take 9 rounds
            assert shapes == [(3, 63)] + [(1, 63)] * 8


# open brackets -> depth of the first round: both sides of every step of the rule
_DEPTHS = {1: 6, 8: 6, 9: 5, 16: 5, 17: 4, 34: 4, 35: 3, 73: 3, 74: 2, 170: 2, 171: 1, 513: 1}


@settings(max_examples=60, deadline=None)
@given(
    width=st.floats(5.0, 50.0),
    barrier=st.floats(0.5, 20.0),
    v_deep=st.floats(0.3, 2.0),
    share=st.floats(0.1, 0.9),
    step=st.sampled_from([1e-4, 1e-3]),
    size=st.sampled_from(sorted(_DEPTHS)),
)
def test_multisection_equals_one_bracket_at_a_time(width, barrier, v_deep, share, step, size):
    pair = WellPair(width=width, distance=width + barrier, v_shallow=share * v_deep, v_deep=v_deep)
    brackets = _sign_changes(pair, lo=step, step=step)[:12]
    assume(brackets)
    expected = [_bisect_one(*b) for b in brackets]
    # ``size`` open brackets set the depth; the refined brackets, already at
    # adjacent doubles, must come back as they are
    which = np.arange(size) % len(brackets)
    done = [(pair, r_lo, r_hi, characteristic(pair, np.array([r_lo]))[0])
            for r_lo, r_hi in expected if r_lo < r_hi]
    batch = [brackets[i] for i in which] + done
    # by the size switch, and with multisection forced for a batch small enough for paths
    paths = eigensolver._PATH_BRACKETS
    for limit in (paths, 0) if len(batch) <= paths else (paths,):
        with mock.patch.object(eigensolver, "_PATH_BRACKETS", limit), \
                mock.patch.object(eigensolver, "characteristic", wraps=characteristic) as spy:
            r_lo, r_hi = _bisect_batch(batch)
        assert list(zip(r_lo.tolist(), r_hi.tolist())) == (
            [expected[i] for i in which] + [(b[1], b[2]) for b in done]
        )
        first = spy.call_args_list[0].args[1].shape
        if len(batch) <= limit:
            # one path per open bracket, as long as the round affords
            assert first[0] == size and first[1] <= min(64, 512 // size)
        else:
            assert first == (size, 2 ** _DEPTHS[size] - 1)
    # driven by the oracle's count: ``size`` levels of the pair's matrix open
    # ``size`` brackets, those above the barrier top included; the highest is
    # checked alone (every level is, in the next test)
    grid = oracle._grid(pair_profile(pair), 1001, CODATA2018)
    with mock.patch.object(oracle, "_sturm_count", wraps=oracle._sturm_count) as spy:
        levels = oracle._levels(grid, size, v_deep)
    assert spy.call_args_list[0].args[1].shape == (size, 2 ** _DEPTHS[size] - 1)
    assert levels[-1] == _count_one(grid, v_deep, size - 1)


def _walks_agree(lo, hi, f_lo, f_hi, value):
    """The paths' brackets, after checking them against multisection's bit for bit.

    ``value(live, points)`` is f at ``points[i]`` of bracket ``live[i]``; the
    multisection moves by it as ``_bisect`` does by the cleared form.
    """
    lo, hi, f_lo, f_hi = (np.array(x, dtype=float) for x in (lo, hi, f_lo, f_hi))
    up = (f_lo > 0.0)[:, None]

    def decide(live, points):
        f = value(live, points)
        move = np.where((f > 0.0) == up[live], 1, -1)
        move[f == 0.0] = 0
        return move

    paths = [x.tolist() for x in eigensolver._paths(lo, hi, f_lo, f_hi, value)]
    assert paths == [x.tolist() for x in eigensolver._multisect(lo, hi, decide)]
    return paths


def _cleared_walks_agree(brackets):
    """:func:`_walks_agree` on the cleared form, for brackets ``(pair, lo, hi, f_lo)``."""
    pairs, lo, hi, f_lo = zip(*brackets)
    geometry, hi = eigensolver._Geometry.of(pairs), np.array(hi)
    columns = eigensolver._Geometry(*(x[:, None] for x in geometry))
    return _walks_agree(lo, hi, f_lo, characteristic(geometry, hi),
                        lambda live, points: characteristic(columns.take(live), points))


@pytest.mark.parametrize("step", [2e-5, 5e-4])
def test_paths_equal_multisection_on_every_bracket_of_the_paper(reference_spec, step):
    brackets = [b for i in range(4) for b in _sign_changes(reference_spec.pair(i), step, step=step)]
    assert len(brackets) >= 46
    # all together, a few points per path and round, then each alone, 64
    together = _cleared_walks_agree(brackets)
    alone = [_cleared_walks_agree([b]) for b in brackets]
    assert together == [[x for one in alone for x in one[i]] for i in range(2)]


@settings(max_examples=30, deadline=None)
@given(
    width=st.floats(5.0, 50.0),
    barrier=st.floats(0.5, 20.0),
    v_deep=st.floats(0.3, 2.0),
    share=st.floats(0.1, 0.9),
    step=st.sampled_from([2e-5, 1e-4, 1e-3, 5e-3]),
    cut=st.floats(0.0, 0.999),
)
def test_paths_equal_multisection_on_random_pairs(width, barrier, v_deep, share, step, cut):
    pair = WellPair(width=width, distance=width + barrier, v_shallow=share * v_deep, v_deep=v_deep)
    brackets = _sign_changes(pair, lo=step, step=step)
    assume(brackets)
    # each bracket's lower part cut by ``cut`` where the sign stays, so ends sit off the grid
    cut_brackets = []
    for b in brackets:
        lo = b[1] + cut * (b[2] - b[1])
        f = characteristic(pair, np.array([lo]))[0]
        cut_brackets.append((pair, lo, b[2], f) if f * b[3] > 0.0 else b)
    _cleared_walks_agree(brackets)
    _cleared_walks_agree(cut_brackets)


def test_paths_follow_bisection_where_f_flips_sign_within_ulps_of_its_root():
    # f = x - 0.7, but within 6 ulp of 0.7 its sign alternates from ulp to ulp:
    # the regula-falsi guesses are 0.7, and the paths go wrong near the end
    root = 0.7
    ulp = math.ulp(root)

    def value(live, points):
        d = np.round((points - root) / ulp)
        return np.where(np.abs(d) <= 6, np.where(d % 2 == 0, 1e-15, -1e-15), points - root)

    lo = np.array([root - 1e-3, root - 1e-9, root - 2e-5, root - 7 * ulp, root - 3 * ulp])
    hi = np.array([root + 2e-3, root + 1e-5, root + 5 * ulp, root + 7 * ulp, root + 3 * ulp])
    paths = _walks_agree(lo, hi, value(None, lo), value(None, hi), value)
    assert all(b - a == ulp for a, b in zip(*paths))


def test_paths_stop_after_200_halvings():
    # from the smallest positive double to 1, a root at 1e-300 lies ~1000 halvings down
    lo, hi = np.array([5e-324]), np.array([1.0])
    paths = _walks_agree(lo, hi, lo - 1e-300, hi - 1e-300, lambda live, points: points - 1e-300)
    assert paths == [[5e-324], [2.0**-200]]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_paths_take_a_nan_for_a_negative_value_as_multisection_does(sign):
    # f = sign*(x - 0.6) is NaN on (0.55, 0.65): bisection reads NaN as negative,
    # so it ends at 0.65 when f rises, and at 0.55 when it falls
    def value(live, points):
        return np.where((0.55 < points) & (points < 0.65), math.nan, sign * ((points - 0.6) - 1e-17))

    ends = np.array([0.0, 1.0])
    f_lo, f_hi = value(None, ends[:, None])
    paths = _walks_agree(ends[:1], ends[1:], f_lo, f_hi, value)
    assert paths[1][0] == np.nextafter(paths[0][0], 1.0)
    assert (0.65 if sign > 0 else 0.55) in (paths[0][0], paths[1][0])


def test_paths_at_an_exact_zero_adjacent_doubles_and_a_binade():
    calls = []

    def line(root, offset=0.0):
        """f = x - (root + offset) without rounding ``root + offset`` to a double."""
        def value(live, points):
            calls.append(points.shape)
            return (points - root) - offset
        return value

    # the zero 0.375 is the third midpoint of the path to the guess, 0.375 itself
    assert _walks_agree([0.0], [1.0], [-0.375], [0.625], line(0.375)) == [[0.375], [0.375]]
    # a bracket of two adjacent doubles is returned with no evaluation
    calls.clear()
    below = np.nextafter(0.3, 1.0)
    assert _walks_agree([0.3], [below], [-1.0], [1.0], line(0.3, 1e-17)) == [[0.3], [below]]
    assert calls == []
    # roots just below and above 0.5 eV, where the ulp doubles, in brackets across it
    for offset, bracket in ((-3e-17, [np.nextafter(0.5, 0.0), 0.5]),
                            (3e-17, [0.5, np.nextafter(0.5, 1.0)])):
        f = line(0.5, offset)
        lo, hi = np.array([0.5 - 1e-5, 0.5 - 1e-12]), np.array([0.5 + 1e-5, 0.5 + 3e-12])
        paths = _walks_agree(lo, hi, f(None, lo), f(None, hi), f)
        assert paths == [[bracket[0]] * 2, [bracket[1]] * 2]


@pytest.mark.parametrize("f_lo, f_hi", [
    (-0.6, -0.6),  # equal ends: no guess
    (-0.6, math.nan),  # a NaN end
    (-0.6, -0.1),  # ends of one sign: the guess lies above the bracket
    (-math.inf, math.inf),  # infinite ends: inf/inf
    (-0.6, math.inf),  # the guess is the bracket's bottom
])
def test_paths_with_a_guess_that_is_no_number_inside_the_bracket(f_lo, f_hi):
    # the root lies 1e-17 above the double 0.6, so no midpoint is an exact zero
    paths = _walks_agree([0.0], [1.0], [f_lo], [f_hi], lambda live, points: (points - 0.6) - 1e-17)
    assert paths == [[0.6], [np.nextafter(0.6, 1.0)]]


def test_a_batch_at_the_path_limit_and_one_above_give_the_same_levels(reference_spec):
    brackets = [b for i in range(4) for b in _sign_changes(reference_spec.pair(i))]
    limit = eigensolver._PATH_BRACKETS
    assert len(brackets) > limit
    with mock.patch.object(eigensolver, "_multisect", wraps=eigensolver._multisect) as spy:
        at = _bisect_batch(brackets[:limit])
        assert not spy.called
        above = _bisect_batch(brackets[: limit + 1])
        assert spy.call_count == 1
    assert [x.tolist() for x in at] == [x[:limit].tolist() for x in above]
    assert [x.tolist() for x in above] == [list(x) for x in zip(*(
        _bisect_one(*b) for b in brackets[: limit + 1]))]


def test_oracle_levels_equal_one_bracket_at_a_time(reference_spec):
    # every bound level of paper.cfg's pairs and of the chain, and two above
    # the barrier top, each bisected alone on the count down to adjacent doubles
    profiles = [pair_profile(reference_spec.pair(i)) for i in range(4)]
    for profile in profiles + [cascade_profile(reference_spec)]:
        top = profile.max_value()
        grid = oracle._grid(profile, 2001, CODATA2018)
        bound = grid[5]
        levels = oracle._levels(grid, bound + 2, top)
        expected = [_count_one(grid, top, k) for k in range(bound + 2)]
        assert levels.tolist() == expected
        config = oracle.FdConfig(grid_points=2001)
        assert oracle.fd_solve(profile, bound + 2, config).levels == tuple(expected[:bound])


def test_batch_solve_matches_one_solve_at_a_time(pair1, pair2):
    config = SolverConfig()
    # a coarse distance grid around pair 1 and a deep-depth grid around pair 2
    distances = [replace(pair1, distance=60.0 + 0.01 * i) for i in range(19)]
    depths = [replace(pair2, v_deep=0.52 + 5e-4 * i) for i in range(9)]
    # both grids interleaved, so the geometry changes at every pair
    mixed = [p for both in zip(distances, depths) for p in both] + distances[len(depths):]
    # pair 2's barrier top lies below the first window: its grid is empty,
    # in the middle of a batch whose other pairs all have levels
    cases = ((distances[:9] + [pair2] + distances[9:], 1.395, 1.51),
             (depths, 0.218, 0.324), (mixed, 0.218, 0.324))
    for pairs, lo, hi in cases:
        batch = eigensolver._solve_all(pairs, config, lo, hi, CODATA2018)
        assert batch == [solve_pair(p, config, e_min=lo, e_max=hi) for p in pairs]
        for result in batch:
            empty = result.pair is pair2
            assert (result.diagnostics.grid_points == 0) == empty == (result.levels == ())


def test_calibration_coarse_batch_scans_cell_ends_once(pair1, monkeypatch):
    scans, batches = [], []
    solve_batch = eigensolver._solve_batch

    def recording(*args, **kwargs):
        scans.append(np.array(args[1]))
        return grid_scan(*args, **kwargs)

    def batching(geometry, *args):
        batches.append(geometry.width.size)
        return solve_batch(geometry, *args)

    monkeypatch.setattr(eigensolver, "grid_scan", recording)
    monkeypatch.setattr(eigensolver, "_solve_batch", batching)
    step = SolverConfig().grid_step
    for l_range, points in (((60.0, 60.5), 51), ((58.0, 63.0), 501)):
        scans.clear()
        batches.clear()
        calibrate_distance(pair1, [1.445, 1.460], l_range)
        # the misfit of these targets is flat at the count screen's resolution, so
        # every coarse point passes its last rung and the whole grid is one batch:
        # one scan for that coarse batch and one for each one-pair refinement batch
        assert batches[0] == points and set(batches[1:]) == {1}
        assert len(scans) == len(batches) > 1
        # on grid points only: two cell ends per level in the window, which
        # holds the doublet at every coarse distance (its grid has 5 750 points)
        coarse = scans[0]
        index = (coarse - 1.395) / step
        assert np.array_equal(coarse, 1.395 + step * np.round(index))
        assert coarse.size == 2 * 2 * points


def test_calibration_cost_follows_refinement_not_coarse_points(pair1, monkeypatch):
    calls, batches = [], []
    solve_batch = eigensolver._solve_batch

    def counting(*args):
        calls.append(1)
        return characteristic(*args)

    def batching(*args):
        before = len(calls)
        result = solve_batch(*args)
        batches.append(len(calls) - before)
        return result

    monkeypatch.setattr(eigensolver, "characteristic", counting)
    monkeypatch.setattr(eigensolver, "_solve_batch", batching)
    # one plain lockstep bisection, one halving per call, takes 37 calls from a
    # 2e-5 eV grid cell in the 1.395-1.51 eV window down to adjacent doubles,
    # and one more call evaluates the residuals
    halvings = math.ceil(math.log2(SolverConfig().grid_step / math.ulp(1.5)))
    plain = halvings + 1
    for l_range in ((60.0, 60.5), (58.0, 63.0)):  # 51 and 501 coarse points
        batches.clear()
        result = calibrate_distance(pair1, [1.445, 1.460], l_range)
        assert result.value == pytest.approx(60.1888, abs=1e-3)
        coarse, *refinement = batches
        # these flat targets leave every coarse point passing the count screen, so
        # the whole grid is one coarse batch, which costs no more than one plain
        # bisection, whatever its size; a refinement solve walks its two
        # brackets along regula-falsi paths in three calls, where multisection
        # six halvings per call took seven
        assert coarse <= plain, batches
        assert refinement and max(refinement) <= 3 + 1 < math.ceil(halvings / 6) + 1, batches


def test_oracle_equivalence_on_random_pairs():
    for pair in random_pairs(5, seed=11):
        levels = [lv.energy for lv in solve_pair(pair).levels]
        fd = fd_solve(pair_profile(pair), max(len(levels), 1) + 2,
                      FdConfig(grid_points=10001)).levels
        assert len(fd) == len(levels)
        for mine, ref in zip(levels, fd):
            assert mine == pytest.approx(ref, abs=5e-3)


def test_count_matches_oracle_on_pair1(pair1):
    n = len(solve_pair(pair1).levels)
    fd = fd_solve(pair_profile(pair1), n + 3).levels
    assert len(fd) == n


def test_count_monotone_in_depth():
    counts = []
    for v_deep in (0.3, 0.6, 0.9, 1.2, 1.5, 1.8):
        pair = WellPair(width=20.0, distance=30.0, v_shallow=0.2, v_deep=v_deep)
        counts.append(len(solve_pair(pair).levels))
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_count_is_monotone_where_the_shallow_well_holds_whole_half_waves(reference_spec):
    # at k1 a = n pi the shallow well's Prüfer phase ends within rounding of a
    # multiple of pi, and the zero at its edge must be counted once, not again
    # by the barrier; first paper.cfg's pairs 1, 3 and 4 at such energies
    # (pair 1's is k1 a = 3 pi), then every such energy of random pairs
    paper = [(reference_spec.pair(i), np.array([e])) for i, e in [
        (0, 1.4890054014035836), (2, 0.6020054014035836), (3, 0.8110054014035837)]]
    f = CODATA2018.wavenumber_factor
    n = np.arange(1, 200)
    for pair, edges in paper + [(p, p.shallow_floor + (n * np.pi / (f * p.width)) ** 2)
                                for p in random_pairs(40, seed=5)]:
        edges = edges[edges < pair.v_deep - 1e-6]
        counts = count_below(pair_segments(pair), np.stack([edges - 1e-9, edges, edges + 1e-9], 1))
        assert np.all(np.diff(counts, axis=1) >= 0), pair


@pytest.mark.parametrize("dip", [(0.5, 0.52), (0.69995, 0.7)])
def test_a_count_that_falls_along_a_row_raises(pair1, monkeypatch, dip):
    # a count of levels at 0.3, 0.7 and 1.1 eV, one too low on ``dip``: the wide
    # dip holds points of the first round, which cuts the window 0.002 eV apart;
    # the narrow one, just below a level, is seen only inside that level's
    # bracket, below the count at the bracket's low end
    def falling(segments, energies, constants):
        inside = (dip[0] <= energies) & (energies < dip[1])
        return np.searchsorted([0.3, 0.7, 1.1], energies) - inside

    monkeypatch.setattr(eigensolver, "count_below", falling)
    with pytest.raises(SturmCountError) as error:
        solve_pair(pair1, e_min=0.25, e_max=1.25)
    fall = re.fullmatch(
        r"the oscillation count of the pair \(width 43.85 A, distance 60.19 A, depths "
        r"0.272/1.585 eV\) falls from 1 at (\S+) eV to 0 at (\S+) eV", str(error.value)
    )
    assert fall
    assert 0.3 <= float(fall[1]) < dip[0] <= float(fall[2]) < dip[1]


def test_a_count_below_its_brackets_low_end_raises(pair1):
    # grid index i at i eV over 2 000 points, more than a round's 512, one level at
    # 1000.5 eV: the first round cuts the window at 999 and 1003, and the next at
    # 1000, 1001 and 1002, where the count at 1000 falls below the 5 at the
    # bracket's low end; the bracket's ends are in the check
    def count(owner, energies):
        return 5 + (energies > 1000.5) - ((999.5 < energies) & (energies < 1000.5))

    assert 2000 > eigensolver._ROUND_POINTS
    geometry = eigensolver._Geometry.of([pair1])
    with pytest.raises(SturmCountError, match=r"falls from 5 at 999.0 eV to 4 at 1000.0 eV$"):
        eigensolver._cells(count, lambda index: 1.0 * index, np.array([2000]), -1.0,
                           np.array([2000.0]), geometry)


def _cells_of(pairs, step, e_min, e_max, predicted=()):
    """``_cells`` of ``pairs`` as ``_solve_batch`` calls it, and the size of each count call."""
    geometry = eigensolver._Geometry.of(pairs)
    bottom, top, first, size = eigensolver._grids(geometry, step, e_min, e_max)
    calls = []

    def count(owner, energies):
        calls.append(energies.size)
        return count_below(pair_segments(geometry.take(owner)), energies)

    cells = eigensolver._cells(count, lambda index: first + step * index, size, bottom, top,
                               geometry, predicted)
    return [x.tolist() for x in cells], calls, size


_PAIR = st.builds(
    lambda width, barrier, v_deep, share: WellPair(
        width=width, distance=width + barrier, v_shallow=share * v_deep, v_deep=v_deep),
    st.floats(5.0, 50.0), st.floats(0.5, 20.0), st.floats(0.3, 2.0), st.floats(0.1, 0.9),
)


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(_PAIR, min_size=1, max_size=3),
    step=st.sampled_from([2e-5, 1e-4, 5e-4]),
    window=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.3))),
    right=st.sampled_from([0, 1, 2]),
    offset=st.floats(0.0, 0.999),
    wrong=st.lists(st.floats(-0.5, 1.5), max_size=4),
    special=st.lists(st.sampled_from([math.nan, math.inf, -math.inf, -1e6, 1e300]), max_size=3),
)
def test_predicted_cells_leave_every_cell_as_it_is(pairs, step, window, right, offset, wrong,
                                                   special):
    # extra points of the first round change no cell: each level's cell is the
    # one grid index where the count passes its index.  The predictions are grid
    # positions: the true cells (``right`` times, so 2 duplicates them), others
    # anywhere over the grid and around it, out of every window and no numbers
    e_min, e_max = (None, None) if window is None else (
        window[0] * pairs[0].v_deep, (window[0] + window[1]) * pairs[0].v_deep)
    cells, calls, size = _cells_of(pairs, step, e_min, e_max)
    truth = [a + offset for a in cells[2]] * right
    predicted = truth + [w * int(size.max(initial=1)) for w in wrong] + special
    predicted_cells, predicted_calls, _ = _cells_of(pairs, step, e_min, e_max, predicted)
    assert predicted_cells == cells
    if right:
        # every cell was predicted, so the first round finds them all
        assert len(predicted_calls) == 1


def test_no_bound_state_for_tiny_well():
    pair = WellPair(width=1.0, distance=3.0, v_shallow=0.01, v_deep=0.02)
    assert solve_pair(pair).levels == ()
    fd = fd_solve(pair_profile(pair), 1, FdConfig(grid_points=2001)).levels
    assert fd == ()


def test_monotone_discovery_under_grid_refinement(pair1):
    coarse = [lv.energy for lv in solve_pair(pair1, SolverConfig(grid_step=4e-5)).levels]
    fine = [lv.energy for lv in solve_pair(pair1, SolverConfig(grid_step=2e-5)).levels]
    assert len(fine) >= len(coarse)
    for e in coarse:
        assert min(abs(e - f) for f in fine) < 1e-8


def test_near_degenerate_doublet_resolved(pair3):
    # pair 3 carries the narrowest doublet (~1.5e-4 eV, under 10 grid steps)
    levels = [lv.energy for lv in solve_pair(pair3, e_min=0.42, e_max=0.47).levels]
    assert len(levels) == 2
    splitting = levels[1] - levels[0]
    assert 0.0 < splitting < 10 * SolverConfig().grid_step


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grid_step=0.0)


def test_calibrate_distance_reference_pair(pair1):
    result = calibrate_distance(pair1, [1.445, 1.460], (60.0, 65.0))
    assert 60.0 <= result.value <= 65.0
    assert result.misfit < 5e-3
    for target in (1.445, 1.460):
        assert min(abs(e - target) for e in result.levels) < 5e-3


def test_calibrate_distance_fixed_point(pair1):
    at_mid = replace(pair1, distance=62.0)
    targets = [lv.energy for lv in solve_pair(at_mid, e_min=1.43, e_max=1.47).levels]
    result = calibrate_distance(pair1, targets, (61.0, 63.0))
    assert result.value == pytest.approx(62.0, abs=1e-2)
    assert result.misfit < 1e-6


def test_calibrate_distance_degenerate_range(pair1):
    result = calibrate_distance(pair1, [1.445, 1.460], (60.19, 60.19))
    assert result.value == 60.19
    assert result.misfit < 5e-3


def test_calibrate_distance_empty_range(pair1):
    with pytest.raises(ValueError):
        calibrate_distance(pair1, [1.445], (65.0, 60.0))
    with pytest.raises(ValueError):
        calibrate_distance(pair1, [], (60.0, 65.0))
    with pytest.raises(ValueError):  # range inside the well width
        calibrate_distance(pair1, [1.445], (10.0, 20.0))


@pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
def test_calibrate_rejects_bad_step(pair1, step):
    for l_range in ((60.0, 60.5), (60.19, 60.19)):  # also before a one-point range
        with pytest.raises(ValueError, match="grid step"):
            calibrate_distance(pair1, [1.445, 1.460], l_range, step=step)


def test_calibration_failure_carries_best_candidate(pair1):
    with pytest.raises(CalibrationError) as info:
        calibrate_distance(pair1, [1.30, 1.32], (60.0, 60.2))
    best = info.value.best
    assert best.misfit > 5e-3
    assert 60.0 <= best.value <= 60.2


def test_calibrate_depth_recovers_third_well(pair2):
    # hold the shallow depth at 0.272 and search the deep one near 0.524
    result = calibrate_depth(pair2, "shallow", [0.268, 0.274], (0.50, 0.55))
    assert result.value == pytest.approx(0.524, abs=5e-3)
    assert result.misfit < 5e-3


def test_calibrate_depth_degenerate_range(pair2):
    result = calibrate_depth(pair2, "shallow", [0.268, 0.274], (0.524, 0.524))
    assert result.value == 0.524
    assert result.misfit < 5e-3


def test_calibrate_depth_rejects_bad_ordering(pair2):
    with pytest.raises(ValueError):  # searched deep depth below the fixed shallow one
        calibrate_depth(pair2, "shallow", [0.268], (0.1, 0.2))
    with pytest.raises(ValueError):  # searched shallow depth above the fixed deep one
        calibrate_depth(pair2, "deep", [0.268], (0.6, 0.7))
    with pytest.raises(ValueError):
        calibrate_depth(pair2, "neither", [0.268], (0.5, 0.55))


# calibrations whose range holds an invalid pair: a distance at or below the
# width, a deep depth at or below the fixed shallow one, a shallow depth
# outside (0, v_deep); pair 1 is 43.85 A wide, pair 2 is 0.272 / 0.524 eV deep
@pytest.mark.parametrize(
    "call",
    [
        lambda p1, p2: calibrate_distance(p1, [1.445], (43.85, 65.0)),
        lambda p1, p2: calibrate_distance(p1, [1.445], (40.0, 65.0)),
        lambda p1, p2: calibrate_depth(p2, "shallow", [0.268], (0.272, 0.55)),
        lambda p1, p2: calibrate_depth(p2, "shallow", [0.268], (0.1, 0.55)),
        lambda p1, p2: calibrate_depth(p2, "deep", [0.268], (0.25, 0.524)),
        lambda p1, p2: calibrate_depth(p2, "deep", [0.268], (0.25, 0.6)),
        lambda p1, p2: calibrate_depth(p2, "deep", [0.268], (0.0, 0.3)),
        lambda p1, p2: calibrate_depth(p2, "deep", [0.268], (-0.1, 0.3)),
    ],
    ids=["distance-at-width", "distance-below-width", "deep-at-shallow", "deep-below-shallow",
         "shallow-at-deep", "shallow-above-deep", "shallow-at-zero", "shallow-below-zero"],
)
def test_calibration_range_with_an_invalid_pair_raises_before_any_solve(pair1, pair2, call,
                                                                       monkeypatch):
    # the coarse batch builds no WellPair, so the range checks alone keep
    # every pair of a calibration valid
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the range was checked")

    monkeypatch.setattr(eigensolver, "_solve_batch", no_solve)
    monkeypatch.setattr(eigensolver, "solve_pair", no_solve)
    with pytest.raises(ValueError, match="range") as info:
        call(pair1, pair2)
    assert not isinstance(info.value, CalibrationError)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_calibrate_rejects_non_finite_targets(pair1, pair2, target):
    for call in (
        lambda: calibrate_distance(pair1, [target, 1.46], (60.0, 60.3)),
        lambda: calibrate_depth(pair2, "shallow", [0.268, target], (0.50, 0.55)),
    ):
        with pytest.raises(ValueError, match="must be finite") as info:
            call()
        assert not isinstance(info.value, CalibrationError)
        assert repr(target) in str(info.value)


@pytest.mark.parametrize(
    "argument, value",
    [("misfit_tol", math.nan), ("misfit_tol", -1e-3),
     ("search_pad", math.nan), ("search_pad", math.inf), ("search_pad", -1.0)],
)
def test_calibrate_rejects_arguments_that_disable_the_fit(pair1, pair2, argument, value):
    # the misfit threshold and the window pad are fixed: no argument can pass
    # every fit (a NaN threshold) or empty the solve window (a NaN pad)
    for call in (
        lambda: calibrate_distance(pair1, [1.0, 1.1], (60.0, 60.5), **{argument: value}),
        lambda: calibrate_depth(pair2, "shallow", [0.268, 0.274], (0.50, 0.55),
                                **{argument: value}),
    ):
        with pytest.raises(TypeError, match=argument):
            call()


def test_calibration_without_levels_reports_infinite_misfit():
    tiny = WellPair(width=1.0, distance=3.0, v_shallow=0.01, v_deep=0.02)
    with pytest.raises(CalibrationError, match=r"solve window \[-0.035, 0.065\] eV") as info:
        calibrate_distance(tiny, [0.015], (3.0, 3.1))
    assert info.value.best.misfit == math.inf


def _misfit_one(levels, targets):
    """The misfit of one candidate, target by target: the reference for the array form."""
    if not levels:
        return math.inf
    nearest = [min(levels, key=lambda e: abs(t - e)) for t in targets]
    return math.sqrt(sum((t - e) ** 2 for t, e in zip(targets, nearest)))


# two targets nearest one level; 94906297 * 2**-52 squared is halfway between
# two doubles, which pow and d * d round apart, and the root keeps the difference
@example(candidates=[[1.0], []], targets=[1.0 + 94906297 * 2.0**-52, 1.0 + 2.0**-52], near=[])
@settings(max_examples=100, deadline=None)
@given(
    candidates=st.lists(st.lists(st.floats(0.0, 2.0), max_size=6), min_size=1, max_size=8),
    targets=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
    near=st.lists(st.integers(1, 2**27), max_size=3),
)
def test_array_misfit_equals_the_one_candidate_form(candidates, targets, near):
    levels = [e for c in candidates for e in c]
    # targets within 2**-25 of one level, all nearest it: t - e keeps at most 27
    # significant bits, so its square can be an exact tie
    targets = targets + [levels[0] + m * 2.0**-52 for m in near if levels]
    counts = np.array([len(c) for c in candidates])
    misfits = eigensolver._misfits(np.array(levels), counts, targets)
    assert misfits.tolist() == [_misfit_one(c, targets) for c in candidates]


# role -> (pair index, parameter value, search range, level window, coarse step):
# the searched parameter of each mode on pairs 1 and 2, and the window whose
# levels the slopes are taken of
SLOPE_CASES = {
    "distance": (0, 60.19, (60.0, 65.0), (1.43, 1.47), 0.01),
    "shallow": (1, 0.524, (0.50, 0.55), (0.26, 0.32), 5e-4),
    "deep": (1, 0.272, (0.25, 0.30), (0.26, 0.32), 5e-4),
}
# role -> the field calibrating it varies: the distance, or the depth not held fixed
FIELDS = {"distance": "distance", "shallow": "v_deep", "deep": "v_shallow"}


def _vary(pair, role):
    """``pair`` as a function of the field that calibrating ``role`` varies."""
    return lambda x: replace(pair, **{FIELDS[role]: x})


@pytest.mark.parametrize("role", SLOPE_CASES)
def test_implicit_level_slopes_match_solved_levels(reference_spec, role):
    index, x, x_range, (e_lo, e_hi), step = SLOPE_CASES[role]
    template, field = reference_spec.pair(index), FIELDS[role]
    make_pair = _vary(template, role)

    def levels(at):
        levels = solve_pair(make_pair(at), e_min=e_lo, e_max=e_hi).levels
        return np.array([lv.energy for lv in levels])

    energies = levels(x)
    h = 1e-2 * step
    solved = (levels(x + h) - levels(x - h)) / (2.0 * h)
    assert np.all(np.abs(solved) > 1e-5)
    h_x, h_e = eigensolver._SLOPE_H * step, eigensolver._SLOPE_H * SolverConfig().grid_step
    slope_steps = (h_x, h_e, CODATA2018)
    central = eigensolver._level_slopes(template, field, x, energies, x_range, *slope_steps)
    np.testing.assert_allclose(central, solved, rtol=1e-6)
    # at either end of the range the stencil turns one-sided
    for one_sided in ((x, x_range[1]), (x_range[0], x)):
        slopes = eigensolver._level_slopes(template, field, x, energies, one_sided,
                                           *slope_steps)
        np.testing.assert_allclose(slopes, solved, rtol=1e-3)


@pytest.mark.parametrize(
    "role, hidden, x_range, window",
    [
        ("distance", 62.0037, (61.0, 63.0), (1.43, 1.47)),
        ("deep", 0.27213, (0.26, 0.28), (0.26, 0.28)),
    ],
)
def test_calibration_recovers_off_grid_hidden_value(pair1, pair2, role, hidden, x_range, window):
    pair = pair1 if role == "distance" else pair2
    targets = [lv.energy for lv in solve_pair(_vary(pair, role)(hidden), e_min=window[0],
                                              e_max=window[1]).levels]
    assert len(targets) == 2
    if role == "distance":
        result, step = calibrate_distance(pair, targets, x_range), 0.01
    else:
        result, step = calibrate_depth(pair, "deep", targets, x_range), 5e-4
    assert abs(result.value - hidden) <= 1e-6 * step
    assert result.misfit < 1e-9


def test_calibration_refines_in_a_few_solves(pair1, monkeypatch):
    batches = []
    solve_batch = eigensolver._solve_batch

    def batching(geometry, *args):
        batches.append(geometry.width.size)
        return solve_batch(geometry, *args)

    monkeypatch.setattr(eigensolver, "_solve_batch", batching)
    result = calibrate_distance(pair1, [1.445, 1.460], (60.0, 60.5))
    assert f"{result.value:.6f}" == "60.188796"
    # one coarse batch of the 51 grid points (the flat targets pass the count
    # screen everywhere), then refinement batches of one pair each; golden
    # section made ~34 solves
    assert batches[0] == 51 and set(batches[1:]) == {1}
    assert 1 < len(batches) <= 1 + 6


def _exhaustive_coarse_best(template, field, targets, x_range, step):
    """The best coarse point of the whole grid solved as one batch, as a CalibrationResult."""
    lo, hi = x_range
    grid = uniform_grid(lo, hi, step).tolist()
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid.append(hi)
    pad = eigensolver._SEARCH_PAD
    batch = eigensolver._solve_batch(eigensolver._Geometry.varied(template, field, grid),
                                     SolverConfig(), min(targets) - pad, max(targets) + pad,
                                     CODATA2018)
    energies = batch.energy[batch.kept]
    counts = np.bincount(batch.owner[batch.kept], minlength=len(grid))
    misfits = eigensolver._misfits(energies, counts, targets)
    b = int(np.argmin(misfits))
    first = int(counts[:b].sum())
    levels = tuple(energies[first : first + counts[b]].tolist())
    return eigensolver.CalibrationResult(value=grid[b], misfit=float(misfits[b]), levels=levels)


# id -> (role, pair index, targets, or the seed of a hidden value drawn from the
# middle of the range whose levels in the window are the targets, range, window)
SCREEN_CASES = {
    # an exact fit on the grid point 60.23; the CI pins its output
    "exact-grid-point": ("distance", 0, [1.4448517161, 1.4599071581], (60.0, 61.0), None),
    # 60.03 alone passes the last rung, with misfit 6.15e-6 eV; 60.02 left at the
    # 5e-6 eV rung, but its misfit, 6.07e-6 eV, is the smallest
    "survivor-wins": ("distance", 0, [1.4448416472, 1.4599365446], (60.0, 61.0), None),
    "distance-seed-1": ("distance", 0, 1, (60.0, 61.0), (1.43, 1.47)),
    "distance-seed-2": ("distance", 0, 2, (61.0, 62.0), (1.43, 1.47)),
    "shallow-seed-1": ("shallow", 1, 1, (0.50, 0.55), (0.26, 0.32)),
    "shallow-seed-2": ("shallow", 1, 2, (0.50, 0.55), (0.26, 0.28)),
    "deep-seed-1": ("deep", 1, 1, (0.25, 0.30), (0.26, 0.32)),
    "deep-seed-2": ("deep", 1, 2, (0.25, 0.30), (0.26, 0.28)),
    # the README's inexact fit, flat at the screen's resolution over 501 points
    "readme-flat": ("distance", 0, [1.445, 1.460], (60.0, 65.0), None),
}


@pytest.mark.parametrize("case", SCREEN_CASES)
def test_calibration_screen_equals_the_exhaustive_search(reference_spec, monkeypatch, case):
    role, index, targets, x_range, window = SCREEN_CASES[case]
    template = reference_spec.pair(index)
    step = 0.01 if role == "distance" else 5e-4
    if window is not None:
        u = np.random.default_rng(targets).uniform(0.2, 0.8)
        hidden = _vary(template, role)(x_range[0] + u * (x_range[1] - x_range[0]))
        targets = [lv.energy for lv in solve_pair(hidden, e_min=window[0],
                                                  e_max=window[1]).levels]
        assert targets

    def calibrate():
        if role == "distance":
            return calibrate_distance(template, targets, x_range)
        return calibrate_depth(template, role, targets, x_range)

    sizes, logged = [], []
    solve_batch, log_calibration = eigensolver._solve_batch, eigensolver._log_calibration

    def batching(geometry, *args):
        sizes.append(geometry.width.size)
        return solve_batch(geometry, *args)

    def log_recording(*args):
        logged.append(args)
        log_calibration(*args)

    monkeypatch.setattr(eigensolver, "_solve_batch", batching)
    monkeypatch.setattr(eigensolver, "_log_calibration", log_recording)
    screened = calibrate()
    ((_, start, points, rungs, solved, _, solves),) = logged
    # the coarse batches come before the refinement solves
    coarse = sizes[: len(sizes) - solves]
    assert sum(coarse) == solved <= points
    assert start == _exhaustive_coarse_best(template, FIELDS[role], targets, x_range, step)
    if case == "exact-grid-point":
        assert points == 101 and solved <= 3 and rungs > 1
        assert f"{screened.value:.6f}" == "60.230000"
    if case == "survivor-wins":
        assert coarse[0] == 1 and len(coarse) == 2 and start.value == 60.02

    # the exhaustive search: every coarse point passes the screen, one batch solves them all
    def passing_all(geometry, *args):
        n = geometry.width.size
        return np.arange(n), np.zeros(n), 0

    monkeypatch.setattr(eigensolver, "_screen", passing_all)
    sizes.clear()
    assert calibrate() == screened
    assert sizes[0] == points


def test_a_count_that_falls_inside_a_screen_window_raises(pair1, monkeypatch):
    # the count of the widest candidate, 60.5 A, falls by three levels from 1.445
    # to 1.5 eV: inside the first rung's window around the target 1.445 eV only,
    # where it proves no bound, so the screen raises rather than drop the candidate
    distance = uniform_grid(60.0, 60.5, 0.01)[-1]
    lo, hi = 1.445 - eigensolver._SEARCH_PAD, 1.445 + eigensolver._SEARCH_PAD
    n_lo, n_hi = count_below(pair_segments(replace(pair1, distance=distance)), np.array([lo, hi]))
    assert n_hi - 3 < n_lo

    def falling(segments, energies, constants):
        widest = np.broadcast_to(segments[0][0], energies.shape) == np.min(segments[0][0])
        dip = widest & (1.445 < energies) & (energies < 1.5)
        return count_below(segments, energies, constants) - 3 * dip

    monkeypatch.setattr(eigensolver, "count_below", falling)
    with pytest.raises(SturmCountError) as error:
        calibrate_distance(pair1, [1.445, 1.460], (60.0, 60.5))
    assert str(error.value) == (
        f"the oscillation count of the pair (width 43.85 A, distance {distance} A, depths "
        f"0.272/1.585 eV) falls from {n_lo} at {lo} eV to {n_hi - 3} at {hi} eV"
    )


# pair index -> a window that holds its doublet
_DOUBLET_WINDOWS = {0: (1.43, 1.47), 1: (0.26, 0.28), 2: (0.43, 0.46)}


@pytest.mark.parametrize("index", sorted(_DOUBLET_WINDOWS))
@pytest.mark.parametrize("role", ["distance", "shallow"])
def test_predicted_cells_change_no_calibration(reference_spec, monkeypatch, index, role):
    # seeded hidden values: the distance within 0.1 A, the deep depth within 0.3%,
    # each inside a 40-step search range; with and without the trials' predictions
    template, field = reference_spec.pair(index), FIELDS[role]
    step = 0.01 if role == "distance" else 5e-4
    solve_batch, predicted = eigensolver._solve_batch, []

    def recording(*args):
        predicted.extend(args[5:])
        return solve_batch(*args)

    def unpredicted(*args):
        return solve_batch(*args[:5])

    def calibrate(targets, x_range, solve):
        monkeypatch.setattr(eigensolver, "_solve_batch", solve)
        try:
            if role == "distance":
                return calibrate_distance(template, targets, x_range, step=step)
            return calibrate_depth(template, role, targets, x_range, step=step)
        except CalibrationError as error:
            return str(error), error.best

    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        x = getattr(template, field)
        hidden = x + rng.uniform(-0.1, 0.1) if role == "distance" else x * (
            1.0 + rng.uniform(-0.003, 0.003))
        lo = hidden - rng.uniform(0.2, 0.8) * 40 * step
        window = _DOUBLET_WINDOWS[index]
        levels = solve_pair(_vary(template, role)(hidden), e_min=window[0], e_max=window[1]).levels
        targets = [lv.energy for lv in levels]
        assert targets
        assert calibrate(targets, (lo, lo + 40 * step), recording) == calibrate(
            targets, (lo, lo + 40 * step), unpredicted)
    assert any(len(p) for p in predicted)


# the CI's exact distance fit and the README's distance and depth fits:
# pair index, role, targets, range and the value the CLI prints
_PRINTED_FITS = {
    "ci-exact": (0, "distance", [1.4448517161, 1.4599071581], (60.0, 61.0), "60.230000"),
    "readme-distance": (0, "distance", [1.445, 1.460], (60.0, 65.0), "60.188796"),
    "readme-depth": (1, "shallow", [0.268, 0.274], (0.50, 0.55), "0.523438"),
}


@pytest.mark.parametrize("fit", _PRINTED_FITS)
def test_each_newton_trial_finds_its_cells_in_one_count_call(reference_spec, monkeypatch, fit):
    index, role, targets, x_range, printed = _PRINTED_FITS[fit]
    cells, trials = eigensolver._cells, []

    def spying(count, *args):
        calls = []

        def counting(*count_args):
            calls.append(1)
            return count(*count_args)

        found = cells(counting, *args)
        if args[5]:  # predicted levels: a Newton trial
            trials.append(len(calls))
        return found

    monkeypatch.setattr(eigensolver, "_cells", spying)
    template = reference_spec.pair(index)
    if role == "distance":
        result = calibrate_distance(template, targets, x_range)
    else:
        result = calibrate_depth(template, role, targets, x_range)
    assert f"{result.value:.6f}" == printed
    assert trials and trials == [1] * len(trials)


def test_calibration_logs_one_debug_record(pair1, caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="wellcascade"):
        calibrate_distance(pair1, [1.445, 1.460], (60.0, 60.5))
    (record,) = caplog.records
    assert record.name == "wellcascade" and record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "best of 51 coarse points distance=60.19" in message
    # the flat targets leave every coarse point passing the screen
    assert "4 screen rungs, 51 coarse points solved" in message
    assert "x=60.19 misfit=" in message and "refinement solves" in message
    assert capsys.readouterr().out == ""


def test_windowed_solve_consistency(pair1):
    full = [lv.energy for lv in solve_pair(pair1).levels]
    windowed = [lv.energy for lv in solve_pair(pair1, e_min=1.40, e_max=1.50).levels]
    expected = [e for e in full if 1.40 <= e <= 1.50]
    assert windowed == pytest.approx(expected, abs=1e-10)


def test_empty_window_is_valid(pair1):
    assert solve_pair(pair1, e_min=1.50, e_max=1.40).levels == ()


def test_level_above_the_last_grid_point_is_found():
    # a level 8.9e-6 eV below the barrier top, above the grid's last point v_deep - step
    pair = WellPair(34.55155007224434, 35.97733132224434, 0.24008508127406605, 1.247388557673338)
    result = solve_pair(pair)
    assert len(result.levels) == count_below(pair_segments(pair), [pair.v_deep])[0] == 9
    assert pair.v_deep - 2e-5 < result.levels[-1].energy < pair.v_deep
    assert result.diagnostics.skipped_intervals == () == result.diagnostics.discarded_candidates
    assert result.diagnostics.grid_points == uniform_grid(2e-5, pair.v_deep - 2e-5, 2e-5).size


def test_level_below_the_first_grid_point_is_found():
    # wells 2000 A wide: the ground state lies below the grid's first point, 2e-5 eV
    pair = WellPair(2000.0, 2100.0, 0.1, 0.2)
    result = solve_pair(pair)
    assert len(result.levels) == count_below(pair_segments(pair), [pair.v_deep])[0] == 249
    assert 0.0 < result.levels[0].energy < 2e-5 < result.levels[1].energy
    assert [lv.index for lv in result.levels] == list(range(249))
    assert result.diagnostics.skipped_intervals == () == result.diagnostics.discarded_candidates


@pytest.mark.parametrize("below, above", [(None, 1e-6), (7e-6, 7e-6)],
                         ids=["window-top", "one-grid-point"])
def test_level_near_a_window_end_is_found(pair1, below, above):
    # a window ending 1e-6 eV above level 10, and one 1.4e-5 eV wide around it
    # with a single grid point: the count at the window's ends holds the level
    level = solve_pair(pair1).levels[10]
    e_min = 1.40 if below is None else level.energy - below
    result = solve_pair(pair1, e_min=e_min, e_max=level.energy + above)
    assert [(lv.energy, lv.bracket) for lv in result.levels] == [(level.energy, level.bracket)]
    assert result.diagnostics.skipped_intervals == ()


def test_diagnostics_populated(pair1):
    result = solve_pair(pair1)
    diag = result.diagnostics
    # the size of the grid the levels are placed on, though it is never built
    assert diag.grid_points == uniform_grid(2e-5, pair1.v_deep - 2e-5, 2e-5).size
    assert diag.sign_changes == len(result.levels) == 13
    assert diag.skipped_intervals == () and diag.discarded_candidates == ()


@pytest.mark.parametrize("index, count", [(2, 12), (3, 16)])
def test_doublet_inside_one_grid_cell_is_found(reference_spec, index, count):
    # at 5e-4 eV one grid cell holds a whole doublet of pair 3 (H-Q) and of
    # the closing pair 4 (Q-P), whose sign changes cancel on the grid
    pair = reference_spec.pair(index)
    coarse = solve_pair(pair, SolverConfig(grid_step=5e-4))
    fine = solve_pair(pair, SolverConfig(grid_step=2e-5))
    assert len(coarse.levels) == len(fine.levels) == count
    assert coarse.diagnostics.skipped_intervals == () == coarse.diagnostics.discarded_candidates
    for mine, ref in zip(coarse.levels, fine.levels):
        assert mine.energy == pytest.approx(ref.energy, abs=1e-12)
        assert mine.residual <= eigensolver._RESIDUAL_TOL
        lo, hi = mine.bracket
        assert lo == hi or np.nextafter(lo, math.inf) == hi
