import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from wellcascade import eigensolver, transcendental
from wellcascade.eigensolver import (
    CalibrationError,
    SolverConfig,
    calibrate_depth,
    calibrate_distance,
    find_levels,
    solve_pair,
    uniform_grid,
)
from wellcascade.oracle import FdConfig, fd_levels
from wellcascade.potential import WellPair, pair_profile
from wellcascade.quantities import CODATA2018
from wellcascade.transcendental import characteristic, grid_scan


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
    energies = [lv.energy for lv in find_levels(pair1)]
    assert min(abs(e - 1.445) for e in energies) <= 5e-3
    assert min(abs(e - 1.460) for e in energies) <= 5e-3


def test_pair1_ground_state(pair1):
    ground = find_levels(pair1)[0]
    assert ground.energy == pytest.approx(0.01828, abs=5e-4)


def test_levels_sorted_unique_and_converged(pair1):
    result = solve_pair(pair1)
    energies = [lv.energy for lv in result.levels]
    assert energies == sorted(energies)
    assert len(set(energies)) == len(energies)
    for i, lv in enumerate(result.levels):
        assert lv.index == i
        assert lv.residual <= result.config.residual_tol
        assert lv.bracket[1] - lv.bracket[0] <= result.config.refine_tol


def test_brackets_close_to_adjacent_floats(pair1, pair2, pair3):
    for pair in (pair1, pair2, pair3):
        for lv in find_levels(pair):
            lo, hi = lv.bracket
            assert lo == hi or np.nextafter(lo, math.inf) == hi


def test_strict_residual_tol_discards_every_root(pair1):
    energies = tuple(lv.energy for lv in find_levels(pair1))
    strict = solve_pair(pair1, SolverConfig(residual_tol=1e-300))
    assert strict.levels == ()
    assert strict.diagnostics.discarded_candidates == energies


def test_grid_zero_is_a_level_and_infinite_bracket_is_skipped(monkeypatch):
    pair = WellPair(width=5.0, distance=10.0, v_shallow=0.5, v_deep=1.0)
    config = SolverConfig(grid_step=0.01)
    grid = uniform_grid(0.01, 0.99, 0.01)

    def fake_terms(pair, energies, constants):
        # cleared form (g + 2)*1 - 2*1 = g, exactly 0 at grid[10] and -inf at
        # grid[70], whose neighbours are both positive
        e = np.asarray(energies, dtype=float)
        g = np.where(e == grid[10], 0.0, np.where(e == grid[70], -np.inf, np.sin(37.0 * e + 0.3)))
        one = np.ones_like(e)
        return g + 2.0, one, 2.0 * one, one, e >= pair.shallow_floor

    monkeypatch.setattr(transcendental, "_cleared_terms", fake_terms)
    result = solve_pair(pair, config)
    energies = [lv.energy for lv in result.levels]
    assert energies == sorted(set(energies))
    zero = [lv for lv in result.levels if lv.energy == grid[10]]
    assert len(zero) == 1 and zero[0].residual == 0.0 and zero[0].bracket == (grid[10], grid[10])
    assert result.diagnostics.skipped_intervals == ((grid[69], grid[70]), (grid[70], grid[71]))
    assert result.diagnostics.sign_changes == len(result.levels) - 1


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


def _sign_changes(pair):
    energies = uniform_grid(2e-5, pair.v_deep - 2e-5, 2e-5)
    char = grid_scan(pair, energies).char
    i = np.flatnonzero(char[:-1] * char[1:] < 0.0)
    return [(pair, energies[j], energies[j + 1], char[j]) for j in i]


def test_lockstep_bisection_matches_one_bracket_at_a_time(pair1, pair3):
    one, three = _sign_changes(pair1), _sign_changes(pair3)
    # each pair alone, then both pairs' brackets interleaved in one call
    mixed = [b for both in zip(one, three) for b in both] + one[len(three):] + three[len(one):]
    assert {b[0] for b in mixed} == {pair1, pair3}
    for brackets in (one, three, mixed):
        pairs, lo, hi, f_lo = zip(*brackets)
        geometry = eigensolver._Geometry.of(pairs)
        r_lo, r_hi = eigensolver._bisect(
            geometry, np.array(lo), np.array(hi), np.array(f_lo), CODATA2018
        )
        expected = [_bisect_one(*b) for b in brackets]
        assert list(zip(r_lo.tolist(), r_hi.tolist())) == expected


def test_bisect_collapses_only_the_bracket_with_an_exact_zero(pair1, monkeypatch):
    sizes = []

    def fake(geometry, energies, constants):
        # zero at 0.5, the first midpoint of the first bracket; a jump with no
        # zero at 1.3 inside the second one
        assert geometry.width.shape == energies.shape
        sizes.append(energies.size)
        return np.where(energies < 1.0, energies - 0.5, np.where(energies < 1.3, -1.0, 1.0))

    monkeypatch.setattr(eigensolver, "characteristic", fake)
    lo, hi = eigensolver._bisect(
        eigensolver._Geometry.of([pair1, pair1]),
        np.array([0.0, 1.0]),
        np.array([1.0, 2.0]),
        np.array([-0.5, -1.0]),
        CODATA2018,
    )
    assert (lo[0], hi[0]) == (0.5, 0.5)
    assert lo[1] < 1.3 <= hi[1] and np.nextafter(lo[1], math.inf) == hi[1]
    # one call per halving, on the midpoints of the brackets still open
    assert sizes[0] == 2 and set(sizes[1:]) == {1}


def test_batch_solve_matches_one_solve_at_a_time(pair1):
    # a coarse distance grid around pair 1; the last window is empty (hi <= lo)
    config = SolverConfig()
    requests = [
        (replace(pair1, distance=60.0 + 0.01 * i), config, 1.395, 1.51) for i in range(19)
    ]
    requests.append((pair1, config, 1.51, 1.395))
    batch = eigensolver._solve_all(requests, CODATA2018)
    alone = [solve_pair(p, c, e_min=lo, e_max=hi) for p, c, lo, hi in requests]
    assert batch == alone
    assert batch[-1].diagnostics.grid_points == 0 and batch[-1].levels == ()
    assert all(r.levels for r in batch[:-1])


def test_calibration_cost_follows_refinement_not_coarse_points(pair1, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return characteristic(*args)

    monkeypatch.setattr(eigensolver, "characteristic", counting)
    counts = []
    for l_range in ((60.0, 60.5), (58.0, 63.0)):  # 51 and 501 coarse points
        calls.clear()
        result = calibrate_distance(pair1, [1.445, 1.460], l_range)
        assert result.value == pytest.approx(60.1888, abs=1e-3)
        counts.append(len(calls))
    # one coarse point solved on its own costs ~39 calls
    assert abs(counts[1] - counts[0]) <= 5, counts


def test_oracle_equivalence_on_random_pairs():
    for pair in random_pairs(5, seed=11):
        levels = [lv.energy for lv in find_levels(pair)]
        fd = fd_levels(pair_profile(pair), max(len(levels), 1) + 2, FdConfig(grid_points=10001))
        assert len(fd) == len(levels)
        for mine, ref in zip(levels, fd):
            assert mine == pytest.approx(ref, abs=5e-3)


def test_count_matches_oracle_on_pair1(pair1):
    n = len(find_levels(pair1))
    fd = fd_levels(pair_profile(pair1), n + 3)
    assert len(fd) == n


def test_count_monotone_in_depth():
    counts = []
    for v_deep in (0.3, 0.6, 0.9, 1.2, 1.5, 1.8):
        pair = WellPair(width=20.0, distance=30.0, v_shallow=0.2, v_deep=v_deep)
        counts.append(len(find_levels(pair)))
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_no_bound_state_for_tiny_well():
    pair = WellPair(width=1.0, distance=3.0, v_shallow=0.01, v_deep=0.02)
    assert find_levels(pair) == []
    fd = fd_levels(pair_profile(pair), 1, FdConfig(grid_points=2001))
    assert fd == []


def test_monotone_discovery_under_grid_refinement(pair1):
    coarse = [lv.energy for lv in find_levels(pair1, SolverConfig(grid_step=4e-5))]
    fine = [lv.energy for lv in find_levels(pair1, SolverConfig(grid_step=2e-5))]
    assert len(fine) >= len(coarse)
    for e in coarse:
        assert min(abs(e - f) for f in fine) < 1e-8


def test_near_degenerate_doublet_resolved(pair3):
    # pair 3 carries the narrowest doublet (~1.5e-4 eV, under 10 grid steps)
    levels = [lv.energy for lv in find_levels(pair3, e_min=0.42, e_max=0.47)]
    assert len(levels) == 2
    splitting = levels[1] - levels[0]
    assert 0.0 < splitting < 10 * SolverConfig().grid_step


def test_max_levels_truncation(pair1):
    levels = find_levels(pair1, SolverConfig(max_levels=3))
    assert len(levels) == 3
    assert [lv.index for lv in levels] == [0, 1, 2]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grid_step=1e-9, refine_tol=1e-9)
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_levels=-1)


def test_calibrate_distance_reference_pair(pair1):
    result = calibrate_distance(pair1, [1.445, 1.460], (60.0, 65.0))
    assert 60.0 <= result.value <= 65.0
    assert result.misfit < 5e-3
    for target in (1.445, 1.460):
        assert min(abs(e - target) for e in result.levels) < 5e-3


def test_calibrate_distance_fixed_point(pair1):
    at_mid = replace(pair1, distance=62.0)
    targets = [lv.energy for lv in find_levels(at_mid, e_min=1.43, e_max=1.47)]
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


def test_calibration_without_levels_reports_infinite_misfit():
    tiny = WellPair(width=1.0, distance=3.0, v_shallow=0.01, v_deep=0.02)
    with pytest.raises(CalibrationError) as info:
        calibrate_distance(tiny, [0.015], (3.0, 3.1))
    assert info.value.best.misfit == math.inf


# role -> (pair index, parameter value, search range, level window, coarse step):
# the searched parameter of each mode on pairs 1 and 2, and the window whose
# levels the slopes are taken of
SLOPE_CASES = {
    "distance": (0, 60.19, (60.0, 65.0), (1.43, 1.47), 0.01),
    "shallow": (1, 0.524, (0.50, 0.55), (0.26, 0.32), 5e-4),
    "deep": (1, 0.272, (0.25, 0.30), (0.26, 0.32), 5e-4),
}


def _vary(pair, role):
    """``make_pair`` of calibrating ``pair``: the distance, or the depth not held fixed."""
    field = {"distance": "distance", "shallow": "v_deep", "deep": "v_shallow"}[role]
    return lambda x: replace(pair, **{field: x})


@pytest.mark.parametrize("role", SLOPE_CASES)
def test_implicit_level_slopes_match_solved_levels(reference_spec, role):
    index, x, x_range, (e_lo, e_hi), step = SLOPE_CASES[role]
    make_pair = _vary(reference_spec.pair(index), role)

    def levels(at):
        return np.array([lv.energy for lv in find_levels(make_pair(at), e_min=e_lo, e_max=e_hi)])

    energies = levels(x)
    h = 1e-2 * step
    solved = (levels(x + h) - levels(x - h)) / (2.0 * h)
    assert np.all(np.abs(solved) > 1e-5)
    h_x, h_e = eigensolver._SLOPE_H * step, eigensolver._SLOPE_H * SolverConfig().grid_step
    slope_steps = (h_x, h_e, CODATA2018)
    central = eigensolver._level_slopes(make_pair, x, energies, x_range, *slope_steps)
    np.testing.assert_allclose(central, solved, rtol=1e-6)
    # at either end of the range the stencil turns one-sided
    for one_sided in ((x, x_range[1]), (x_range[0], x)):
        slopes = eigensolver._level_slopes(make_pair, x, energies, one_sided, *slope_steps)
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
    targets = [lv.energy for lv in find_levels(_vary(pair, role)(hidden), e_min=window[0],
                                               e_max=window[1])]
    assert len(targets) == 2
    if role == "distance":
        result, step = calibrate_distance(pair, targets, x_range), 0.01
    else:
        result, step = calibrate_depth(pair, "deep", targets, x_range), 5e-4
    assert abs(result.value - hidden) <= 1e-6 * step
    assert result.misfit < 1e-9


def test_calibration_refines_in_a_few_solves(pair1, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_pair(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "solve_pair", counting)
    result = calibrate_distance(pair1, [1.445, 1.460], (60.0, 60.5))
    assert f"{result.value:.6f}" == "60.188796"
    # the coarse batch makes no solve_pair call; golden section made ~34
    assert len(calls) <= 6


def test_calibration_logs_one_debug_record(pair1, caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="wellcascade"):
        calibrate_distance(pair1, [1.445, 1.460], (60.0, 60.5))
    (record,) = caplog.records
    assert record.name == "wellcascade" and record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "best of 51 coarse points distance=60.19" in message
    assert "x=60.19 misfit=" in message and "refinement solves" in message
    assert capsys.readouterr().out == ""


def test_windowed_solve_consistency(pair1):
    full = [lv.energy for lv in find_levels(pair1)]
    windowed = [lv.energy for lv in find_levels(pair1, e_min=1.40, e_max=1.50)]
    expected = [e for e in full if 1.40 <= e <= 1.50]
    assert windowed == pytest.approx(expected, abs=1e-10)


def test_empty_window_is_valid(pair1):
    assert find_levels(pair1, e_min=1.50, e_max=1.40) == []


def test_diagnostics_populated(pair1):
    result = solve_pair(pair1)
    diag = result.diagnostics
    assert diag.grid_points > 0
    assert diag.sign_changes >= len(result.levels)
    assert math.isfinite(float(diag.pole_points))
