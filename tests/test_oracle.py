import math

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wellcascade import oracle
from wellcascade.eigensolver import SolverConfig, solve_pair
from wellcascade.oracle import FdConfig, count_nodes, fd_solve, fd_states
from wellcascade.potential import PotentialProfile, WellPair, cascade_profile, pair_profile
from wellcascade.quantities import CODATA2018
from wellcascade.transcendental import count_below


# the reference pair 1 with its wells 1200 A apart
LONG_PAIR = WellPair(width=43.85, distance=1200.0, v_shallow=0.272, v_deep=1.585)


def box_profile(width=43.85):
    """Hard-wall box: the infinite-well limit."""
    return PotentialProfile(((0.0, width, 0.0),))


def symmetric_double_well(barrier_width, depth=0.5, width=20.0):
    """Equal-depth double well, buildable here though the pair solver forbids it."""
    return PotentialProfile(
        (
            (0.0, width, 0.0),
            (width, width + barrier_width, depth),
            (width + barrier_width, 2.0 * width + barrier_width, 0.0),
        )
    )


def test_flat_box_counts_nothing_as_bound():
    # a flat box has no barrier to stay below: every eigenvalue is filtered out
    result = fd_solve(box_profile(), 3, FdConfig(grid_points=10001))
    assert result.levels == () and result.truncated


def test_infinite_well_ground_state_via_deep_well():
    # deep single well (depth far above the target levels) approximates the box;
    # barrier penetration ~1/kappa widens the well by 2/(f*sqrt(V)), so V=1e5
    # keeps the leak below 0.1%
    a = 43.85
    profile = PotentialProfile(((-5.0, 0.0, 1e5), (0.0, a, 0.0), (a, a + 5.0, 1e5)))
    levels = fd_solve(profile, 3, FdConfig(grid_points=20001)).levels
    factor = CODATA2018.wavenumber_factor
    for n, e in enumerate(levels, start=1):
        exact = (n * math.pi / (factor * a)) ** 2
        assert e == pytest.approx(exact, rel=5e-3)
    assert levels[0] == pytest.approx(0.01956, rel=5e-3)


def test_cascade_profile_contains_global_ground(reference_spec):
    levels = fd_solve(cascade_profile(reference_spec), 4).levels
    assert min(abs(e - 0.0183) for e in levels) < 1e-3


def test_step_halving_convergence(pair1):
    profile = pair_profile(pair1)
    reference = [lv.energy for lv in solve_pair(pair1).levels]
    n = len(reference)
    coarse = np.array(fd_solve(profile, n, FdConfig(grid_points=5001)).levels)
    mid = np.array(fd_solve(profile, n, FdConfig(grid_points=10003)).levels)
    fine = np.array(fd_solve(profile, n, FdConfig(grid_points=20007)).levels)
    ref = np.array(reference)
    assert np.max(np.abs(mid - ref)) < 1e-4
    assert np.max(np.abs(fine - mid)) < 1e-4
    # second-order convergence: error shrinks ~4x per halving
    err_coarse = np.max(np.abs(coarse - ref))
    err_mid = np.max(np.abs(mid - ref))
    err_fine = np.max(np.abs(fine - ref))
    assert 2.5 < err_coarse / err_mid < 6.5
    assert 2.5 < err_mid / err_fine < 6.5


def test_splitting_of_reference_pair(pair1):
    levels = solve_pair(pair1).levels
    energies = [lv.energy for lv in levels]
    i = min(range(len(energies)), key=lambda j: abs(energies[j] - 1.445))
    j = min(range(len(energies)), key=lambda k: abs(energies[k] - 1.460))
    fd = fd_solve(pair_profile(pair1), j + 1).levels
    split = fd[j] - fd[i]
    assert split == pytest.approx(0.015, rel=0.3)
    assert split == pytest.approx(energies[j] - energies[i], rel=0.05)


def test_symmetric_well_splitting_shrinks_with_barrier():
    narrow = symmetric_double_well(4.0)
    wide = symmetric_double_well(8.0)
    config = FdConfig(grid_points=10001)
    e_narrow = fd_solve(narrow, 2, config).levels
    e_wide = fd_solve(wide, 2, config).levels
    s_narrow = e_narrow[1] - e_narrow[0]
    s_wide = e_wide[1] - e_wide[0]
    assert s_narrow > s_wide > 0.0


def test_extrapolated_splitting_within_error_estimate(pair3):
    profile = pair_profile(pair3)
    energies = [lv.energy for lv in solve_pair(pair3).levels]
    i = min(range(len(energies)), key=lambda j: abs(energies[j] - 0.4432))
    plain = fd_solve(profile, i + 2, FdConfig(grid_points=10001))
    rich = fd_solve(profile, i + 2, FdConfig(grid_points=10001, extrapolate=True))
    assert rich.error_estimates is not None
    s_plain = plain.levels[i + 1] - plain.levels[i]
    s_rich = rich.levels[i + 1] - rich.levels[i]
    # each estimate is |fine - coarse| = 3/4 of the coarse error for clean h^2,
    # so 4/3 of their sum bounds the coarse splitting error
    budget = (4.0 / 3.0) * (rich.error_estimates[i] + rich.error_estimates[i + 1])
    assert abs(s_plain - s_rich) <= budget + 1e-9
    # the extrapolated splitting is closer to the solver's value
    exact = energies[i + 1] - energies[i]
    assert abs(s_rich - exact) <= abs(s_plain - exact) + 1e-10


def test_levels_ascending_and_bounded(pair1):
    result = fd_solve(pair_profile(pair1), 10)
    levels = list(result.levels)
    assert levels == sorted(levels)
    assert all(e < pair_profile(pair1).max_value() for e in levels)


def test_truncation_flag(pair1):
    result = fd_solve(pair_profile(pair1), 50)
    assert result.truncated
    assert all(e < pair1.v_deep for e in result.levels)


def test_node_counts_match_level_index(pair1):
    x, energies, vectors = fd_states(pair_profile(pair1), 5)
    del x
    assert energies.size == 5
    for i in range(5):
        assert count_nodes(vectors[:, i]) == i


def test_eigenvector_normalisation(pair1):
    profile = pair_profile(pair1)
    x, _, vectors = fd_states(profile, 3)
    h = x[1] - x[0]
    for i in range(vectors.shape[1]):
        assert h * float(np.sum(vectors[:, i] ** 2)) == pytest.approx(1.0, rel=1e-12)


def test_grid_ends_at_the_hard_walls(pair1):
    profile = pair_profile(pair1)
    x, _, _ = fd_states(profile, 1, FdConfig(grid_points=2001))
    x_min, x_max = profile.segments[0][0], profile.segments[-1][1]
    h = (x_max - x_min) / 2002
    assert x[0] == pytest.approx(x_min + h, rel=1e-12)
    assert x[-1] == pytest.approx(x_max - h, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        FdConfig(grid_points=1000)  # even
    with pytest.raises(ValueError):
        FdConfig(grid_points=999)  # too small


def test_invalid_requests(pair1):
    profile = pair_profile(pair1)
    with pytest.raises(ValueError):
        fd_solve(profile, 0)


def _bound_count(profile, grid_points=20001):
    _, _, diag, off = oracle._tridiagonal(profile, grid_points, CODATA2018)
    return oracle._bound_count(diag, off, profile.max_value(), oracle._gershgorin(diag, off)[0])


@pytest.mark.parametrize("index", range(4))
def test_bound_count_equals_solver_level_count(reference_spec, index):
    pair = reference_spec.pair(index)
    count = _bound_count(pair_profile(pair))
    assert count == len(solve_pair(pair, SolverConfig(grid_step=2e-5)).levels)


@pytest.mark.parametrize("index", range(4))
def test_count_below_is_exact_beside_every_oracle_level(reference_spec, index):
    segments = pair_profile(reference_spec.pair(index)).segments
    levels = np.array(fd_solve(pair_profile(reference_spec.pair(index)), 20).levels)
    n = np.arange(levels.size)
    assert np.array_equal(count_below(segments, levels - 1e-5), n)
    assert np.array_equal(count_below(segments, levels + 1e-5), n + 1)


def test_count_below_counts_the_chain_like_the_oracle(reference_spec):
    profile = cascade_profile(reference_spec)
    top = np.nextafter(profile.max_value(), 0.0)
    assert count_below(profile.segments, [top]).tolist() == [_bound_count(profile)] == [26]


# a level 8.9e-6 eV below the barrier top, above the solver grid's last point
@example(width=34.55155007224434, barrier=1.42578125, v_deep=1.247388557673338,
         share=0.19247016480725068)
@settings(max_examples=25, deadline=None)
@given(
    width=st.floats(5.0, 50.0),
    barrier=st.floats(0.5, 20.0),
    v_deep=st.floats(0.3, 2.0),
    share=st.floats(0.1, 0.9),
)
def test_count_solver_and_oracle_agree_on_random_pairs(width, barrier, v_deep, share):
    pair = WellPair(width=width, distance=width + barrier, v_shallow=share * v_deep, v_deep=v_deep)
    segments = pair_profile(pair).segments
    count, below_margin = count_below(segments, [pair.v_deep, pair.v_deep - 1e-4])
    assert len(solve_pair(pair).levels) == count
    # a level within the oracle's discretisation error of the barrier top may
    # fall on either side of it there
    assume(below_margin == count)
    assert count == _bound_count(pair_profile(pair))


def _long_double_levels(diag, off, top, lo, hi, rounds=16):
    """The lowest ``top`` eigenvalues of the stored matrix, by a long-double
    Sturm count over every row: 16 sections per bracket per round."""
    d, c2 = diag.astype(np.longdouble), np.longdouble(off[0]) ** 2
    k = np.arange(top)
    lo = np.full(top, lo, dtype=np.longdouble)
    hi = np.full(top, hi, dtype=np.longdouble)
    rows = np.arange(top)
    for _ in range(rounds):
        ends = lo[:, None] + (hi - lo)[:, None] * (np.arange(17) / np.longdouble(16))
        sigma = ends[:, 1:-1]
        q = d[0] - sigma
        count = (q < 0).astype(int)
        for entry in d[1:]:
            q = (entry - sigma) - c2 / np.where(q == 0, -1e-300, q)
            count += q < 0
        t = np.count_nonzero(count <= k[:, None], axis=1)
        lo, hi = ends[rows, t], ends[rows, t + 1]
    return 0.5 * (lo + hi)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is plain double"
)
@pytest.mark.parametrize("index", range(4))
def test_levels_match_a_long_double_bisection_of_the_matrix(reference_spec, index):
    profile = pair_profile(reference_spec.pair(index))
    config = FdConfig(grid_points=2001)
    levels = np.array(fd_solve(profile, 40, config).levels)
    _, _, diag, off = oracle._tridiagonal(profile, config.grid_points, CODATA2018)
    reference = _long_double_levels(
        diag, off, levels.size, oracle._gershgorin(diag, off)[0], profile.max_value()
    )
    assert np.max(np.abs(levels - reference)) <= 1e-12


@pytest.mark.parametrize("extra", [-3, 0, 4])
def test_levels_within_stebz_tolerance_at_every_request(pair1, extra):
    from scipy.linalg import eigh_tridiagonal

    profile = pair_profile(pair1)
    _, _, diag, off = oracle._tridiagonal(profile, 20001, CODATA2018)
    n = _bound_count(profile)
    result = fd_solve(profile, n + extra)
    assert len(result.levels) == min(n, n + extra) and result.truncated == (extra > 0)
    # stebz bisecting far below its default tolerance ulp * ||T|| stops at the
    # rounding of its own Sturm count, about that tolerance; the levels agree
    # with it to a quarter of it
    tolerance = np.finfo(float).eps * (float(np.max(diag)) + 2.0 * abs(off[0]))
    converged = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, len(result.levels) - 1), eigvals_only=True,
        tol=1e-3 * tolerance,
    )
    assert np.max(np.abs(np.array(result.levels) - converged)) <= tolerance / 4.0


def test_cells_inside_one_segment_take_its_value(reference_spec):
    for profile in (cascade_profile(reference_spec), pair_profile(LONG_PAIR)):
        x, h, diag, off = oracle._tridiagonal(profile, 20001, CODATA2018)
        starts, ends, values = np.array(profile.segments).T
        edges = np.append(starts, ends[-1])
        averages = oracle._cell_averaged_potential(edges, values, x, h)
        left = np.searchsorted(edges, x - 0.5 * h, side="right") - 1
        right = np.searchsorted(edges, x + 0.5 * h, side="left") - 1
        inside = left == right
        assert np.array_equal(averages[inside], values[left[inside]])
        # the rest straddle one breakpoint each and lie between its two values
        assert np.array_equal(right[~inside] - left[~inside], [1] * (len(profile.segments) - 1))
        low = np.minimum(values[left[~inside]], values[right[~inside]])
        high = np.maximum(values[left[~inside]], values[right[~inside]])
        assert np.all((low <= averages[~inside]) & (averages[~inside] <= high))
        # so the matrix is one run per segment and one per straddling cell
        assert len(oracle._runs(diag, off)[0]) == 2 * len(values) - 1


# the middle energy ends a run's phase within rounding of a multiple of pi
@example(width=5.0, barrier=1.5, v_deep=1.0, share=0.5, half_rows=1322, fractions=[0.5])
@settings(max_examples=30, deadline=None)
@given(
    width=st.floats(5.0, 50.0),
    barrier=st.floats(0.5, 3000.0),
    v_deep=st.floats(0.3, 2.0),
    share=st.floats(0.1, 0.9),
    half_rows=st.integers(500, 10000),
    fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1,
                       max_size=6),
)
def test_closed_form_count_equals_lapack(width, barrier, v_deep, share, half_rows, fractions):
    pair = WellPair(width=width, distance=width + barrier, v_shallow=share * v_deep, v_deep=v_deep)
    _, _, diag, off = oracle._tridiagonal(pair_profile(pair), 2 * half_rows + 1, CODATA2018)
    floor, ceiling = oracle._gershgorin(diag, off)
    # around the bound levels, over the whole spectrum, and at its top, where
    # the wells' runs are in the alternating regime E - V >= 4c
    energies = [f * 1.2 * v_deep for f in fractions]
    energies += [floor + f * (ceiling - floor) for f in fractions]
    energies += [ceiling - f * 1.2 * v_deep for f in fractions]
    counts = oracle._sturm_count(oracle._runs(diag, off), energies)
    assert counts.tolist() == [oracle._bound_count(diag, off, e, floor) for e in energies]


def test_sturm_count_is_the_same_whatever_the_order_and_shape_of_its_energies(reference_spec):
    # the count sorts its energies and takes each run's regimes as slices:
    # every arrangement of one set of energies must give each the count it
    # gets alone, at both regime boundaries of every run and the Gershgorin ends
    rng = np.random.default_rng(11)
    for profile in (pair_profile(reference_spec.pair(0)), cascade_profile(reference_spec)):
        _, _, diag, off = oracle._tridiagonal(profile, 1001, CODATA2018)
        runs = oracle._runs(diag, off)
        values, _, c = runs
        floor, ceiling = oracle._gershgorin(diag, off)
        energies = np.concatenate(
            [values, values + 4.0 * c, [floor, ceiling], rng.uniform(floor, ceiling, 30)]
        )
        energies = energies[: 2 * (energies.size // 2)]
        alone = np.array([oracle._sturm_count(runs, [e])[0] for e in energies])
        shuffled = rng.permutation(energies.size)
        twice = rng.permutation(np.tile(np.arange(energies.size), 2))
        for which in (shuffled, shuffled[::-1], twice):
            assert np.array_equal(oracle._sturm_count(runs, energies[which]), alone[which])
        square = shuffled.reshape(2, -1)
        counts = oracle._sturm_count(runs, energies[square])
        assert counts.shape == square.shape and np.array_equal(counts, alone[square])


def test_alternating_runs_count_like_lapack():
    # 1001 rows over 4000 A: 4c is ~0.1 eV, so most energies below the barrier
    # top are 4c or more above the wells' floors
    pair = WellPair(width=40.0, distance=3960.0, v_shallow=0.5, v_deep=1.5)
    profile = pair_profile(pair)
    _, _, diag, off = oracle._tridiagonal(profile, 1001, CODATA2018)
    values, _, c = runs = oracle._runs(diag, off)
    energies = np.linspace(0.01, 1.49, 60)
    assert np.any(energies - values.min() >= 4.0 * c)
    counts = oracle._sturm_count(runs, energies)
    floor = oracle._gershgorin(diag, off)[0]
    assert counts.tolist() == [oracle._bound_count(diag, off, e, floor) for e in energies]
    levels = np.array(fd_solve(profile, 1000, FdConfig(grid_points=1001)).levels)
    assert levels.size == _bound_count(profile, 1001) and np.all(np.diff(levels) > 0.0)


@pytest.mark.filterwarnings("error")
def test_long_barriers_and_the_chain_count_like_lapack(reference_spec):
    # over the 1200 A pair's barrier a row's decay compounds to exp(~725)
    for profile, count in ((pair_profile(LONG_PAIR), 13), (cascade_profile(reference_spec), 26)):
        result = fd_solve(profile, 400)
        assert len(result.levels) == _bound_count(profile) == count
        assert np.all(np.isfinite(result.levels))
        _, energies, vectors = fd_states(profile, 400)
        assert tuple(energies.tolist()) == result.levels and np.all(np.isfinite(vectors))


def test_a_count_that_disagrees_with_lapack_names_the_energy(pair1, monkeypatch):
    profile = pair_profile(pair1)
    real = oracle._bound_count
    monkeypatch.setattr(oracle, "_bound_count", lambda *args: real(*args) + 1)
    with pytest.raises(oracle.SturmCountError, match=f"E = {profile.max_value()!r} eV"):
        fd_solve(profile, 4, FdConfig(grid_points=2001))


def test_a_level_within_lapack_rounding_of_the_top_passes_the_certificate():
    # the third level crosses the barrier top near 0.5058026829924528 eV; within
    # LAPACK's own count rounding of it the two counts differ, and the closed
    # form's count stands when it lies between LAPACK's counts at top -/+ 4 eps ||T||
    counts, disagree = set(), 0
    for j in range(-400, 400):
        top = 0.5058026829924528 + j * 2e-14
        profile = PotentialProfile(((-5.0, 0.0, top), (0.0, 20.0, 0.0), (20.0, 25.0, top)))
        _, _, diag, off, _, bound, (floor, _) = oracle._grid(profile, 1001, CODATA2018)
        counts.add(bound)
        disagree += bound != oracle._bound_count(diag, off, top, floor)
    assert counts == {2, 3} and disagree > 0


def test_no_bound_state_skips_the_eigensolve(monkeypatch):
    import scipy.linalg

    real, selects = scipy.linalg.eigh_tridiagonal, []

    def recording(*args, **kwargs):
        selects.append(kwargs["select"])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
    config = FdConfig(grid_points=10001)
    assert fd_solve(box_profile(), 3, config) == oracle.FdResult(levels=(), truncated=True)
    x, energies, vectors = fd_states(box_profile(), 3, config)
    assert energies.size == 0 and vectors.shape == (x.size, 0)
    assert selects == ["v", "v"]


def test_extrapolation_beyond_the_coarse_grid_is_truncated(pair1):
    # more levels than the coarse grid has rows: each grid was once solved over
    # its own index range, and the two did not broadcast
    result = fd_solve(pair_profile(pair1), 1500, FdConfig(grid_points=1001, extrapolate=True))
    assert result.truncated
    assert len(result.error_estimates) == len(result.levels) > 0


def test_extrapolation_solves_both_grids_over_the_larger_count():
    # the third level sits just below the barrier top on the coarse grid and
    # just above it on the fine one, so the two grids count differently
    top = 0.505804
    profile = PotentialProfile(((-5.0, 0.0, top), (0.0, 20.0, 0.0), (20.0, 25.0, top)))
    assert [_bound_count(profile, n) for n in (1001, 2003)] == [3, 2]
    result = fd_solve(profile, 5, FdConfig(grid_points=1001, extrapolate=True))
    assert result.truncated
    assert len(result.error_estimates) == len(result.levels) >= 2


def test_extrapolation_above_the_bound_count_keeps_shapes(pair1):
    profile = pair_profile(pair1)
    config = FdConfig(grid_points=5001, extrapolate=True)
    n = len(fd_solve(profile, 50, FdConfig(grid_points=5001)).levels)
    within = fd_solve(profile, n, config)
    above = fd_solve(profile, n + 4, config)
    assert not within.truncated and above.truncated
    assert len(above.levels) == len(above.error_estimates) == n
    np.testing.assert_allclose(above.levels, within.levels, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(above.error_estimates, within.error_estimates, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("extra", [-3, 0, 4])
def test_states_share_the_capped_index_range(pair1, extra):
    profile = pair_profile(pair1)
    config = FdConfig(grid_points=10001)
    n = _bound_count(profile, config.grid_points) + extra
    levels = fd_solve(profile, n, config).levels
    _, energies, vectors = fd_states(profile, n, config)
    assert tuple(energies.tolist()) == levels  # bit for bit
    assert vectors.shape[1] == len(levels)
