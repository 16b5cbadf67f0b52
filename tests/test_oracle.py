import math

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellcascade import oracle
from wellcascade.eigensolver import SolverConfig, find_levels, solve_pair
from wellcascade.oracle import FdConfig, count_nodes, fd_solve, fd_states
from wellcascade.potential import PotentialProfile, WellPair, cascade_profile, pair_profile
from wellcascade.quantities import CODATA2018
from wellcascade.transcendental import count_below


def box_profile(width=43.85):
    """Hard-wall box: the infinite-well limit."""
    return PotentialProfile(breakpoints=(), segment_values=(0.0,), x_min=0.0, x_max=width)


def symmetric_double_well(barrier_width, depth=0.5, width=20.0):
    """Equal-depth double well, buildable here though the pair solver forbids it."""
    return PotentialProfile(
        breakpoints=(width, width + barrier_width),
        segment_values=(0.0, depth, 0.0),
        x_min=0.0,
        x_max=2.0 * width + barrier_width,
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
    profile = PotentialProfile(
        breakpoints=(0.0, a), segment_values=(1e5, 0.0, 1e5), x_min=-5.0, x_max=a + 5.0
    )
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
    reference = [lv.energy for lv in find_levels(pair1)]
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
    levels = find_levels(pair1)
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
    energies = [lv.energy for lv in find_levels(pair3)]
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
    h = (profile.x_max - profile.x_min) / 2002
    assert x[0] == pytest.approx(profile.x_min + h, rel=1e-12)
    assert x[-1] == pytest.approx(profile.x_max - h, rel=1e-12)


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
    return oracle._bound_count(diag, off, profile.max_value())


@pytest.mark.parametrize("index", range(4))
def test_bound_count_equals_solver_level_count(reference_spec, index):
    pair = reference_spec.pair(index)
    count = _bound_count(pair_profile(pair))
    assert count == len(solve_pair(pair, SolverConfig(grid_step=2e-5)).levels)


@pytest.mark.parametrize("index", range(4))
def test_count_below_is_exact_beside_every_oracle_level(reference_spec, index):
    segments = pair_profile(reference_spec.pair(index)).segments()
    levels = np.array(fd_solve(pair_profile(reference_spec.pair(index)), 20).levels)
    n = np.arange(levels.size)
    assert np.array_equal(count_below(segments, levels - 1e-5), n)
    assert np.array_equal(count_below(segments, levels + 1e-5), n + 1)


def test_count_below_counts_the_chain_like_the_oracle(reference_spec):
    profile = cascade_profile(reference_spec)
    top = np.nextafter(profile.max_value(), 0.0)
    assert count_below(profile.segments(), [top]).tolist() == [_bound_count(profile)] == [26]


@settings(max_examples=25, deadline=None)
@given(
    width=st.floats(5.0, 50.0),
    barrier=st.floats(0.5, 20.0),
    v_deep=st.floats(0.3, 2.0),
    share=st.floats(0.1, 0.9),
)
def test_count_solver_and_oracle_agree_on_random_pairs(width, barrier, v_deep, share):
    pair = WellPair(width=width, distance=width + barrier, v_shallow=share * v_deep, v_deep=v_deep)
    step = SolverConfig().grid_step
    segments = pair_profile(pair).segments()
    below_step, below_top, below_margin = count_below(
        segments, [step, pair.v_deep - step, pair.v_deep - 1e-4]
    )
    # a level within the oracle's discretisation error of the barrier top may
    # fall on either side of it there
    assume(below_margin == below_top)
    count = below_top - below_step
    assert count == len(solve_pair(pair).levels) == _bound_count(pair_profile(pair))


def test_requests_within_the_count_make_the_uncapped_call(pair1):
    from scipy.linalg import eigh_tridiagonal

    profile = pair_profile(pair1)
    _, _, diag, off = oracle._tridiagonal(profile, 20001, CODATA2018)
    n = _bound_count(profile)

    def by_index(top, tol=0.0):
        return eigh_tridiagonal(
            diag, off, select="i", select_range=(0, top - 1), eigvals_only=True, tol=tol
        )

    for request in (1, n):
        result = fd_solve(profile, request)
        assert result.levels == tuple(by_index(request).tolist()) and not result.truncated
    # above the count, the box artifacts are never bisected; the bound levels
    # converge to a quarter of stebz's default tolerance ulp * ||T||, so they
    # stay within 1e-10 eV of the uncapped call's
    uncapped = by_index(n + 4)
    capped = fd_solve(profile, n + 4)
    assert capped.truncated and len(capped.levels) == n
    assert np.all(uncapped[n:] >= profile.max_value())
    assert np.max(np.abs(np.array(capped.levels) - uncapped[:n])) <= 1e-10
    tolerance = np.finfo(float).eps * (float(np.max(diag)) + 2.0 * abs(off[0]))
    converged = by_index(n, tol=1e-3 * tolerance)
    assert np.max(np.abs(np.array(capped.levels) - converged)) <= tolerance / 4.0


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
    profile = PotentialProfile(
        breakpoints=(0.0, 20.0), segment_values=(top, 0.0, top), x_min=-5.0, x_max=25.0
    )
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
