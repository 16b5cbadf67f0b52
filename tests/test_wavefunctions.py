import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest

from wellcascade.cli import main
from wellcascade.eigensolver import Level, find_levels, solve_pair
from wellcascade.oracle import FdConfig, count_nodes, fd_states
from wellcascade.potential import WellPair, pair_profile, pair_segments
from wellcascade.transcendental import Regime
from wellcascade.wavefunctions import _evaluate, _walk, build_wavefunction, sample_wavefunction

WIDE_DISTANCES = (600.0, 1200.0)


def wide_pair(distance):
    return WellPair(width=43.85, distance=distance, v_shallow=0.272, v_deep=1.585)


@pytest.fixture(scope="module")
def pair1_levels(pair1):
    return find_levels(pair1)


@pytest.fixture(scope="module")
def paper_states(reference_run_config):
    """Every level of paper.cfg pairs 1-4 with its pair and wavefunction."""
    states = []
    for i in range(4):
        pair = reference_run_config.spec.pair(i)
        for level in solve_pair(pair, reference_run_config.solver).levels:
            states.append((pair, level, build_wavefunction(pair, level)))
    return states


def test_wall_residuals_small_for_all_reference_levels(paper_states):
    assert list(Counter(pair for pair, _, _ in paper_states).values()) == [13, 9, 12, 16]
    for _, _, wf in paper_states:
        assert wf.wall_residual < 1e-8


def test_interior_continuity(paper_states):
    for _, _, wf in paper_states:
        scale = max(max(abs(a), abs(b)) for *_, a, b in wf.pieces)
        for x, left, right in zip(wf.region_bounds[1:-1], wf.pieces, wf.pieces[1:]):
            v_left, d_left = _evaluate(left, x)
            v_right, d_right = _evaluate(right, x)
            assert abs(v_left - v_right) <= 1e-8 * scale
            deriv_scale = max(abs(d_left), abs(d_right), scale)
            assert abs(d_left - d_right) <= 1e-8 * deriv_scale


def test_node_count_equals_level_index(paper_states):
    for _, level, wf in paper_states:
        _, psi = sample_wavefunction(wf, 40001)
        assert count_nodes(psi) == level.index


def test_node_count_matches_oracle(pair1, pair1_levels):
    _, _, vectors = fd_states(pair_profile(pair1), 5, FdConfig(grid_points=10001))
    for i, level in enumerate(pair1_levels[:5]):
        wf = build_wavefunction(pair1, level)
        _, psi = sample_wavefunction(wf, 10001)
        assert count_nodes(psi) == count_nodes(vectors[:, i]) == i


def test_regime_a_weight_concentrated_in_deep_well(pair1, pair1_levels):
    level = pair1_levels[0]
    assert level.regime is Regime.A
    wf = build_wavefunction(pair1, level)
    x0, x1, x2, x3 = wf.region_bounds
    xs = np.linspace(x0, x1, 20001)
    shallow_weight = np.trapezoid(wf(xs) ** 2, xs)
    xd = np.linspace(x2, x3, 20001)
    deep_weight = np.trapezoid(wf(xd) ** 2, xd)
    assert shallow_weight < deep_weight


def test_normalization_via_trapezoid(paper_states):
    for _, _, wf in paper_states:
        x, psi = sample_wavefunction(wf, 10001)
        assert np.trapezoid(psi**2, x) == pytest.approx(1.0, abs=1e-3)


def test_first_lobe_positive(paper_states):
    for _, _, wf in paper_states:
        x0, x1 = wf.region_bounds[:2]
        assert wf(x0 + 0.01 * (x1 - x0)) > 0.0


def test_shallow_well_states_of_pair_4_are_built_from_the_right(paper_states):
    pair4 = paper_states[-1][0]
    for wf in [wf for pair, _, wf in paper_states if pair == pair4][7:9]:
        # the walk from the left wall misses the right wall by more than the tolerance
        from_left = _walk(pair_segments(pair4), wf.energy, [piece[2] for piece in wf.pieces])
        assert abs(from_left[-1][0]) > 1e-8 > wf.wall_residual


def test_boundary_samples_agree_from_both_sides(pair1, pair1_levels):
    wf = build_wavefunction(pair1, pair1_levels[3])
    for x, left, right in zip(wf.region_bounds[1:-1], wf.pieces, wf.pieces[1:]):
        value = _evaluate(left, x)[0]
        assert value == pytest.approx(_evaluate(right, x)[0], rel=1e-8)


def test_walls_are_exact_zeros(pair1, pair1_levels):
    wf = build_wavefunction(pair1, pair1_levels[0])
    x, psi = sample_wavefunction(wf, 101)
    assert psi[0] == 0.0 and psi[-1] == 0.0
    assert wf(x[0] - 5.0) == 0.0 and wf(x[-1] + 5.0) == 0.0


def test_correlation_with_oracle_eigenvector(pair1, pair1_levels):
    x, _, vectors = fd_states(pair_profile(pair1), 5, FdConfig(grid_points=10001))
    for i, level in enumerate(pair1_levels[:5]):
        wf = build_wavefunction(pair1, level)
        psi = wf(x)
        r = np.corrcoef(psi, vectors[:, i])[0, 1]
        assert abs(r) > 0.999


def test_non_eigenvalue_rejected(pair1, pair1_levels, paper_states):
    fake = Level(
        energy=pair1_levels[3].energy + 0.01,
        regime=Regime.B,
        residual=0.0,
        bracket=(0.0, 0.0),
        index=3,
    )
    with pytest.raises(ValueError):
        build_wavefunction(pair1, fake)
    # every level of paper.cfg and of the wide pairs, shifted by 1e-8 eV
    shifted = [(pair, level) for pair, level, _ in paper_states]
    for d in WIDE_DISTANCES:
        shifted += [(wide_pair(d), level) for level in find_levels(wide_pair(d))]
    assert len(shifted) == 76
    for pair, level in shifted:
        with pytest.raises(ValueError, match="far-wall residual"):
            build_wavefunction(pair, dataclasses.replace(level, energy=level.energy + 1e-8))


@pytest.mark.parametrize("distance", WIDE_DISTANCES)
def test_wide_barrier_builds_every_level(distance):
    pair = wide_pair(distance)
    levels = find_levels(pair)
    assert len(levels) == 13
    x_fd, _, vectors = fd_states(pair_profile(pair), 13, FdConfig(grid_points=10001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing overflows
        for i, level in enumerate(levels):
            wf = build_wavefunction(pair, level)
            assert np.isfinite([value for piece in wf.pieces for value in piece]).all()
            assert wf.wall_residual < 1e-8
            x, psi = sample_wavefunction(wf, 40001)
            assert np.isfinite(psi).all()
            assert np.trapezoid(psi**2, x) == pytest.approx(1.0, abs=1e-3)
            assert abs(np.corrcoef(wf(x_fd), vectors[:, i])[0, 1]) > 0.999


def test_sampling_validation(pair1, pair1_levels):
    wf = build_wavefunction(pair1, pair1_levels[0])
    with pytest.raises(ValueError):
        sample_wavefunction(wf, 1)


def test_csv_export(tmp_path, pair1, pair1_levels, reference_config_file):
    # The CSV is written by the cli's wavefunction command.
    wf = build_wavefunction(pair1, pair1_levels[2])
    argv = ["wavefunction", "--config", str(reference_config_file), "--output-dir", str(tmp_path),
            "--pair", "1", "--level", "2", "--points", "501"]
    assert main(argv) == 0
    lines = (tmp_path / "wavefunction_PB_2.csv").read_text().strip().splitlines()
    assert lines[0] == "x_A,psi"
    assert len(lines) == 502
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(wf.region_bounds[0])
    assert float(first[1]) == 0.0
