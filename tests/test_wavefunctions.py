import numpy as np
import pytest

from wellcascade.cli import main
from wellcascade.eigensolver import Level, find_levels
from wellcascade.oracle import FdConfig, count_nodes, fd_states
from wellcascade.potential import WellPair, pair_profile
from wellcascade.transcendental import Regime
from wellcascade.wavefunctions import _value_slope, build_wavefunction, sample_wavefunction


@pytest.fixture(scope="module")
def pair1_levels(pair1):
    return find_levels(pair1)


def lowest_five(pair):
    return find_levels(pair)[:5]


def test_wall_residuals_small_for_all_reference_levels(pair1, pair2, pair3):
    for pair in (pair1, pair2, pair3):
        for level in find_levels(pair):
            wf = build_wavefunction(pair, level)
            assert wf.wall_residual < 1e-8


def test_interior_continuity(pair1, pair1_levels):
    for level in pair1_levels[:5]:
        wf = build_wavefunction(pair1, level)
        _, x1, x2, _ = wf.region_bounds
        scale = max(abs(wf.d1), abs(wf.d2))
        for x, left, right in ((x1, 2, 3), (x2, 3, 4)):
            v_left, d_left = _value_slope(*wf._region(left), x)
            v_right, d_right = _value_slope(*wf._region(right), x)
            assert abs(v_left - v_right) <= 1e-8 * scale
            deriv_scale = max(abs(d_left), abs(d_right), scale)
            assert abs(d_left - d_right) <= 1e-8 * deriv_scale


def test_node_count_equals_level_index(pair1, pair2, pair3):
    for pair in (pair1, pair2, pair3):
        for level in lowest_five(pair):
            wf = build_wavefunction(pair, level)
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


def test_normalization_via_trapezoid(pair1, pair1_levels):
    for level in pair1_levels[:5]:
        wf = build_wavefunction(pair1, level)
        x, psi = sample_wavefunction(wf, 10001)
        assert np.trapezoid(psi**2, x) == pytest.approx(1.0, abs=1e-3)


def test_first_lobe_positive(pair1, pair1_levels):
    for level in pair1_levels[:5]:
        wf = build_wavefunction(pair1, level)
        x0, x1, _, _ = wf.region_bounds
        probe = x0 + 0.05 * (x1 - x0)
        assert wf(probe) > 0.0


def test_boundary_samples_agree_from_both_sides(pair1, pair1_levels):
    wf = build_wavefunction(pair1, pair1_levels[3])
    _, x1, x2, _ = wf.region_bounds
    for x, left, right in ((x1, 2, 3), (x2, 3, 4)):
        value = _value_slope(*wf._region(left), x)[0]
        assert value == pytest.approx(_value_slope(*wf._region(right), x)[0], rel=1e-8)


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


def test_non_eigenvalue_rejected(pair1, pair1_levels):
    fake = Level(
        energy=pair1_levels[3].energy + 0.01,
        regime=Regime.B,
        residual=0.0,
        bracket=(0.0, 0.0),
        index=3,
    )
    with pytest.raises(ValueError):
        build_wavefunction(pair1, fake)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow it checks
@pytest.mark.parametrize("distance", [600.0, 1200.0])
def test_overflowing_barrier_is_rejected_not_returned(distance):
    # a wide barrier overflows the barrier coefficients or their squared integral
    pair = WellPair(width=43.85, distance=distance, v_shallow=0.272, v_deep=1.585)
    rejected = 0
    for level in find_levels(pair):
        try:
            wf = build_wavefunction(pair, level)
        except ValueError:
            rejected += 1
            continue
        assert all(np.isfinite([wf.a1, wf.a2, wf.b, wf.c, wf.d1, wf.d2, wf.wall_residual]))
    assert rejected > 0


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
