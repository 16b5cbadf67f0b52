import numpy as np
import pytest

from wellcascade.potential import (
    CascadeSpec,
    PotentialProfile,
    WellPair,
    cascade_profile,
    pair_profile,
)
from wellcascade.cli import main


def test_well_pair_rejects_degenerate_geometry():
    with pytest.raises(ValueError):
        WellPair(width=43.85, distance=43.85, v_shallow=0.272, v_deep=1.585)


def test_well_pair_rejects_symmetric_depths():
    with pytest.raises(ValueError):
        WellPair(width=43.85, distance=60.0, v_shallow=1.585, v_deep=1.585)


def test_well_pair_rejects_inverted_depths():
    with pytest.raises(ValueError):
        WellPair(width=43.85, distance=60.0, v_shallow=1.585, v_deep=0.272)
    with pytest.raises(ValueError):
        WellPair(width=-1.0, distance=60.0, v_shallow=0.272, v_deep=1.585)


def test_pair_profile_reference_geometry(pair1):
    profile = pair_profile(pair1)
    assert profile.segment_values == (pytest.approx(1.313), 1.585, 0.0)
    half_outer = 0.5 * (pair1.distance + pair1.width)
    half_inner = 0.5 * (pair1.distance - pair1.width)
    assert profile.x_min == -half_outer and profile.x_max == half_outer
    assert profile.breakpoints == (-half_inner, half_inner)


def test_profile_evaluation_and_breakpoint_side(pair1):
    profile = pair_profile(pair1)
    x1, x2 = profile.breakpoints
    assert profile(x1 - 1.0) == pytest.approx(1.313)
    assert profile(0.0) == 1.585
    assert profile(x2 + 1.0) == 0.0
    # evaluation at a breakpoint takes the right-hand segment
    assert profile(x1) == 1.585
    assert profile(x2) == 0.0
    values = profile(np.array([x1 - 1.0, 0.0, x2 + 1.0]))
    assert values == pytest.approx([1.313, 1.585, 0.0])


def test_profile_integral_above_min_positive(pair1):
    profile = pair_profile(pair1)
    integral = sum((x1 - x0) * (v - min(profile.segment_values)) for x0, x1, v in profile.segments())
    assert np.isfinite(integral) and integral > 0.0


def test_cascade_floors(reference_spec):
    floors = reference_spec.floors()
    assert floors == (0.0, pytest.approx(1.313), pytest.approx(1.061), pytest.approx(0.635))
    # monotone electron descent: floor_2 > floor_3 > floor_4 > floor_1
    assert floors[1] > floors[2] > floors[3] > floors[0]


def test_cascade_profile_structure(reference_spec):
    profile = cascade_profile(reference_spec)
    assert len(profile.segment_values) == 7
    assert len(profile.breakpoints) == 6
    floors = reference_spec.floors()
    assert profile.segment_values[0::2] == pytest.approx(floors)
    assert profile.segment_values[1::2] == pytest.approx((1.585,) * 3)
    total = 4 * 43.85 + sum(d - 43.85 for d in reference_spec.distances[:3])
    assert profile.x_max - profile.x_min == pytest.approx(total)


def test_cascade_restriction_matches_pair_profile(reference_spec):
    cascade = cascade_profile(reference_spec)
    segments = cascade.segments()
    for i in range(3):
        sub = segments[2 * i : 2 * i + 3]
        widths = [x1 - x0 for x0, x1, _ in sub]
        values = [v for _, _, v in sub]
        shift = min(values[0], values[2])
        shifted = [v - shift for v in values]
        ref = pair_profile(reference_spec.pair(i))
        ref_widths = [x1 - x0 for x0, x1, _ in ref.segments()]
        ref_values = list(ref.segment_values)
        if shifted[0] < shifted[2]:  # deep well on the left: mirror
            shifted.reverse()
            widths.reverse()
        assert widths == pytest.approx(ref_widths)
        assert shifted == pytest.approx(ref_values)


def test_cascade_spec_validation():
    good = dict(
        widths=(43.85,) * 4,
        distances=(60.0, 60.0, 60.0),
        depths=(1.585, 0.272, 0.524, 0.95),
    )
    CascadeSpec(**good)
    with pytest.raises(ValueError):  # first well must be deepest
        CascadeSpec(**{**good, "depths": (0.272, 1.585, 0.524, 0.95)})
    with pytest.raises(ValueError):  # needs 4 wells
        CascadeSpec(**{**good, "depths": (1.585, 0.272, 0.524)})
    with pytest.raises(ValueError):  # unequal widths unsupported by the pair solver
        CascadeSpec(**{**good, "widths": (43.85, 43.85, 43.85, 40.0)})
    with pytest.raises(ValueError):  # duplicate labels
        CascadeSpec(**{**good, "labels": ("P", "P", "H", "Q")})
    with pytest.raises(ValueError):  # distance shorter than width
        CascadeSpec(**{**good, "distances": (40.0, 60.0, 60.0)})
    for key in ("absorption_target_ev", "resonance_window_ev"):
        assert getattr(CascadeSpec(**good), key) > 0.0
        for bad in (0.0, -0.05, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=key):
                CascadeSpec(**{**good, key: bad})


def test_pair_offsets(reference_spec):
    assert reference_spec.pair_offset(0) == 0.0
    assert reference_spec.pair_offset(1) == pytest.approx(1.061)
    assert reference_spec.pair_offset(2) == pytest.approx(0.635)


def test_closing_pair(reference_spec):
    closing = reference_spec.pair(3)
    assert closing.v_shallow == 0.95 and closing.v_deep == 1.585
    assert reference_spec.pair_offset(3) == 0.0  # the first well is the deepest
    assert reference_spec.pair_labels(3) == ("Q", "P")
    spec3 = CascadeSpec(
        widths=(43.85,) * 4,
        distances=(60.0, 60.0, 60.0),
        depths=(1.585, 0.272, 0.524, 0.95),
    )
    assert len(spec3.distances) == 3
    with pytest.raises(ValueError):
        spec3.pair(3)


def test_profile_validation():
    with pytest.raises(ValueError):
        PotentialProfile(breakpoints=(1.0,), segment_values=(0.0,), x_min=0.0, x_max=2.0)
    with pytest.raises(ValueError):
        PotentialProfile(breakpoints=(2.0, 1.0), segment_values=(0.0, 1.0, 0.0), x_min=0.0, x_max=3.0)


def test_profile_csv_round_trip(tmp_path, reference_spec, reference_config_file):
    # The CSV is written by the cli, which owns every output file.
    profile = cascade_profile(reference_spec)
    argv = ["cascade", "--config", str(reference_config_file), "--output-dir", str(tmp_path),
            "--emit-profile"]
    assert main(argv) == 0
    lines = (tmp_path / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "x_A,V_eV"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 2 * len(profile.segment_values)
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    assert rows[0][0] == profile.x_min and rows[-1][0] == pytest.approx(profile.x_max)
