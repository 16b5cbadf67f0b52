import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellcascade.eigensolver import _Geometry
from wellcascade.potential import (
    CascadeSpec,
    PotentialProfile,
    WellPair,
    cascade_profile,
    pair_profile,
    pair_segments,
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
    (x0, x1, shallow), (_, x2, barrier), (_, x3, deep) = pair_profile(pair1).segments
    assert (shallow, barrier, deep) == (pytest.approx(1.313), 1.585, 0.0)
    half_outer = 0.5 * (pair1.distance + pair1.width)
    half_inner = 0.5 * (pair1.distance - pair1.width)
    assert (x0, x1, x2, x3) == (-half_outer, -half_inner, half_inner, half_outer)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.1, 100.0), st.floats(0.01, 50.0), st.floats(0.01, 0.99),
                  st.floats(0.01, 5.0)),
        min_size=1, max_size=8,
    )
)
def test_pair_segments_of_arrays_equal_each_pair_profile(geometries):
    # the solver counts levels on the segments of a whole batch at once
    pairs = [WellPair(width=a, distance=a + barrier, v_shallow=share * v_deep, v_deep=v_deep)
             for a, barrier, share, v_deep in geometries]
    segments = pair_segments(_Geometry.of(pairs))
    for i, pair in enumerate(pairs):
        own = [[np.broadcast_to(x, len(pairs))[i] for x in segment] for segment in segments]
        assert np.array(own).tobytes() == np.array(pair_profile(pair).segments).tobytes()


def test_profile_integral_above_min_positive(pair1):
    profile = pair_profile(pair1)
    floor = min(v for _, _, v in profile.segments)
    integral = sum((x1 - x0) * (v - floor) for x0, x1, v in profile.segments)
    assert np.isfinite(integral) and integral > 0.0


def test_cascade_floors(reference_spec):
    floors = reference_spec.floors()
    assert floors == (0.0, pytest.approx(1.313), pytest.approx(1.061), pytest.approx(0.635))
    # monotone electron descent: floor_2 > floor_3 > floor_4 > floor_1
    assert floors[1] > floors[2] > floors[3] > floors[0]


def test_cascade_profile_structure(reference_spec):
    profile = cascade_profile(reference_spec)
    assert len(profile.segments) == 7
    values = [v for _, _, v in profile.segments]
    floors = reference_spec.floors()
    assert values[0::2] == pytest.approx(floors)
    assert values[1::2] == pytest.approx((1.585,) * 3)
    total = 4 * 43.85 + sum(d - 43.85 for d in reference_spec.distances[:3])
    assert profile.segments[0][0] == 0.0
    assert profile.segments[-1][1] == pytest.approx(total)


def test_cascade_restriction_matches_pair_profile(reference_spec):
    cascade = cascade_profile(reference_spec)
    segments = cascade.segments
    for i in range(3):
        sub = segments[2 * i : 2 * i + 3]
        widths = [x1 - x0 for x0, x1, _ in sub]
        values = [v for _, _, v in sub]
        shift = min(values[0], values[2])
        shifted = [v - shift for v in values]
        ref = pair_profile(reference_spec.pair(i))
        ref_widths = [x1 - x0 for x0, x1, _ in ref.segments]
        ref_values = [v for _, _, v in ref.segments]
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
    with pytest.raises(ValueError):  # a segment that is not a triple
        PotentialProfile(((0.0, 1.0), (1.0, 2.0, 0.0)))
    profile = PotentialProfile([(0, 1, 2), np.array([1, 3, 0])])
    assert profile.segments == ((0.0, 1.0, 2.0), (1.0, 3.0, 0.0))
    assert all(type(n) is float for segment in profile.segments for n in segment)


@pytest.mark.parametrize(
    "segments",
    [
        ((-5.0, 0.0, 1.0), (0.0, 20.0, math.nan), (20.0, 25.0, 1.0)),
        ((-math.inf, 0.0, 1.0), (0.0, 20.0, 0.0), (20.0, 25.0, 1.0)),
        ((-5.0, 0.0, 1.0), (0.0, 20.0, 0.0), (20.0, math.inf, 1.0)),
        ((-5.0, 0.0, 1.0), (0.5, 20.0, 0.0), (20.0, 25.0, 1.0)),
        ((-5.0, 0.5, 1.0), (0.0, 20.0, 0.0), (20.0, 25.0, 1.0)),
        ((-5.0, 0.0, 1.0), (20.0, 0.0, 0.0), (0.0, 25.0, 1.0)),
        (),
    ],
    ids=["nan-value", "infinite-left-wall", "infinite-right-wall", "gap", "overlap",
         "reversed", "empty"],
)
def test_profile_rejects_what_is_not_a_potential(segments):
    with pytest.raises(ValueError):
        PotentialProfile(segments)


def test_profile_csv_round_trip(tmp_path, reference_spec, reference_config_file):
    # The CSV is written by the cli, which owns every output file.
    profile = cascade_profile(reference_spec)
    argv = ["cascade", "--config", str(reference_config_file), "--output-dir", str(tmp_path),
            "--emit-profile"]
    assert main(argv) == 0
    lines = (tmp_path / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "x_A,V_eV"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 2 * len(profile.segments)
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    assert rows[0][0] == profile.segments[0][0]
    assert rows[-1][0] == pytest.approx(profile.segments[-1][1])
