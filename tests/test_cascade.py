import json

import pytest

from wellcascade.cascade import (
    EXPERIMENT_REFERENCE,
    ResonanceNotFoundError,
    StepReference,
    compare_to_experiment,
    solve_cascade,
    tunneling_vs_decay,
)
from wellcascade.cli import report_to_dict
from wellcascade.oracle import FdConfig, fd_levels
from wellcascade.potential import CascadeSpec, cascade_profile


@pytest.fixture(scope="module")
def report(reference_spec):
    return solve_cascade(reference_spec)


def test_reference_global_levels(report):
    targets = {
        "doublet1": (1.445, 1.460),
        "doublet2": (1.329, 1.335),
        "doublet3": (1.0785, 1.0787),
    }
    for i, key in enumerate(("doublet1", "doublet2", "doublet3")):
        resonance = report.resonances[i]
        assert resonance.e_minus == pytest.approx(targets[key][0], abs=0.01)
        assert resonance.e_plus == pytest.approx(targets[key][1], abs=0.01)
    assert report.wells[0].ground_ev == pytest.approx(0.01828, abs=5e-4)
    assert report.wells[3].ground_ev == pytest.approx(0.6529, abs=0.01)


def test_absorption(report):
    assert report.absorption.delta_ev == pytest.approx(1.4267, abs=1e-3)
    assert report.absorption.wavelength_nm == pytest.approx(869.7, rel=2e-3)
    # delta is exactly lower doublet member minus the first well's ground state
    expected = report.resonances[0].e_minus - report.wells[0].ground_ev
    assert report.absorption.delta_ev == pytest.approx(expected, rel=1e-14)


def test_energies_decrease_along_schedule(report):
    d1, d2, d3 = report.resonances
    assert d1.e_plus > d2.e_plus > d3.e_plus > report.wells[3].ground_ev
    assert report.absorption.to_ev > report.wells[1].ground_ev


def test_step_times_and_gaps(report):
    times_ps = [s.tunneling_time_s * 1e12 for s in report.steps]
    assert times_ps[0] == pytest.approx(0.138, rel=0.05)
    assert times_ps[1] == pytest.approx(0.385, rel=0.05)
    assert 10.0 < times_ps[2] < 16.0
    gaps = [s.decay_gap_ev for s in report.steps]
    assert gaps[0] == pytest.approx(0.131, abs=5e-3)
    assert gaps[1] == pytest.approx(0.2565, abs=5e-3)
    assert gaps[2] == pytest.approx(0.4258, abs=5e-3)


def test_well_floors(report):
    floors = [w.floor_ev for w in report.wells]
    assert floors == [0.0, pytest.approx(1.313), pytest.approx(1.061), pytest.approx(0.635)]


def test_global_shift_consistency_with_full_profile_oracle(reference_spec, report):
    fd = fd_levels(cascade_profile(reference_spec), 8, FdConfig(grid_points=20001))
    for target in (report.wells[0].ground_ev, report.wells[3].ground_ev):
        assert min(abs(e - target) for e in fd) <= 5e-3


def test_report_is_deterministic(reference_spec, report):
    again = solve_cascade(reference_spec)
    first = json.dumps(report_to_dict(report), indent=2)
    second = json.dumps(report_to_dict(again), indent=2)
    assert first == second


def test_comparison_against_experiment(report):
    rows = compare_to_experiment(report)
    assert len(rows) == 3
    # step 3: the model is far faster than the measured 200 ps
    assert rows[2].reference_time_ps == 200.0
    assert not rows[2].same_order
    assert rows[2].time_ratio == pytest.approx(rows[2].model_time_ps / 200.0, rel=1e-12)
    assert rows[0].reference_time_ps == 3.0
    assert rows[0].model_time_ps == pytest.approx(0.137, abs=0.01)


def test_comparison_identity_is_zero(report):
    mirror = tuple(
        StepReference(
            time_ps=s.tunneling_time_s * 1e12,
            energy_from_ev=s.resonance.e_plus,
            energy_to_ev=s.resonance.e_plus - s.decay_gap_ev,
        )
        for s in report.steps
    )
    for row in compare_to_experiment(report, mirror):
        assert row.time_ratio == pytest.approx(1.0, rel=1e-12)
        assert row.same_order
        assert row.energy_from_deviation_ev == pytest.approx(0.0, abs=1e-12)
        assert row.energy_to_deviation_ev == pytest.approx(0.0, abs=1e-12)


def test_tunneling_vs_decay_ratios(report):
    ratios = tunneling_vs_decay(report)
    assert all(r > 1.0 for r in ratios)
    assert all(r >= 50.0 for r in ratios)
    assert 50.0 <= ratios[0] <= 60.0


def test_notes_mention_the_magnitude_claim(report):
    assert any("two orders of magnitude" in note for note in report.notes)


def test_closing_pair_informational(reference_spec, report):
    assert len(report.pairs) == 4
    closing = report.pairs[3]
    assert closing.index == 4
    assert closing.labels == ("Q", "P")
    assert len(closing.result.levels) > 0
    spec3 = CascadeSpec(
        widths=reference_spec.widths,
        distances=reference_spec.distances[:3],
        depths=reference_spec.depths,
    )
    report3 = solve_cascade(spec3)
    assert len(report3.pairs) == 3
    assert report3.steps == report.steps  # closing pair never feeds the schedule


def test_resonance_not_found_names_the_pair(reference_spec):
    with pytest.raises(ResonanceNotFoundError) as info:
        solve_cascade(reference_spec, absorption_target_ev=0.5)
    assert "pair 1" in str(info.value)


def test_report_dict_shape(report):
    d = report_to_dict(report)
    assert d["schema_version"] == 1
    assert len(d["wells"]) == 4
    assert len(d["pairs"]) == 4
    assert len(d["steps"]) == 3
    assert {"reference_model", "experiment"} <= set(d["comparison"])
    assert d["steps"][0]["tunneling_time_ps"] == pytest.approx(
        d["steps"][0]["tunneling_time_s"] * 1e12, rel=1e-6
    )
    exp = d["comparison"]["experiment"]
    assert [row["reference_time_ps"] for row in exp] == [
        r.time_ps for r in EXPERIMENT_REFERENCE
    ]


def test_invalid_parameters_rejected(reference_spec):
    with pytest.raises(ValueError):
        solve_cascade(reference_spec, absorption_target_ev=-1.0)
    with pytest.raises(ValueError):
        solve_cascade(reference_spec, resonance_window_ev=0.0)
