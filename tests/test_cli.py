import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wellcascade
from wellcascade import eigensolver
from wellcascade.cli import ConfigError, load_config, main, parse_config
from wellcascade.potential import CascadeSpec, cascade_profile

GOLDEN_REPORT = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "report.json"

MINIMAL = """
[wells]
widths_A = 43.85
depths_eV = 1.585, 0.272, 0.524, 0.95
distances_A = 60.19, 60.0, 60.0
"""


def test_bundled_config_parses(reference_run_config):
    cfg = reference_run_config
    assert cfg.spec.labels == ("P", "B", "H", "Q")
    assert cfg.spec.distances == (60.19, 60.0, 60.0, 62.5)
    assert cfg.solver.grid_step == 2e-5
    assert cfg.oracle.grid_points == 20001


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.spec.widths == (43.85,) * 4
    assert len(cfg.spec.distances) == 3
    assert cfg.spec.absorption_target_ev == 1.4267
    assert cfg.spec.resonance_window_ev == 0.05
    assert cfg.output_dir == "out"


def test_empty_config_lists_required_keys():
    with pytest.raises(ConfigError) as info:
        parse_config("")
    message = str(info.value)
    for key in ("widths_A", "depths_eV", "distances_A"):
        assert key in message


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "\nbarrier_mass = 3\n")
    assert "barrier_mass" in str(info.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "\n[plotting]\ncolor = red\n")
    assert "plotting" in str(info.value)


def test_geometry_validation_at_parse_time():
    bad = MINIMAL.replace("60.19, 60.0, 60.0", "40.0, 60.0, 60.0")
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert "geometry" in str(info.value)


NAN = float("nan")


@pytest.mark.parametrize(
    "line, field, values",
    [
        ("widths_A = nan", "widths", (NAN,) * 4),
        ("depths_eV = nan, 0.272, 0.524, 0.95", "depths", (NAN, 0.272, 0.524, 0.95)),
        ("depths_eV = 1.585, 0.272, 0.524, nan", "depths", (1.585, 0.272, 0.524, NAN)),
        ("distances_A = 60.19, nan, 60.0", "distances", (60.19, NAN, 60.0)),
    ],
    ids=["width", "first-depth", "last-depth", "distance"],
)
def test_non_finite_geometry_names_its_field(line, field, values):
    # the check must come first: a NaN fails every comparison of the later checks
    message = f"{field} must be finite, got {values}"
    key = line.split(" = ")[0]
    config = "\n".join(line if row.startswith(key) else row for row in MINIMAL.splitlines())
    with pytest.raises(ConfigError) as info:
        parse_config(config)
    assert str(info.value) == f"[wells] invalid geometry or schedule: {message}"
    geometry = {"widths": (43.85,) * 4, "depths": (1.585, 0.272, 0.524, 0.95),
                "distances": (60.19, 60.0, 60.0), field: values}
    with pytest.raises(ValueError) as info:
        CascadeSpec(**geometry)
    assert str(info.value) == message


@pytest.mark.parametrize("key", ["absorption_target_eV", "resonance_window_eV"])
@pytest.mark.parametrize("value", ["0", "-0.1", "nan", "inf"])
def test_schedule_input_must_be_positive(tmp_path, capsys, key, value):
    cfg = tmp_path / "schedule.cfg"
    cfg.write_text(MINIMAL + f"{key} = {value}\n")
    assert main(["cascade", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [wells] ") and key.lower() in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("widths_A = 43.85, 43.85", "cascade needs exactly 4 well widths, got 2"),
        ("depths_eV = 1.585, 0.272, 0.524", "cascade needs exactly 4 well depths, got 3"),
        ("labels = P, B, H", "cascade needs exactly 4 site labels, got 3"),
        ("distances_A = 60.19, 60.0, 60.0, 62.5",
         "distances_A takes 3 values, got 4; the closing pair's is closing_distance_A"),
    ],
    ids=["widths", "depths", "labels", "distances"],
)
def test_a_wrong_count_is_one_config_error_line(tmp_path, capsys, line, message):
    key = line.split(" = ")[0]
    rows = [row for row in MINIMAL.splitlines() if not row.startswith(key)] + [line]
    cfg = tmp_path / "count.cfg"
    cfg.write_text("\n".join(rows) + "\n")
    assert main(["cascade", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: [wells] invalid geometry or schedule: {message}\n"
    assert not (tmp_path / "report.json").exists()


def test_bad_number_reports_field():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL.replace("43.85", "wide"))
    assert "[wells] widths_A" in str(info.value)


def test_constant_overrides_flow_through():
    cfg = parse_config(MINIMAL + "\n[constants]\nhc_eV_nm = 1240.0\n")
    assert cfg.constants.hc_eV_nm == 1240.0


def test_solver_and_oracle_keys_reach_their_configs():
    cfg = parse_config(
        MINIMAL
        + "\n[solver]\ngrid_step_eV = 1e-4\n"
        "[oracle]\ngrid_points = 1001\nextrapolate = yes\n"
    )
    assert cfg.solver.grid_step == 1e-4
    assert (cfg.oracle.grid_points, cfg.oracle.extrapolate) == (1001, True)


@pytest.mark.parametrize(
    "section, message",
    [
        ("[oracle]\ngrid_points = lots", "[oracle] grid_points: expected an integer"),
        ("[oracle]\ngrid_points = 1000", "[oracle] invalid configuration: grid_points"),
        ("[solver]\ngrid_step_eV = inf", "[solver] invalid configuration: grid_step must be finite"),
        ("[constants]\nhc_eV_nm = -1", "[constants] invalid override: constant hc_eV_nm"),
    ],
    ids=["oracle-int", "oracle-value", "solver-step-inf", "constants-value"],
)
def test_section_value_errors_name_the_key(section, message):
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "\n" + section + "\n")
    assert str(info.value).startswith(message)


def test_readme_config_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert cfg.spec == parse_config(MINIMAL + "closing_distance_A = 62.5\n").spec
    assert cfg.oracle.grid_points == 20001


README_PYTHON = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8").split("```python\n")[1:]


@pytest.mark.parametrize("block", [b.split("```", 1)[0] for b in README_PYTHON],
                         ids=[f"block{i}" for i in range(len(README_PYTHON))])
def test_readme_python_examples_run(tmp_path, monkeypatch, capsys, block):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("oracle", "padding_A", "0"),
        ("solver", "refine_tol_eV", "1e-9"),
        ("solver", "max_levels", "5"),
        ("output", "formats", "json, table"),
        ("solver", "residual_tol", "1e-8"),
    ],
    ids=["padding_A", "refine_tol_eV", "max_levels", "formats", "residual_tol"],
)
def test_removed_keys_are_unknown(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(MINIMAL + f"\n[{section}]\n{key} = {value}\n")
    assert main(["cascade", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: unknown key '{key}' in section [{section}]\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "extra, args, code, message",
    [
        ("", ["wavefunction", "--pair", "1", "--level", "0", "--points", "100000000000"], 1,
         "error: need 2 to 10000000 sample points, got 100000000000\n"),
        ("\n[oracle]\ngrid_points = 1000000001\n", ["oracle", "--pair", "1"], 2,
         "config error: [oracle] invalid configuration: grid_points must be odd and in "
         "[1001, 10000000], got 1000000001\n"),
    ],
    ids=["sample-points", "oracle-grid-points"],
)
def test_oversized_size_ends_in_an_error_message(tmp_path, capsys, extra, args, code, message):
    # a size past the 10**7 points of the largest grid is refused before any array is allocated
    cfg = tmp_path / "sized.cfg"
    cfg.write_text(MINIMAL + extra)
    assert main([*args, "--config", str(cfg), "--output-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err == message


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_cascade_command_writes_report(tmp_path, reference_config_file, capsys):
    rc = main(["cascade", "--config", str(reference_config_file), "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    assert len(report["steps"]) == 3
    out = capsys.readouterr().out
    assert "transfer schedule" in out


def _sig9_tree(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, list):
        return [_sig9_tree(v) for v in value]
    if isinstance(value, dict):
        return {k: _sig9_tree(v) for k, v in value.items()}
    return value


def test_cascade_report_matches_golden(tmp_path, reference_config_file):
    rc = main(["cascade", "--config", str(reference_config_file), "--output-dir", str(tmp_path)])
    assert rc == 0
    fresh = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
    assert _sig9_tree(fresh) == _sig9_tree(golden)


def test_cascade_determinism(tmp_path, reference_config_file):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["cascade", "--config", str(reference_config_file), "--output-dir", str(dir_a)]) == 0
    assert main(["cascade", "--config", str(reference_config_file), "--output-dir", str(dir_b)]) == 0
    assert (dir_a / "report.json").read_bytes() == (dir_b / "report.json").read_bytes()


def test_cascade_emit_profile_and_scan(tmp_path, reference_config_file, reference_run_config):
    rc = main(
        [
            "cascade",
            "--config",
            str(reference_config_file),
            "--output-dir",
            str(tmp_path),
            "--emit-profile",
            "--emit-scan",
        ]
    )
    assert rc == 0
    profile = cascade_profile(reference_run_config.spec)
    lines = (tmp_path / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "x_A,V_eV"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 2 * len(profile.segments)
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    assert rows[0][0] == profile.segments[0][0]
    assert rows[-1][0] == pytest.approx(profile.segments[-1][1])
    for i in (1, 2, 3):
        header = (tmp_path / f"resonance_scan_pair{i}.csv").read_text().splitlines()[0]
        assert header == "E_eV,lhs,rhs,mismatch,regime,pole_flag"


def test_scan_pair_and_emit_scan_keep_their_own_files(tmp_path, reference_config_file):
    common = ["--config", str(reference_config_file), "--output-dir", str(tmp_path)]
    scan_args = ["--pair", "1", "--emin", "1.40", "--emax", "1.50", "--step", "1e-4"]
    assert main(["scan-pair", *common, *scan_args]) == 0
    table = (tmp_path / "scan_pair1.csv").read_text().splitlines()
    assert len(table) == 1002
    assert main(["cascade", *common, "--emit-scan"]) == 0
    after = (tmp_path / "scan_pair1.csv").read_text().splitlines()
    assert len(after) == len(table)  # first: a failing comparison of long tables diffs slowly
    assert after == table
    resonance = (tmp_path / "resonance_scan_pair1.csv").read_text().splitlines()
    energies = [float(line.split(",")[0]) for line in resonance[1:]]
    assert energies[1] - energies[0] == pytest.approx(1e-5)  # half the config's grid step


def test_scan_pair_brackets_the_resonances(tmp_path, reference_config_file):
    rc = main(
        [
            "scan-pair",
            "--config",
            str(reference_config_file),
            "--output-dir",
            str(tmp_path),
            "--pair",
            "1",
            "--emin",
            "1.40",
            "--emax",
            "1.50",
            "--step",
            "1e-5",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "scan_pair1.csv").read_text().strip().splitlines()
    assert lines[0] == "E_eV,lhs,rhs,mismatch,regime,pole_flag"
    energies, mismatches = [], []
    for line in lines[1:]:
        cols = line.split(",")
        if cols[5] == "1":
            continue
        energies.append(float(cols[0]))
        mismatches.append(float(cols[3]))
    energies = np.array(energies)
    mism = np.array(mismatches)
    flips = np.nonzero(np.sign(mism[:-1]) * np.sign(mism[1:]) < 0)[0]
    intervals = [(energies[i], energies[i + 1]) for i in flips]
    for root in (1.444849, 1.459912):
        assert any(lo - 5e-5 <= root <= hi + 5e-5 for lo, hi in intervals)


@pytest.mark.parametrize("step", ["0", "-1e-3", "nan", "1e-16"])
def test_scan_pair_rejects_bad_step(tmp_path, reference_config_file, capsys, step):
    rc = main(
        [
            "scan-pair",
            "--config",
            str(reference_config_file),
            "--output-dir",
            str(tmp_path),
            "--pair",
            "1",
            "--emin",
            "1.40",
            "--emax",
            "1.50",
            f"--step={step}",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "scan_pair1.csv").exists()


@pytest.mark.parametrize("flag, name", [("--emin", "e_min"), ("--emax", "e_max")])
def test_solve_pair_rejects_nan_bound(tmp_path, reference_config_file, capsys, flag, name):
    rc = main(["solve-pair", "--config", str(reference_config_file), "--output-dir",
               str(tmp_path), "--pair", "1", flag, "nan"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and name in captured.err
    assert not (tmp_path / "solve_pair1.json").exists()


@pytest.mark.parametrize("flag, name", [("--emin", "lo=nan"), ("--emax", "hi=nan")])
def test_scan_pair_names_a_nan_bound(tmp_path, reference_config_file, capsys, flag, name):
    window = {"--emin": "1.40", "--emax": "1.50", flag: "nan"}
    rc = main(["scan-pair", "--config", str(reference_config_file), "--output-dir",
               str(tmp_path), "--pair", "1", "--step", "1e-4",
               *(f"{k}={v}" for k, v in window.items())])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid bounds must be finite") and name in err


@pytest.mark.parametrize("emin, emax", [("1.5", "1.3"), ("1.4", "1.4")])
def test_solve_pair_rejects_empty_window(tmp_path, reference_config_file, capsys, emin, emax):
    rc = main(["solve-pair", "--config", str(reference_config_file), "--output-dir",
               str(tmp_path), "--pair", "1", "--emin", emin, "--emax", emax])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: empty energy window")
    assert not (tmp_path / "solve_pair1.json").exists()


def test_solve_pair_writes_json(tmp_path, reference_config_file):
    rc = main(
        ["solve-pair", "--config", str(reference_config_file), "--output-dir", str(tmp_path), "--pair", "1"]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "solve_pair1.json").read_text())
    assert set(payload) == {"schema_version", "pair", "config", "levels", "diagnostics"}
    energies = [lv["energy_eV"] for lv in payload["levels"]]
    assert energies == sorted(energies)
    assert min(abs(e - 1.445) for e in energies) < 5e-3


def test_solve_pair_reports_min_spacing_over_step(tmp_path, reference_config_file):
    def solve(*window):
        main(["solve-pair", "--config", str(reference_config_file), "--output-dir",
              str(tmp_path), "--pair", "4", *window])
        return json.loads((tmp_path / "solve_pair4.json").read_text())

    payload = solve()
    energies = [lv["energy_eV"] for lv in payload["levels"]]
    spacing = payload["diagnostics"]["min_spacing_over_step"]
    step = payload["config"]["grid_step_eV"]
    assert spacing == pytest.approx(min(np.diff(energies)) / step, rel=1e-3)
    # the closing pair's doublet, 4.76e-5 eV wide, spans fewer than 2.4 grid steps
    assert spacing == pytest.approx(2.378, abs=1e-3)
    one = solve("--emin", "0.01", "--emax", "0.05")
    assert len(one["levels"]) == 1
    assert one["diagnostics"]["min_spacing_over_step"] is None


@pytest.mark.parametrize("window, levels", [
    (["--emin", "1.4890054014035836"], [1.56676828]),
    (["--emin", "1.40", "--emax", "1.4890054014035836"], [1.44484885, 1.4599121]),
    (["--emin", "1.4890054014035836", "--emax", "1.5"], []),
])
def test_window_end_where_the_shallow_well_holds_whole_half_waves(tmp_path, reference_config_file,
                                                                  capsys, window, levels):
    # k1 a = 3 pi at 1.4890054014035836 eV: the count there is that of its
    # neighbourhood, so no level is lost, none is skipped and the window opens
    rc = main(["solve-pair", "--config", str(reference_config_file), "--output-dir",
               str(tmp_path), "--pair", "1", *window])
    assert rc == 0
    assert f"{len(levels)} bound state(s)" in capsys.readouterr().out.splitlines()
    payload = json.loads((tmp_path / "solve_pair1.json").read_text())
    assert [lv["energy_eV"] for lv in payload["levels"]] == levels
    assert payload["diagnostics"]["skipped_intervals"] == []


def test_a_falling_count_is_one_error_line_naming_the_pair(tmp_path, reference_config_file,
                                                          capsys, monkeypatch):
    def falling(segments, energies, constants):
        return 20 - np.searchsorted([0.5, 1.0], energies)

    monkeypatch.setattr(eigensolver, "count_below", falling)
    rc = main(["solve-pair", "--config", str(reference_config_file), "--output-dir",
               str(tmp_path), "--pair", "1", "--emin", "0.25", "--emax", "1.25"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "computation error: the oscillation count of the pair (width 43.85 A, distance "
        "60.19 A, depths 0.272/1.585 eV) falls from 20 at 0.25 eV to 18 at 1.25 eV\n"
    )
    assert not (tmp_path / "solve_pair1.json").exists()


def test_solve_pair_closing_pair_needs_closing_distance(tmp_path, capsys):
    cfg = tmp_path / "three.cfg"
    cfg.write_text(MINIMAL)
    rc = main(["solve-pair", "--config", str(cfg), "--output-dir", str(tmp_path), "--pair", "4"])
    assert rc == 1
    assert "no closing_distance_A configured" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["0", "5"])
def test_solve_pair_rejects_pair_index(tmp_path, reference_config_file, capsys, index):
    rc = main(
        ["solve-pair", "--config", str(reference_config_file), "--output-dir", str(tmp_path),
         "--pair", index]
    )
    assert rc == 1
    assert "pair index must be 1..4" in capsys.readouterr().err


def test_times_from_explicit_energies(capsys):
    rc = main(["times", "--e-plus", "1.460", "--e-minus", "1.445", "--decay-gap", "0.131"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.137855" in out or "0.13785" in out
    assert "ratio" in out


def test_times_from_solver_json(tmp_path, reference_config_file, capsys):
    main(["solve-pair", "--config", str(reference_config_file), "--output-dir", str(tmp_path), "--pair", "1"])
    payload = json.loads((tmp_path / "solve_pair1.json").read_text())
    n = len(payload["levels"])
    rc = main(
        [
            "times",
            "--from-json",
            str(tmp_path / "solve_pair1.json"),
            "--lower-index",
            str(n - 3),
            "--upper-index",
            str(n - 2),
        ]
    )
    assert rc == 0
    assert "tunneling time" in capsys.readouterr().out


def test_times_rejects_negative_indices(tmp_path, reference_config_file, capsys):
    main(["solve-pair", "--config", str(reference_config_file), "--output-dir", str(tmp_path), "--pair", "1"])
    capsys.readouterr()
    rc = main(
        [
            "times",
            "--from-json",
            str(tmp_path / "solve_pair1.json"),
            "--upper-index=-1",
            "--lower-index=-2",
        ]
    )
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("payload", ["report", [1.4, 1.5], {"levels": [{"energy_eV": "x"},
                                                                        {"energy_eV": 1.5}]}],
                         ids=["cascade-report", "list", "string-energy"])
def test_times_rejects_a_file_that_is_not_a_solve_pair_file(tmp_path, reference_config_file,
                                                            payload, capsys):
    path = tmp_path / "report.json"
    if payload == "report":
        main(["cascade", "--config", str(reference_config_file), "--output-dir", str(tmp_path)])
    else:
        path.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["times", "--from-json", str(path), "--upper-index", "1", "--lower-index", "0"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {path} is not a solve-pair JSON file")


def test_times_requires_energies():
    assert main(["times"]) == 1


def test_times_rejects_bad_decay_gap_before_output(capsys):
    rc = main(["times", "--e-plus", "1.460", "--e-minus", "1.445", "--decay-gap=-1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "decay gap" in captured.err


def test_oracle_pair_command(reference_config_file, capsys):
    rc = main(["oracle", "--config", str(reference_config_file), "--pair", "2", "--levels", "4"])
    assert rc == 0
    assert "finite-difference" in capsys.readouterr().out


@pytest.mark.parametrize("emit_states", [False, True], ids=["table", "emit-states"])
def test_oracle_pair_notes_a_table_shorter_than_requested(reference_config_file, tmp_path, capsys,
                                                          emit_states):
    # the closing pair binds 16 states below its barrier top, so 100 cannot all be printed
    args = ["oracle", "--config", str(reference_config_file), "--pair", "4", "--levels", "100",
            "--output-dir", str(tmp_path)]
    assert main(args + ["--emit-states"] * emit_states) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 16 + 1 + emit_states
    assert lines[18] == "note: only 16 bound state(s) below the barrier top"
    assert [line for line in lines if line.startswith("note:")] == lines[18:19]


def test_oracle_emit_states_solves_once(reference_config_file, tmp_path, capsys, monkeypatch):
    import scipy.linalg

    from wellcascade.oracle import fd_solve
    from wellcascade.potential import pair_profile

    cfg = load_config(reference_config_file)
    expected = fd_solve(pair_profile(cfg.spec.pair(1)), 4, cfg.oracle, cfg.constants).levels
    real, real_stein, calls = scipy.linalg.eigh_tridiagonal, scipy.linalg.lapack.dstein, []

    def counting(*args, **kwargs):
        calls.append((kwargs["select"], kwargs.get("eigvals_only", False)))
        return real(*args, **kwargs)

    def stein(*args):
        calls.append("stein")
        return real_stein(*args)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    monkeypatch.setattr(scipy.linalg.lapack, "dstein", stein)
    rc = main(["oracle", "--config", str(reference_config_file), "--pair", "2", "--levels", "4",
               "--emit-states", "--output-dir", str(tmp_path)])
    assert rc == 0
    # one LAPACK count of the bound states by value certifies the oracle's own,
    # then one inverse iteration gives the states at the printed levels
    assert calls == [("v", True), "stein"]
    rows = capsys.readouterr().out.splitlines()[2:6]
    assert [row.split()[2] for row in rows] == [f"{e:.9f}" for e in expected]
    header = (tmp_path / "oracle_pair2_states.csv").read_text().splitlines()[0]
    assert header == "x_A,psi_0,psi_1,psi_2,psi_3"


def test_oracle_count_disagreement_is_a_computation_error(reference_config_file, capsys,
                                                          monkeypatch):
    from wellcascade import oracle

    real = oracle._bound_count
    monkeypatch.setattr(oracle, "_bound_count", lambda *args: real(*args) + 1)
    rc = main(["oracle", "--config", str(reference_config_file), "--pair", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("computation error: at E = 1.585 eV the closed-form Sturm count is 13")


@pytest.mark.parametrize("mode", [["--pair", "1"], ["--cascade"]], ids=["pair", "cascade"])
@pytest.mark.parametrize("levels", ["0", "-1"])
def test_oracle_rejects_non_positive_levels(reference_config_file, capsys, mode, levels):
    rc = main(["oracle", "--config", str(reference_config_file), *mode, f"--levels={levels}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --levels" in captured.err


def test_oracle_cascade_rejects_emit_states(reference_config_file, tmp_path, capsys):
    # the states are written in pair mode only; a cascade run must not drop the flag silently
    out = tmp_path / "states"
    rc = main(["oracle", "--config", str(reference_config_file), "--cascade", "--emit-states",
               "--output-dir", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "--emit-states" in line and "--cascade" in line and "Traceback" not in line
    assert not out.exists()


def test_oracle_cascade_command(reference_config_file, capsys):
    rc = main(["oracle", "--config", str(reference_config_file), "--cascade", "--levels", "4"])
    assert rc == 0
    assert "fd_global_eV" in capsys.readouterr().out


def test_calibrate_command(reference_config_file, capsys):
    rc = main(
        [
            "calibrate",
            "--config",
            str(reference_config_file),
            "--pair",
            "1",
            "--targets",
            "1.445,1.460",
            "--range",
            "60.15,60.25",
        ]
    )
    assert rc == 0
    assert "calibrated distance_A" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--range", "60"),
        ("--range", "60,61,62"),
        ("--range", "60,x"),
        ("--targets", "1.445,abc"),
        ("--targets", ","),
    ],
)
def test_calibrate_rejects_malformed_numbers(reference_config_file, capsys, flag, value):
    args = {"--targets": "1.445,1.460", "--range": "60.15,60.25", flag: value}
    rc = main(
        ["calibrate", "--config", str(reference_config_file), "--pair", "1",
         "--targets", args["--targets"], "--range", args["--range"]]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}" in captured.err


def test_calibrate_rejects_non_finite_target(reference_config_file, capsys):
    rc = main(["calibrate", "--config", str(reference_config_file), "--pair", "1",
               "--targets", "nan,1.46", "--range", "60,60.3"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "nan" in captured.err


def test_calibrate_names_an_empty_solve_window(reference_config_file, capsys):
    # pair 1's barrier top lies below 1.95 eV: no distance has a level in the window
    rc = main(["calibrate", "--config", str(reference_config_file), "--pair", "1",
               "--targets", "2.0,2.1", "--range", "60,61"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "computation error: calibration failed: no distance in [60, 61] has a level "
        "in the solve window [1.95, 2.15] eV\n"
    )


def test_wavefunction_command(tmp_path, reference_config_file, reference_run_config):
    rc = main(
        [
            "wavefunction",
            "--config",
            str(reference_config_file),
            "--output-dir",
            str(tmp_path),
            "--pair",
            "1",
            "--level",
            "0",
            "--points",
            "501",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "wavefunction_PB_0.csv").read_text().strip().splitlines()
    assert lines[0] == "x_A,psi"
    assert len(lines) == 502
    pair = reference_run_config.spec.pair(0)
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-0.5 * (pair.distance + pair.width))
    assert float(first[1]) == 0.0


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_exits_2():
    assert main(["solve-pair"]) == 2


def test_config_error_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    for extra in ("\nspin = up\n", "\n[solver]\ngrid_step_eV = inf\n"):
        bad.write_text(MINIMAL + extra)
        assert main(["cascade", "--config", str(bad), "--output-dir", str(tmp_path)]) == 2
    assert main(["cascade", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_computation_error_exits_1(tmp_path):
    cfg = tmp_path / "detuned.cfg"
    cfg.write_text(MINIMAL + "\nabsorption_target_eV = 0.5\n")
    assert main(["cascade", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 1


def test_level_out_of_range_exits_1(tmp_path, reference_config_file):
    rc = main(
        [
            "wavefunction",
            "--config",
            str(reference_config_file),
            "--output-dir",
            str(tmp_path),
            "--pair",
            "1",
            "--level",
            "99",
        ]
    )
    assert rc == 1


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this checkout's source."""
    env = dict(os.environ)
    src = str(Path(wellcascade.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_leaves_scipy_unloaded(reference_config_file, tmp_path):
    # importing the CLI loads no scipy, and the cascade command loads neither
    # scipy nor the oracle or the wavefunctions
    code = (
        "import sys, wellcascade.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
        "                  or m in ('wellcascade.oracle', 'wellcascade.wavefunctions'))\n"
        "after_import = loaded()\n"
        "status = wellcascade.cli.main(sys.argv[1:])\n"
        "print(after_import, loaded(), status)\n"
    )
    out = _fresh_python(
        code, "cascade", "--config", str(reference_config_file), "--output-dir", str(tmp_path)
    )
    assert out.splitlines()[-1] == "[] [] 0"
    assert (tmp_path / "report.json").read_bytes() == GOLDEN_REPORT.read_bytes()


def test_package_names_load_on_first_use():
    homes = {
        "CascadeSpec": "wellcascade.potential",
        "WellPair": "wellcascade.potential",
        "build_wavefunction": "wellcascade.wavefunctions",
        "fd_solve": "wellcascade.oracle",
        "solve_cascade": "wellcascade.cascade",
        "solve_pair": "wellcascade.eigensolver",
    }
    code = (
        "import importlib, json, sys, wellcascade\n"
        "submodules = sorted(m for m in sys.modules if m.startswith('wellcascade.'))\n"
        "names = {}\n"
        "exec('from wellcascade import *', names)\n"
        "homes = json.loads(sys.argv[1])\n"
        "print(json.dumps({\n"
        "    'submodules': submodules,\n"
        "    'bound': sorted(n for n in names if not n.startswith('__')),\n"
        "    'home': sorted(n for n in names if n in homes\n"
        "                   and names[n] is getattr(importlib.import_module(homes[n]), n)),\n"
        "    'dir': sorted(set(homes) & set(dir(wellcascade))),\n"
        "}))\n"
    )
    seen = json.loads(_fresh_python(code, json.dumps(homes)))
    assert seen["submodules"] == []
    assert sorted(wellcascade.__all__) == sorted(homes)
    assert seen["bound"] == seen["home"] == seen["dir"] == sorted(homes)
    with pytest.raises(AttributeError, match="no_such_name"):
        wellcascade.no_such_name
