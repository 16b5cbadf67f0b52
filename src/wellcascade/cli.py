"""Command-line surface: config ingestion, subcommands, file outputs.

Subcommands: solve-pair, scan-pair, oracle, times, cascade, calibrate,
wavefunction.  Exit codes: 0 success, 1 computation error (for example a
resonance search that comes up empty), 2 configuration or usage error.

The configuration file is flat INI text with sections [wells], [solver],
[oracle], [output] and optionally [constants].  Keys are case sensitive and
unknown keys are rejected rather than ignored; the [solver], [oracle] and
[constants] keys and the two schedule keys of [wells] are named once, in
``_KEYWORDS``.

This module writes every output file: JSON through ``_write_json`` (the
report and solve-pair dictionaries are built here) and every CSV through
``_write_csv``, numbers at 9 significant digits, LF line ends on every
platform.  All file outputs are deterministic for a given config: no
timestamps or host information is ever written into data files.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import cascade as cascade_mod
from .dynamics import ResonantPair, decay_time, tunneling_time
from .eigensolver import (
    CalibrationError,
    Level,
    SolveResult,
    SolverConfig,
    calibrate_depth,
    calibrate_distance,
    solve_pair,
    uniform_grid,
)
from .oracle import FdConfig, SturmCountError, fd_solve, fd_states
from .potential import CascadeSpec, WellPair, cascade_profile, pair_profile
from .quantities import PhysicalConstants, make_constants
from .transcendental import GridScan, grid_scan
from .wavefunctions import build_wavefunction, sample_wavefunction

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "report_to_dict", "main"]

OUTPUT_DIR_ENV = "WELLCASCADE_OUTDIR"

_REQUIRED_KEYS = (("wells", "widths_A"), ("wells", "depths_eV"), ("wells", "distances_A"))


class ConfigError(ValueError):
    """Configuration rejected before any computation ran."""


@dataclass(frozen=True)
class RunConfig:
    spec: CascadeSpec
    solver: SolverConfig
    oracle: FdConfig
    output_dir: str
    constants: PhysicalConstants


def _floats(section: str, key: str, raw: str) -> list[float]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise ConfigError(f"[{section}] {key}: cannot parse {piece!r} as a number")
    if not out:
        raise ConfigError(f"[{section}] {key}: no values given")
    return out


def _float(section: str, key: str, raw: str) -> float:
    values = _floats(section, key, raw)
    if len(values) != 1:
        raise ConfigError(f"[{section}] {key}: expected a single number, got {len(values)}")
    return values[0]


def _bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer")


# [section] key -> (keyword of the object the section builds, parser of the value)
_KEYWORDS = {
    "wells": {
        "absorption_target_eV": ("absorption_target_ev", _float),
        "resonance_window_eV": ("resonance_window_ev", _float),
    },
    "solver": {
        "grid_step_eV": ("grid_step", _float),
        "residual_tol": ("residual_tol", _float),
    },
    "oracle": {
        "grid_points": ("grid_points", _int),
        "extrapolate": ("extrapolate", _bool),
    },
    "constants": {
        field.name: (field.name, _float) for field in dataclasses.fields(PhysicalConstants)
    },
}

_KNOWN_KEYS = {
    **_KEYWORDS,
    "wells": {
        "labels", "closing_distance_A", *(key for _, key in _REQUIRED_KEYS), *_KEYWORDS["wells"]
    },
    "output": {"directory"},
}


def _build(parser: configparser.ConfigParser, section: str, build, rejected: str):
    """Call ``build`` with the section's keys parsed into its keywords."""
    values = parser[section] if parser.has_section(section) else {}
    kwargs = {
        keyword: parse(section, key, values[key])
        for key, (keyword, parse) in _KEYWORDS[section].items()
        if key in values
    }
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {rejected}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text into a :class:`RunConfig`.

    Unknown sections or keys are errors; missing required keys are reported
    all at once.  Geometry and tolerance invariants are checked here, before
    any computation.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    missing = [
        f"[{sec}] {key}"
        for sec, key in _REQUIRED_KEYS
        if not parser.has_option(sec, key)
    ]
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(missing))

    wells = parser["wells"]
    widths = _floats("wells", "widths_A", wells["widths_A"])
    if len(widths) == 1:
        widths = widths * 4
    if len(widths) != 4:
        raise ConfigError(f"[wells] widths_A: expected 1 or 4 values, got {len(widths)}")
    depths = _floats("wells", "depths_eV", wells["depths_eV"])
    if len(depths) != 4:
        raise ConfigError(f"[wells] depths_eV: expected 4 values, got {len(depths)}")
    distances = _floats("wells", "distances_A", wells["distances_A"])
    if len(distances) != 3:
        raise ConfigError(f"[wells] distances_A: expected 3 values, got {len(distances)}")
    if parser.has_option("wells", "closing_distance_A"):
        distances = distances + [_float("wells", "closing_distance_A", wells["closing_distance_A"])]
    labels = ("P", "B", "H", "Q")
    if parser.has_option("wells", "labels"):
        raw_labels = tuple(s.strip() for s in wells["labels"].split(",") if s.strip())
        if len(raw_labels) != 4:
            raise ConfigError(f"[wells] labels: expected 4 labels, got {len(raw_labels)}")
        labels = raw_labels

    def build_spec(**schedule) -> CascadeSpec:
        return CascadeSpec(tuple(widths), tuple(distances), tuple(depths), labels, **schedule)

    spec = _build(parser, "wells", build_spec, "invalid geometry or schedule")
    solver = _build(parser, "solver", SolverConfig, "invalid configuration")
    oracle = _build(parser, "oracle", FdConfig, "invalid configuration")

    output_dir = "out"
    if parser.has_option("output", "directory"):
        output_dir = parser["output"]["directory"].strip()
        if not output_dir:
            raise ConfigError("[output] directory: must not be empty")

    constants = _build(parser, "constants", make_constants, "invalid override")

    return RunConfig(
        spec=spec,
        solver=solver,
        oracle=oracle,
        output_dir=output_dir,
        constants=constants,
    )


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"))


def reference_config_path() -> Path:
    """Path of the packaged reference configuration."""
    return Path(__file__).parent / "data" / "paper.cfg"


# ---------------------------------------------------------------- helpers


def _output_dir(config: RunConfig, override: str | None) -> Path:
    directory = override or os.environ.get(OUTPUT_DIR_ENV) or config.output_dir
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_pair(config: RunConfig, index: int) -> tuple[WellPair, float, str]:
    """Pair geometry, global offset and display name for pair 1..4."""
    spec = config.spec
    if not 1 <= index <= 4:
        raise ValueError(f"pair index must be 1..4, got {index}")
    if index > len(spec.distances):
        raise ValueError(f"pair {index} (closing) requested but no closing_distance_A configured")
    return spec.pair(index - 1), spec.pair_offset(index - 1), "".join(spec.pair_labels(index - 1))


def _sig9(x: float) -> float:
    return float(f"{x:.9g}")


def _solver_dict(cfg: SolverConfig) -> dict:
    # schema 1 keeps two fixed entries: every bracket closes at adjacent
    # doubles, inside 1e-9 eV, and nothing caps the level count
    return {
        "grid_step_eV": _sig9(cfg.grid_step),
        "refine_tol_eV": 1e-09,
        "residual_tol": _sig9(cfg.residual_tol),
        "max_levels": None,
    }


def _level_dict(lv: Level, offset_ev: float) -> dict:
    return {
        "index": lv.index,
        "energy_eV": _sig9(lv.energy),
        "energy_global_eV": _sig9(lv.energy + offset_ev),
        "regime": str(lv.regime),
        "residual": _sig9(lv.residual),
    }


def _min_spacing_over_step(result: SolveResult) -> float | None:
    """Smallest gap between adjacent levels in grid steps; None below two levels.

    Below 1, a doublet shares one grid cell; the oscillation count still finds
    both levels, and each one's residual is scaled at that shared cell.
    """
    energies = [lv.energy for lv in result.levels]
    if len(energies) < 2:
        return None
    return _sig9(min(b - a for a, b in zip(energies, energies[1:])) / result.config.grid_step)


def _solve_result_dict(result: SolveResult, offset: float) -> dict:
    return {
        "schema_version": 1,
        "pair": {
            "width_A": _sig9(result.pair.width),
            "distance_A": _sig9(result.pair.distance),
            "v_shallow_eV": _sig9(result.pair.v_shallow),
            "v_deep_eV": _sig9(result.pair.v_deep),
            "offset_eV": _sig9(offset),
        },
        "config": _solver_dict(result.config),
        "levels": [_level_dict(lv, offset) for lv in result.levels],
        "diagnostics": {
            "grid_points": result.diagnostics.grid_points,
            "sign_changes": result.diagnostics.sign_changes,
            "skipped_intervals": [list(map(_sig9, iv)) for iv in result.diagnostics.skipped_intervals],
            "discarded_candidates": [_sig9(e) for e in result.diagnostics.discarded_candidates],
            "min_spacing_over_step": _min_spacing_over_step(result),
        },
    }


def report_to_dict(report: cascade_mod.CascadeReport) -> dict:
    """JSON-ready dictionary; deterministic for identical inputs.

    Energies carry 9 significant digits; times appear in seconds and in a
    convenience picoseconds field.  No run metadata (timestamps, hosts) is
    included so byte-identical reruns stay byte-identical.
    """
    spec = report.spec
    return {
        "schema_version": 1,
        "spec": {
            "labels": list(spec.labels),
            "widths_A": [_sig9(w) for w in spec.widths],
            "depths_eV": [_sig9(v) for v in spec.depths],
            "distances_A": [_sig9(x) for x in spec.distances],
            "absorption_target_eV": _sig9(spec.absorption_target_ev),
            "resonance_window_eV": _sig9(spec.resonance_window_ev),
        },
        "solver": _solver_dict(report.solver),
        "wells": [
            {
                "label": w.label,
                "width_A": _sig9(w.width),
                "depth_eV": _sig9(w.depth_ev),
                "floor_eV": _sig9(w.floor_ev),
                "ground_eV": _sig9(w.ground_ev),
            }
            for w in report.wells
        ],
        "pairs": [
            {
                "index": p.index,
                "wells": p.name,
                "distance_A": _sig9(p.result.pair.distance),
                "v_shallow_eV": _sig9(p.result.pair.v_shallow),
                "v_deep_eV": _sig9(p.result.pair.v_deep),
                "offset_eV": _sig9(p.offset_ev),
                "levels": [_level_dict(lv, p.offset_ev) for lv in p.result.levels],
            }
            for p in report.pairs
        ],
        "resonances": [
            {
                "pair": i + 1,
                "E_minus_eV": _sig9(r.e_minus),
                "E_plus_eV": _sig9(r.e_plus),
                "splitting_eV": _sig9(r.splitting),
            }
            for i, r in enumerate(report.resonances)
        ],
        "absorption": {
            "from_eV": _sig9(report.absorption.from_ev),
            "to_eV": _sig9(report.absorption.to_ev),
            "delta_eV": _sig9(report.absorption.delta_ev),
            "wavelength_nm": _sig9(report.absorption.wavelength_nm),
        },
        "steps": [
            {
                "step": i + 1,
                "from_site": s.from_site,
                "to_site": s.to_site,
                "E_plus_eV": _sig9(s.resonance.e_plus),
                "E_minus_eV": _sig9(s.resonance.e_minus),
                "splitting_eV": _sig9(s.resonance.splitting),
                "tunneling_time_s": _sig9(s.tunneling_time_s),
                "tunneling_time_ps": _sig9(s.tunneling_time_s * 1e12),
                "decay_gap_eV": _sig9(s.decay_gap_ev),
                "decay_time_s": _sig9(s.decay_time_s),
                "decay_time_ps": _sig9(s.decay_time_s * 1e12),
                "tunneling_vs_decay_ratio": _sig9(s.tunneling_vs_decay_ratio),
            }
            for i, s in enumerate(report.steps)
        ],
        "comparison": {
            "reference_model": {
                "times_ps": [_sig9(t) for t in cascade_mod.REFERENCE_TIMES_PS],
                "levels_eV": {
                    k: (list(map(_sig9, v)) if isinstance(v, tuple) else _sig9(v))
                    for k, v in cascade_mod.REFERENCE_LEVELS_EV.items()
                },
                "time_deviation_ps": [
                    _sig9(s.tunneling_time_s * 1e12 - t)
                    for s, t in zip(report.steps, cascade_mod.REFERENCE_TIMES_PS)
                ],
            },
            "experiment": [
                {
                    "step": row.step,
                    "sites": row.sites,
                    "model_time_ps": _sig9(row.model_time_ps),
                    "reference_time_ps": _sig9(row.reference_time_ps),
                    "time_ratio": _sig9(row.time_ratio),
                    "same_order": row.same_order,
                    "model_energy_from_eV": _sig9(row.model_energy_from_ev),
                    "model_energy_to_eV": _sig9(row.model_energy_to_ev),
                    "reference_energy_from_eV": _sig9(row.reference_energy_from_ev),
                    "reference_energy_to_eV": _sig9(row.reference_energy_to_ev),
                }
                for row in cascade_mod.compare_to_experiment(report)
            ],
        },
        "notes": list(report.notes),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")


def _write_csv(path: Path, header, rows) -> None:
    """Header line, then one line per row: numbers at 9 significant digits, strings as given."""
    lines = [",".join(header)]
    lines.extend(",".join(v if isinstance(v, str) else f"{v:.9g}" for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_scan_csv(path: Path, scan: GridScan) -> None:
    columns = zip(scan.energies, scan.lhs, scan.rhs, scan.mismatch, scan.regime_b, scan.pole)
    _write_csv(
        path,
        ("E_eV", "lhs", "rhs", "mismatch", "regime", "pole_flag"),
        ((e, lhs, rhs, m, "B" if b else "A", int(pole)) for e, lhs, rhs, m, b, pole in columns),
    )


# ------------------------------------------------------------- commands


def _cmd_solve_pair(args) -> int:
    config = load_config(args.config)
    pair, offset, name = _resolve_pair(config, args.pair)
    if args.emin is not None and args.emax is not None and args.emin >= args.emax:
        raise ValueError(f"empty energy window: --emin {args.emin} is not below --emax {args.emax}")
    result = solve_pair(
        pair, config.solver, e_min=args.emin, e_max=args.emax, constants=config.constants
    )
    print(f"pair {args.pair} ({name}): width {pair.width} A, distance {pair.distance} A, "
          f"depths {pair.v_shallow}/{pair.v_deep} eV, global offset {offset} eV")
    print(f"{'idx':>3} {'E_local_eV':>14} {'E_global_eV':>14} {'regime':>6} {'residual':>10}")
    for lv in result.levels:
        print(f"{lv.index:>3} {lv.energy:>14.9f} {lv.energy + offset:>14.9f} "
              f"{str(lv.regime):>6} {lv.residual:>10.2e}")
    print(f"{len(result.levels)} bound state(s)")
    out = _output_dir(config, args.output_dir) / f"solve_pair{args.pair}.json"
    _write_json(out, _solve_result_dict(result, offset))
    print(f"wrote {out}")
    return 0


def _cmd_scan_pair(args) -> int:
    config = load_config(args.config)
    pair, _, name = _resolve_pair(config, args.pair)
    e_lo = max(args.emin, args.step)
    e_hi = min(args.emax, pair.v_deep - args.step)
    if e_hi <= e_lo:
        raise ValueError(f"empty scan range ({args.emin}, {args.emax}) for pair {args.pair}")
    scan = grid_scan(pair, uniform_grid(e_lo, e_hi, args.step), config.constants)
    out = _output_dir(config, args.output_dir) / f"scan_pair{args.pair}.csv"
    _write_scan_csv(out, scan)
    print(f"pair {args.pair} ({name}): scanned {scan.energies.size} energies "
          f"in [{e_lo:.6g}, {e_hi:.6g}] eV")
    print(f"wrote {out}")
    return 0


def _cmd_oracle(args) -> int:
    config = load_config(args.config)
    if args.cascade:
        profile = cascade_profile(config.spec)
        n_levels = args.levels or 12
        fd = fd_solve(profile, n_levels, config.oracle, config.constants)
        globals_all = []
        for i in (1, 2, 3):
            pair, offset, _ = _resolve_pair(config, i)
            result = solve_pair(pair, config.solver, constants=config.constants)
            globals_all.extend(lv.energy + offset for lv in result.levels)
        globals_all.sort()
        print(f"{'idx':>3} {'fd_global_eV':>14} {'nearest_pairwise_eV':>20} {'diff_eV':>12}")
        for i, e in enumerate(fd.levels):
            nearest = min(globals_all, key=lambda g: abs(g - e)) if globals_all else float("nan")
            print(f"{i:>3} {e:>14.9f} {nearest:>20.9f} {e - nearest:>12.2e}")
        if fd.truncated:
            print(f"note: only {len(fd.levels)} bound state(s) below the barrier top")
        return 0
    pair, offset, name = _resolve_pair(config, args.pair)
    result = solve_pair(pair, config.solver, constants=config.constants)
    n_levels = args.levels or max(len(result.levels), 1)
    profile = pair_profile(pair)
    states = None
    if args.emit_states:
        states = fd_states(profile, n_levels, config.oracle, config.constants)
    if states is not None and not config.oracle.extrapolate:
        # fd_states runs fd_solve's eigensolve, with vectors: same levels, one solve
        oracle_levels = states[1].tolist()
    else:
        oracle_levels = fd_solve(profile, n_levels, config.oracle, config.constants).levels
    print(f"pair {args.pair} ({name}): transcendental vs finite-difference (local eV)")
    print(f"{'idx':>3} {'transcendental':>15} {'finite_diff':>15} {'diff':>12}")
    for i in range(max(len(result.levels), len(oracle_levels))):
        t = f"{result.levels[i].energy:>15.9f}" if i < len(result.levels) else " " * 15
        o = f"{oracle_levels[i]:>15.9f}" if i < len(oracle_levels) else " " * 15
        d = (
            f"{result.levels[i].energy - oracle_levels[i]:>12.2e}"
            if i < len(result.levels) and i < len(oracle_levels)
            else " " * 12
        )
        print(f"{i:>3} {t} {o} {d}")
    if states is not None:
        x, _, vectors = states
        out = _output_dir(config, args.output_dir) / f"oracle_pair{args.pair}_states.csv"
        header = ("x_A", *(f"psi_{i}" for i in range(vectors.shape[1])))
        _write_csv(out, header, ((xi, *row) for xi, row in zip(x, vectors)))
        print(f"wrote {out}")
    return 0


def _cmd_times(args) -> int:
    if args.from_json:
        try:
            payload = json.loads(Path(args.from_json).read_text(encoding="utf-8"))
            levels = [lv["energy_eV"] for lv in payload["levels"]]
            if not all(type(e) in (int, float) for e in levels):
                raise TypeError("an energy_eV is not a number")
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{args.from_json} is not a solve-pair JSON file ({exc!r})") from None
        if args.upper_index is None or args.lower_index is None:
            raise ValueError("--from-json requires --upper-index and --lower-index")
        if not all(0 <= i < len(levels) for i in (args.upper_index, args.lower_index)):
            raise ValueError(
                f"level indices ({args.lower_index}, {args.upper_index}) out of range; "
                f"file has {len(levels)} levels"
            )
        e_plus = levels[args.upper_index]
        e_minus = levels[args.lower_index]
    else:
        if args.e_plus is None or args.e_minus is None:
            raise ValueError("provide --e-plus and --e-minus, or --from-json with indices")
        e_plus, e_minus = args.e_plus, args.e_minus
    pair = ResonantPair(e_plus=e_plus, e_minus=e_minus)
    t = tunneling_time(pair, args.k)
    dt = None if args.decay_gap is None else decay_time(args.decay_gap)
    print(f"E+ = {e_plus:.9g} eV, E- = {e_minus:.9g} eV, splitting = {pair.splitting:.9g} eV")
    print(f"tunneling time (k={args.k}): {t:.9g} s = {t * 1e12:.6g} ps")
    if dt is not None:
        print(f"decay gap {args.decay_gap:.9g} eV -> decay time {dt:.9g} s = {dt * 1e12:.6g} ps")
        print(f"tunneling/decay ratio: {t / dt:.6g}")
    return 0


def _cmd_cascade(args) -> int:
    config = load_config(args.config)
    report = cascade_mod.solve_cascade(config.spec, config.solver, constants=config.constants)
    out_dir = _output_dir(config, args.output_dir)
    _print_cascade_table(report)
    out = out_dir / "report.json"
    _write_json(out, report_to_dict(report))
    print(f"wrote {out}")
    if args.emit_profile:
        out = out_dir / "profile.csv"
        outline = [(x, v) for x0, x1, v in cascade_profile(config.spec).segments for x in (x0, x1)]
        _write_csv(out, ("x_A", "V_eV"), outline)
        print(f"wrote {out}")
    if args.emit_scan:
        for i, resonance in enumerate(report.resonances):
            pair, offset, _ = _resolve_pair(config, i + 1)
            pad = config.spec.resonance_window_ev
            e_lo = max(resonance.e_minus - offset - pad, config.solver.grid_step)
            e_hi = min(resonance.e_plus - offset + pad, pair.v_deep - config.solver.grid_step)
            energies = uniform_grid(e_lo, e_hi, 0.5 * config.solver.grid_step)
            out = out_dir / f"resonance_scan_pair{i + 1}.csv"
            _write_scan_csv(out, grid_scan(pair, energies, config.constants))
            print(f"wrote {out}")
    return 0


def _print_cascade_table(report) -> None:
    print("wells (energies on the global reference, eV):")
    print(f"{'site':>5} {'width_A':>9} {'depth_eV':>9} {'floor_eV':>9} {'ground_eV':>12}")
    for w in report.wells:
        print(f"{w.label:>5} {w.width:>9.4g} {w.depth_ev:>9.4g} {w.floor_ev:>9.4g} {w.ground_ev:>12.6f}")
    a = report.absorption
    print(f"\nabsorption: {a.from_ev:.6f} -> {a.to_ev:.6f} eV, "
          f"delta {a.delta_ev:.6f} eV, wavelength {a.wavelength_nm:.2f} nm")
    print("\ntransfer schedule:")
    print(f"{'step':>4} {'sites':>7} {'E-':>10} {'E+':>10} {'split_eV':>10} "
          f"{'T_ps':>9} {'gap_eV':>8} {'decay_ps':>10} {'ratio':>8}")
    for i, s in enumerate(report.steps):
        r = s.resonance
        print(f"{i + 1:>4} {s.from_site + '->' + s.to_site:>7} {r.e_minus:>10.5f} {r.e_plus:>10.5f} "
              f"{r.splitting:>10.3e} {s.tunneling_time_s * 1e12:>9.4f} {s.decay_gap_ev:>8.4f} "
              f"{s.decay_time_s * 1e12:>10.5f} {s.tunneling_vs_decay_ratio:>8.1f}")
    print("\ncomparison with the measured reaction-center steps:")
    print(f"{'step':>4} {'model_ps':>10} {'exp_ps':>8} {'ratio':>9} {'same_order':>10}")
    for row in cascade_mod.compare_to_experiment(report):
        print(f"{row.step:>4} {row.model_time_ps:>10.4f} {row.reference_time_ps:>8.4g} "
              f"{row.time_ratio:>9.4f} {str(row.same_order).lower():>10}")
    for note in report.notes:
        print(f"note: {note}")


def _cmd_calibrate(args) -> int:
    config = load_config(args.config)
    pair, offset, name = _resolve_pair(config, args.pair)
    if args.mode == "distance":
        result = calibrate_distance(
            pair, args.targets, args.range, config=config.solver, constants=config.constants
        )
        label = "distance_A"
    else:
        result = calibrate_depth(
            pair,
            args.vary_fixed,
            args.targets,
            args.range,
            config=config.solver,
            constants=config.constants,
        )
        label = "depth_eV"
    print(f"pair {args.pair} ({name}): calibrated {label} = {result.value:.6f} "
          f"(misfit {result.misfit:.3e} eV)")
    print("matched levels (pair-local eV): " + ", ".join(f"{e:.6f}" for e in result.levels))
    print(f"global offset of this pair: {offset} eV")
    return 0


def _cmd_wavefunction(args) -> int:
    config = load_config(args.config)
    pair, offset, name = _resolve_pair(config, args.pair)
    result = solve_pair(pair, config.solver, constants=config.constants)
    if args.level >= len(result.levels) or args.level < 0:
        raise ValueError(
            f"level index {args.level} out of range; pair {args.pair} has "
            f"{len(result.levels)} bound state(s)"
        )
    level = result.levels[args.level]
    wf = build_wavefunction(pair, level, config.constants)
    out = _output_dir(config, args.output_dir) / f"wavefunction_{name}_{args.level}.csv"
    _write_csv(out, ("x_A", "psi"), zip(*sample_wavefunction(wf, args.points)))
    print(f"pair {args.pair} ({name}) level {args.level}: E = {level.energy:.9f} eV "
          f"(global {level.energy + offset:.9f} eV), regime {level.regime}, "
          f"wall residual {wf.wall_residual:.2e}")
    print(f"wrote {out}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _number_list(text: str) -> list[float]:
    """argparse type of a non-empty comma-separated list of numbers."""
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected numbers 'a,b,...', got {text!r}")
    return values


def _number_pair(text: str) -> tuple[float, float]:
    """argparse type of a ``lo,hi`` range."""
    values = _number_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    return values[0], values[1]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellcascade",
        description="Bound states and tunneling times of asymmetric double square wells, "
        "and the four-well electron-transfer cascade built from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the INI configuration file")
        p.add_argument("--output-dir", default=None,
                       help=f"override output directory (also via ${OUTPUT_DIR_ENV})")

    p = sub.add_parser("solve-pair", help="find all bound states of one pair")
    add_common(p)
    p.add_argument("--pair", type=int, required=True, help="pair index 1..4 (4 = closing)")
    p.add_argument("--emin", type=float, default=None)
    p.add_argument("--emax", type=float, default=None)
    p.set_defaults(func=_cmd_solve_pair)

    p = sub.add_parser("scan-pair", help="tabulate lhs/rhs/mismatch over an energy range")
    add_common(p)
    p.add_argument("--pair", type=int, required=True)
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=_cmd_scan_pair)

    p = sub.add_parser("oracle", help="finite-difference cross-check of the solver")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", type=int)
    group.add_argument("--cascade", action="store_true")
    p.add_argument("--levels", type=_positive_int, default=None)
    p.add_argument("--emit-states", action="store_true",
                   help="write oracle eigenfunctions as CSV (pair mode)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("times", help="tunneling and decay times from doublet energies")
    p.add_argument("--e-plus", type=float, default=None)
    p.add_argument("--e-minus", type=float, default=None)
    p.add_argument("--from-json", default=None, help="solve-pair JSON output to read levels from")
    p.add_argument("--upper-index", type=int, default=None)
    p.add_argument("--lower-index", type=int, default=None)
    p.add_argument("--k", type=int, default=0, help="oscillation maximum index (default 0)")
    p.add_argument("--decay-gap", type=float, default=None, help="intra-well decay gap in eV")
    p.set_defaults(func=_cmd_times)

    p = sub.add_parser("cascade", help="solve the four-well chain and write report.json")
    add_common(p)
    p.add_argument("--emit-profile", action="store_true", help="also write profile.csv")
    p.add_argument("--emit-scan", action="store_true",
                   help="also write per-pair scan CSVs around each resonance")
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("calibrate", help="tune distance or one depth to target levels")
    add_common(p)
    p.add_argument("--pair", type=int, required=True)
    p.add_argument("--targets", type=_number_list, required=True,
                   help="comma-separated pair-local energies (eV)")
    p.add_argument("--mode", choices=("distance", "depth"), default="distance")
    p.add_argument("--range", type=_number_pair, required=True, help="search range 'lo,hi'")
    p.add_argument("--vary-fixed", choices=("shallow", "deep"), default="shallow",
                   help="depth mode: which depth stays fixed (the other is searched)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("wavefunction", help="reconstruct one level's wavefunction as CSV")
    add_common(p)
    p.add_argument("--pair", type=int, required=True)
    p.add_argument("--level", type=int, required=True, help="0-based level index")
    p.add_argument("--points", type=int, default=2001)
    p.set_defaults(func=_cmd_wavefunction)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CalibrationError, cascade_mod.ResonanceNotFoundError, SturmCountError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
