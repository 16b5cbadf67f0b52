"""wellcascade benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cascade-cli --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``cascade-cli``: ``wellcascade cascade`` on the bundled paper.cfg, one fresh
  interpreter per op, each report checked against ``golden/report.json``;
* ``calibrate-sweep``: in-process distance and depth calibrations that must
  recover a hidden value drawn from the seed;
* ``pair-crosscheck``: in-process full-range solves of seeded geometries,
  each checked against the finite-difference oracle and by reconstructing
  every level's wavefunction.

The load is a closed loop with one client: the next op starts when the last
one has finished.  After one untimed warm-up op, ops run until ``--seconds``
have passed (and at least 11 have run, so the tail percentile has ten
samples beyond it).  Only the program's part of an op is timed; the checks
of its outputs are not.  Right before each op a fixed reference task that
calls nothing of wellcascade, but does the op's kinds of work, runs the same
way the op does (a fresh interpreter for cascade-cli, in this process
otherwise); the gated op metric is the median of op time over reference
time, which cancels most of the host's drift.

An op whose output is wrong counts as failed, except where it hits one of the
program's known defects (``workloads.KNOWN_DEFECTS``) on its known signature:
those ops are counted in ``defect_ratio`` and listed by defect, so the defects
stay visible while ``failed`` stays 0 until something new goes wrong.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, first untraced and then with every public function the workload
reaches wrapped by ``tracer.Tracer``, and prints the per-layer metrics and
the tracing overhead (traced over untraced time of the same ops).  The spans are written to
``perfbench/.out/trace-<workload>-seed<seed>.npz`` at exit.

The program is always imported from ``src/`` of this checkout; the run exits
with code 2 before printing any result when that source is missing.  BLAS and
OpenMP pools are pinned to one thread in this process and in every child.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# End-to-end metrics in the result line, the ones BENCHMARK.json gates on.
# Every op is a deterministic computation, so the spread of its time is the
# host's.  This shared 2-vCPU host's speed drifts over minutes with its
# neighbours' load, fresh interpreters (every cascade-cli op) most: their
# times moved by up to 45% within minutes, so raw cascade-cli op times spread
# past any usable bound between runs.  The gated op metric is therefore
# op_rel_p50: the median of each op's time over the time of a fixed reference
# task run just before it, the same way (see Workload.reference).  Raw
# times are printed, not gated.
REPORTED = ("op_rel_p50", "setup_s", "peak_rss_mb")
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
SETUP_SAMPLES = 5  # this process plus four fresh set-up probes
# Set-up is mostly a fresh interpreter's imports, as host-sensitive as a
# cascade-cli op, so each set-up is paired with the reference interpreter
# (workloads.reference_child) run next to it, and setup_s is the median of
# set-up over reference time, in seconds of a host where that reference takes
# REFERENCE_CHILD_S.  The raw median is printed beside it.
REFERENCE_CHILD_S = 0.5
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and few ops, to check that every metric is printed")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, print the set-up time and exit")
    return parser.parse_args(argv)


# ------------------------------------------------------------------ set-up


def set_up(workload, seed: int, smoke: bool) -> dict:
    """Import the program, load its config, make the inputs; time both parts."""
    t0 = time.perf_counter()
    import wellcascade.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    workload.setup(seed, smoke)
    setup_s = time.perf_counter() - T_START
    import wellcascade

    if Path(wellcascade.__file__).resolve().parent != SRC / "wellcascade":
        raise SystemExit(f"wellcascade was imported from {wellcascade.__file__}, not {SRC}")
    return {"setup_s": setup_s, "import_s": import_s}


def run_child(cmd, env):
    """Run a child interpreter to completion and return its stdout and stderr."""
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc.stdout, proc.stderr


def setup_probe(args, env) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    out, _ = run_child(cmd, env)
    return json.loads(out.strip().splitlines()[-1])


def scipy_import_s(env) -> float:
    """Time ``import wellcascade.cli`` spends importing scipy.

    Sums the cumulative ``-X importtime`` figure of every outermost scipy
    entry, i.e. each scipy module imported by a module outside scipy; that
    includes whatever those imports pull in and is what a lazy import saves.
    """
    _, err = run_child([sys.executable, "-X", "importtime", "-c", "import wellcascade.cli"], env)
    entries = []  # (depth, module, cumulative us), children before their parent
    for line in err.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(fields[1])))

    def is_scipy(module):
        return module == "scipy" or module.startswith("scipy.")

    total_us = 0
    for i, (depth, module, cumulative) in enumerate(entries):
        parent = next((m for d, m, _ in entries[i + 1:] if d < depth), None)
        if is_scipy(module) and not (parent and is_scipy(parent)):
            total_us += cumulative
    return total_us * 1e-6


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# --------------------------------------------------------------- the loop


def attempt(workload, k, tracer):
    """Run op k; an exception becomes a failed op with its cause."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        return workload.op(k, tracer)
    except Exception:  # the loop must go on; the cause is reported
        return Outcome(
            seconds=time.perf_counter() - t0,
            causes=["error"],
            detail=traceback.format_exc(limit=3).strip().splitlines()[-1],
        )


def run_ops(workload, seconds: float, min_ops: int, tracer=None):
    """Closed loop, one client: op k+1 starts when op k has been checked.

    With a tracer, op k runs untraced and then traced, so the tracing
    overhead is measured on the same inputs at nearly the same moment.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    k = 0
    while len(untraced) < min_ops or time.perf_counter() - start < seconds:
        reference_s = workload.reference()
        untraced.append(attempt(workload, k, None))
        untraced[-1].reference_s = reference_s
        if tracer is not None:
            tracer.install()
            try:
                traced.append(attempt(workload, k, tracer))
            finally:
                tracer.restore()
        k += 1
    return untraced, traced


def p10(times):
    """10th percentile, nearest rank."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(0.1 * len(ordered)) - 1)]


def tail(times):
    """Highest percentile with ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < MIN_OPS:
        return ordered[-1], 100.0, 0
    k = n - MIN_OPS
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


# ---------------------------------------------------------- per-layer table

# name, unit, better, what it should move (end-to-end metric on workload)
PER_LAYER = (
    ("cli.import_s", "s", "lower",
     "op_p50_s on cascade-cli, setup_s on calibrate-sweep and pair-crosscheck"),
    ("cli.import_scipy_s", "s", "lower",
     "op_p50_s on cascade-cli, setup_s on calibrate-sweep and pair-crosscheck"),
    ("cli.main.self_s", "s/op", "lower", "op_p50_s on cascade-cli"),
    ("cli.output_bytes", "bytes/op", "lower", "op_p50_s on cascade-cli"),
    ("cascade.solve_cascade.calls", "calls/op", "lower", "op_p50_s on cascade-cli"),
    ("cascade.solve_cascade.busy_s", "s/op", "lower", "op_p50_s on cascade-cli"),
    ("cascade.solve_cascade.self_s", "s/op", "lower", "op_p50_s on cascade-cli"),
    ("eigensolver.solve_pair.calls", "calls/op", "lower",
     "ops_per_s on calibrate-sweep and pair-crosscheck, op_p50_s on cascade-cli"),
    ("eigensolver.solve_pair.busy_s", "s/op", "lower",
     "ops_per_s on calibrate-sweep and pair-crosscheck, op_p50_s on cascade-cli"),
    ("eigensolver.solve_pair.self_s", "s/op", "lower",
     "ops_per_s on calibrate-sweep and pair-crosscheck, op_p50_s on cascade-cli"),
    ("eigensolver.grid_points", "points/op", "lower",
     "ops_per_s on calibrate-sweep and pair-crosscheck, op_p50_s on cascade-cli"),
    ("eigensolver.roots", "levels/op", "higher", "ops_per_s on calibrate-sweep"),
    ("eigensolver.discarded", "levels/op", "lower", "ops_per_s on calibrate-sweep"),
    ("eigensolver.bisect_evals_per_root", "evals/root", "lower", "ops_per_s on calibrate-sweep"),
    ("eigensolver.calibrate.calls", "calls/op", "lower", "ops_per_s on calibrate-sweep"),
    ("eigensolver.calibrate.busy_s", "s/op", "lower", "ops_per_s on calibrate-sweep"),
    ("eigensolver.calibrate.solve_pairs_per_call", "calls/call", "lower",
     "ops_per_s on calibrate-sweep"),
    ("eigensolver.calibrate.missed_resonance", "calls/op", "lower",
     "defect_ratio on calibrate-sweep"),
    ("eigensolver.levels_missed", "levels/op", "lower", "defect_ratio on pair-crosscheck"),
    ("transcendental.grid_scan.calls", "calls/op", "lower",
     "ops_per_s on pair-crosscheck (2e-5 pairs), op_p50_s on cascade-cli"),
    ("transcendental.grid_scan.points", "points/op", "lower",
     "ops_per_s on pair-crosscheck (2e-5 pairs), op_p50_s on cascade-cli"),
    ("transcendental.grid_scan.busy_s", "s/op", "lower",
     "ops_per_s on pair-crosscheck (2e-5 pairs), op_p50_s on cascade-cli"),
    ("transcendental.grid_scan.points_per_s", "points/s", "higher",
     "ops_per_s on pair-crosscheck (2e-5 pairs), op_p50_s on cascade-cli"),
    ("transcendental.characteristic.calls", "calls/op", "lower", "ops_per_s on calibrate-sweep"),
    ("transcendental.characteristic.busy_s", "s/op", "lower", "ops_per_s on calibrate-sweep"),
    ("oracle.fd_solve.calls", "calls/op", "lower",
     "ops_per_s on pair-crosscheck only; nothing on the other two"),
    ("oracle.fd_solve.busy_s", "s/op", "lower",
     "ops_per_s on pair-crosscheck only; nothing on the other two"),
    ("oracle.fd_solve.rows", "rows/op", "lower",
     "ops_per_s on pair-crosscheck only; nothing on the other two"),
    ("oracle.fd_solve.kept_ratio", "ratio", "higher",
     "ops_per_s on pair-crosscheck only; nothing on the other two"),
    ("wavefunctions.build_wavefunction.calls", "calls/op", "lower",
     "ops_per_s and defect_ratio on pair-crosscheck"),
    ("wavefunctions.build_wavefunction.busy_s", "s/op", "lower",
     "ops_per_s and defect_ratio on pair-crosscheck"),
    ("wavefunctions.build_wavefunction.rejected", "levels/op", "lower",
     "ops_per_s and defect_ratio on pair-crosscheck"),
    ("dynamics.calls", "calls/op", "lower", "count only: under 1% of every workload"),
    ("trace.overhead_ratio", "ratio", "lower",
     "nothing: traced over untraced time of the same ops, minus one"),
)

# Each metric's source layer; a layer whose every wrapped name is gone is absent.
SOURCE_LAYER = {
    "eigensolver.grid_points": "eigensolver.solve_pair",
    "eigensolver.roots": "eigensolver.solve_pair",
    "eigensolver.discarded": "eigensolver.solve_pair",
    "eigensolver.bisect_evals_per_root": "transcendental.characteristic",
    "eigensolver.levels_missed": "oracle.fd_solve",
    "dynamics.calls": "dynamics",
}


def layer_metrics(tracer, traced, untraced, probes):
    """Per-layer metrics per traced op, absent metrics, each span name's share
    of the traced op time (self time), and a broken span invariant or None."""
    import numpy as np

    from tracer import ROOT_SPAN, TARGETS, check_nesting, self_times

    start, end, name, parent, op = tracer.arrays()
    problem = check_nesting(start, end, parent, op)
    duration = end - start
    selfs = self_times(start, end, parent)
    ids = {n: i for i, n in enumerate(tracer.names)}
    n_ops = len(traced)

    def mask(layer):
        return name == ids[layer] if layer in ids else np.zeros(len(name), dtype=bool)

    def calls(layer):
        return int(np.count_nonzero(mask(layer)))

    def busy(layer):
        return float(duration[mask(layer)].sum())

    def self_s(layer):
        return float(selfs[mask(layer)].sum())

    def calls_under(child, parent_layer):
        has_parent = parent >= 0
        under = np.zeros(len(name), dtype=bool)
        under[has_parent] = mask(parent_layer)[parent[has_parent]]
        return int(np.count_nonzero(mask(child) & under))

    # the self times of an op's spans must add up to the op's span
    if problem is None and n_ops:
        roots = np.nonzero(mask(ROOT_SPAN))[0]
        per_op = np.bincount(op, weights=selfs, minlength=int(op.max()) + 1)
        gap = np.abs(per_op[op[roots]] - duration[roots])
        if np.any(gap > 1e-9 + 1e-9 * duration[roots]):
            problem = f"self times miss their op span by up to {gap.max():.3e} s"

    c = tracer.counters
    roots_found = c["eigensolver.roots"]
    requested = c["oracle.fd_solve.requested"]
    scan_busy = busy("transcendental.grid_scan")
    values = {
        "cli.import_s": statistics.median(p["import_s"] for p in probes["setup"]),
        "cli.import_scipy_s": statistics.median(probes["scipy"]),
        "cli.main.self_s": self_s("cli.main") / n_ops,
        "cli.output_bytes": sum(o.counters.get("output_bytes", 0) for o in traced) / n_ops,
        "eigensolver.grid_points": c["eigensolver.grid_points"] / n_ops,
        "eigensolver.roots": roots_found / n_ops,
        "eigensolver.discarded": c["eigensolver.discarded"] / n_ops,
        "eigensolver.bisect_evals_per_root": (
            calls_under("transcendental.characteristic", "eigensolver.solve_pair") / roots_found
            if roots_found else 0.0
        ),
        "eigensolver.calibrate.solve_pairs_per_call": (
            calls_under("eigensolver.solve_pair", "eigensolver.calibrate")
            / calls("eigensolver.calibrate")
            if calls("eigensolver.calibrate") else 0.0
        ),
        "eigensolver.calibrate.missed_resonance": sum(
            "calibration-missed-resonance" in o.defects for o in traced) / n_ops,
        "eigensolver.levels_missed": sum(o.counters.get("levels_missed", 0) for o in traced)
        / n_ops,
        "transcendental.grid_scan.points": c["transcendental.grid_scan.points"] / n_ops,
        "transcendental.grid_scan.points_per_s": (
            c["transcendental.grid_scan.points"] / scan_busy if scan_busy > 0 else 0.0
        ),
        "oracle.fd_solve.rows": c["oracle.fd_solve.rows"] / n_ops,
        "oracle.fd_solve.kept_ratio": c["oracle.fd_solve.kept"] / requested if requested else 0.0,
        "wavefunctions.build_wavefunction.rejected": (
            c.get("wavefunctions.build_wavefunction.rejected", 0) / n_ops
        ),
        "dynamics.calls": c.get("dynamics.calls", 0) / n_ops,
        "trace.overhead_ratio": (
            sum(o.seconds for o in traced) / sum(o.seconds for o in untraced) - 1.0
        ),
    }
    for metric, _, _, _ in PER_LAYER:
        if metric in values:
            continue
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls(layer) / n_ops
        elif stat == "busy_s":
            values[metric] = busy(layer) / n_ops
        else:
            values[metric] = self_s(layer) / n_ops

    layer_targets = {}
    for module, attr, layer, _ in TARGETS:
        layer_targets.setdefault(layer, []).append(f"{module}.{attr}")
    gone = {layer for layer, names in layer_targets.items()
            if all(n in tracer.absent for n in names)}
    absent = []
    for metric, _, _, _ in PER_LAYER:
        layer = SOURCE_LAYER.get(metric, metric.rpartition(".")[0])
        if layer in gone:
            values.pop(metric)
            absent.append(metric)
    op_time = sum(o.seconds for o in traced)
    shares = {layer: self_s(layer) / op_time for layer in tracer.names if calls(layer)}
    return values, absent, shares, problem


# ----------------------------------------------------------------- report


def print_line(metric, value, unit, note=""):
    print(f"  {metric:<44} {value:>14.6g} {unit:<10} {note}".rstrip())


def summarize(outcomes, kind: str, known) -> list[str]:
    """One line per cause (kind "causes") or known defect (kind "defects")."""
    counts: dict[str, int] = {}
    examples: dict[str, str] = {}
    for o in outcomes:
        for cause in getattr(o, kind):
            counts[cause] = counts.get(cause, 0) + 1
            examples.setdefault(cause, o.detail)
    lines = []
    for cause, count in sorted(counts.items()):
        what = known.get(cause, "UNEXPECTED") if kind == "defects" else "FAILED"
        lines.append(f"  {cause}: {count} op(s); {what}; e.g. {examples[cause]}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wellcascade" / "__init__.py").is_file():
        print(f"benchmark error: no program source at {SRC / 'wellcascade'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import KNOWN_DEFECTS, OUT_DIR, WORKLOADS, child_env, reference_child

    if args.workload not in WORKLOADS:
        print(f"benchmark error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    own = set_up(workload, args.seed, args.smoke)
    if args.setup_probe:
        workload.close()
        print(json.dumps(own))
        return 0

    env = child_env()
    n_probes = 1 if args.smoke else SETUP_SAMPLES - 1
    own["reference_s"] = reference_child()
    probes = {"setup": [own]}
    for _ in range(n_probes):
        reference_s = reference_child()
        probes["setup"].append(dict(setup_probe(args, env), reference_s=reference_s))
    if args.trace:
        probes["scipy"] = [scipy_import_s(env) for _ in range(IMPORTTIME_PROBES)]
    environ = environment(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}{' (smoke)' if args.smoke else ''}")
    print("env " + json.dumps(environ, sort_keys=True))

    min_ops = 3 if args.smoke else MIN_OPS
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    try:
        workload.reference()
        attempt(workload, 0, None)  # warm-up: lazy set-up in numpy, bytecode caches
        untraced, traced = run_ops(workload, args.seconds, min_ops, tracer)
    finally:
        workload.close()
    times = [o.seconds for o in untraced]
    n = len(untraced)
    failed = sum(o.failed for o in untraced)
    hit_defect = sum(bool(o.defects) for o in untraced)
    correct = failed == 0

    tail_s, tail_pct, beyond = tail(times)
    if args.workload == "cascade-cli":
        rss_mb, rss_note = statistics.median(o.counters["rss_mb"] for o in untraced), "median child"
    else:
        rss_mb, rss_note = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "this process"
    setup_samples = [p["setup_s"] for p in probes["setup"]]
    setup_scaled = [REFERENCE_CHILD_S * p["setup_s"] / p["reference_s"] for p in probes["setup"]]
    end_to_end = {
        "ops_per_s": (n / sum(times), "1/s", f"{n} ops in {sum(times):.3f} s of op time"),
        "op_p10_s": (p10(times), "s", "10th percentile"),
        "op_p50_s": (statistics.median(times), "s", ""),
        "op_tail_s": (tail_s, "s", f"p{tail_pct:.0f}, {beyond} of {n} samples beyond it"),
        "op_rel_p50": (statistics.median(o.seconds / o.reference_s for o in untraced), "ratio",
                       "median of op time over the reference task's time just before it"),
        "reference_p50_s": (statistics.median(o.reference_s for o in untraced), "s",
                            "reference task, run the way the ops run"),
        "failed_ratio": (failed / n, "ratio", f"{failed} of {n} ops failed"),
        "defect_ratio": (hit_defect / n, "ratio",
                         f"{hit_defect} of {n} ops hit a known defect (not counted as failed)"),
        "setup_s": (statistics.median(setup_scaled), "s",
                    f"median of {len(setup_samples)} set-ups, each scaled to a "
                    f"{REFERENCE_CHILD_S:g} s reference interpreter"),
        "setup_raw_s": (statistics.median(setup_samples), "s",
                        f"median of {len(setup_samples)} set-ups as measured"),
        "peak_rss_mb": (rss_mb, "MB", rss_note),
    }
    print("end-to-end (untraced):")
    for metric, (value, unit, note) in end_to_end.items():
        print_line(metric, value, unit, note)
    for kind, title in (("causes", "failures by cause:"), ("defects", "known defects hit:")):
        lines = summarize(untraced, kind, KNOWN_DEFECTS)
        if lines:
            print(title)
            print("\n".join(lines))

    metrics = {}
    if args.trace:
        traced_ok = not any(o.failed for o in traced)
        values, absent, shares, problem = layer_metrics(tracer, traced, untraced, probes)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path, {"env": environ, "workload": args.workload, "ops": n})
        print(f"per-layer (traced, per op over {n} ops; spans in {trace_path.relative_to(ROOT)}):")
        for metric, unit, _, moves in PER_LAYER:
            if metric in values:
                print_line(metric, values[metric], unit, f"moves {moves}")
                metrics[metric] = {"value": values[metric], "unit": unit}
        for metric in absent:
            print(f"  {metric:<44} {'absent':>14} (its wrapped names are gone: "
                  f"{', '.join(tracer.absent)})")
        print("  self-time shares of traced op time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda x: -x[1])))
        if problem:
            print(f"trace error: {problem}")
        else:
            print("  span check: nesting holds and each op's layer self times add up to its span")
        correct = correct and traced_ok and problem is None
    else:
        for metric in REPORTED:
            value, unit, _ = end_to_end[metric]
            metrics[metric] = {"value": value, "unit": unit}

    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
