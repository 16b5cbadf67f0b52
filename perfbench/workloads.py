"""The benchmark's three workloads: seeded inputs, one op, and its checks.

Each workload has ``setup(seed, smoke)``, which imports the program, loads
the bundled ``paper.cfg`` and generates the op inputs, and ``op(k, tracer)``,
which runs op ``k`` of the seeded sequence, times only the program's part and
then checks the outputs.  The sequence's structure (which pair, which mode)
is the same for every seed; the seed draws the values.  So runs with
different seeds do the same mix of work, and their timings are comparable.

Every wrong output is recorded with a cause.  Three are known defects of the
program, named in ``KNOWN_DEFECTS``: an op that hits one of them where that
defect is known to strike is recorded in ``Outcome.defects`` and reported
beside the results, not counted as failed, so the failed count is a check that
reads 0 until the program regresses.  Any other cause, or a known cause where
the defect is not known to strike, is a failed op and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tracer import ROOT_SPAN

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
GOLDEN_REPORT = BENCH_DIR / "golden" / "report.json"

KNOWN_DEFECTS = {
    "levels-missed": "solve_pair returns fewer levels than the oracle and flags nothing; "
    "a doublet narrower than grid_step falls inside one grid cell and its two "
    "sign changes cancel",
    "wavefunction-rejected": "build_wavefunction rejects a solver level: the right-wall "
    "residual exceeds its 1e-8 tolerance",
    "calibration-missed-resonance": "calibrate_depth returns an inexact fit instead of "
    "the hidden depth: its coarse step (5e-4 eV) is wider than the target doublet "
    "(pair 3: ~2e-4 eV), so the resonance can fall between two coarse points",
}

# Pair-local reference doublets (eV) of the three active pairs of paper.cfg.
REFERENCE_DOUBLETS = ((1.445, 1.460), (0.268, 0.274), (0.4432, 0.4434))
GRID_STEPS = (2e-5, 1e-4, 5e-4)
EXACT_FIT_EV = 1e-6  # misfit at a hidden value is ~1e-10 eV
PROBLEM_POOL = 24  # calibration problems solved during set-up, reused in order
GEOMETRY_POOL = 64  # cross-check geometries, four pairs each, reused in order


@dataclass
class Outcome:
    """What one op did: its program time, failure causes, known defects hit
    and counters."""

    seconds: float
    causes: list[str] = field(default_factory=list)
    detail: str = ""
    defects: list[str] = field(default_factory=list)
    reference_s: float = math.nan  # the reference task run just before the op
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.causes)


def child_env() -> dict[str, str]:
    """Environment of every child interpreter: the checkout's source, pinned threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# The reference task: fixed work that calls nothing of wellcascade, of the
# kinds an op does, run right before every untraced op and in the way that op
# runs.  This host's speed drifts over minutes as its neighbours' load
# changes; an op's time over the reference's time next to it keeps the
# program's cost and drops most of that drift.  Large-array numpy is left out
# of the in-process references: the ops do little of it, and it slowed more
# than they did when the host was loaded.
REFERENCE_IMPORTS = "import argparse, configparser, json, numpy, scipy.linalg"
_REF_X = np.linspace(0.0, 1.0, 64)
_REF_DIAG = 2.0 + 0.5 * np.sin(np.arange(20_001) * 1e-3) ** 2
_REF_OFF = -np.ones(20_000)


def reference_scalar() -> float:
    """Seconds for scalar math and small-array numpy, the bisection's kind of work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30_000):
        acc += math.tanh(i * 1e-4) * math.sqrt(i + 1.0)
    for i in range(1_500):
        acc += float(np.tanh(_REF_X * (1.0 + i * 1e-4)).sum())
    if not math.isfinite(acc):
        raise ArithmeticError("reference task went non-finite")
    return time.perf_counter() - t0


def reference_tridiagonal() -> float:
    """Seconds for a tridiagonal eigensolve the size of the oracle's."""
    # imported here, so that the benchmark adds no scipy import to set-up
    from scipy.linalg import eigh_tridiagonal

    t0 = time.perf_counter()
    eigh_tridiagonal(_REF_DIAG, _REF_OFF, select="i", select_range=(0, 5), eigvals_only=True)
    return time.perf_counter() - t0


def reference_child() -> float:
    """Seconds for a fresh interpreter that imports the CLI's dependencies."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"reference interpreter exited {proc.returncode}")
    return time.perf_counter() - t0


class Workload:
    name = ""

    def reference(self) -> float:
        """Seconds of the reference task, run the way this workload's ops run."""
        return reference_scalar()

    def close(self) -> None:
        """Remove what the ops wrote."""


# ---------------------------------------------------------------- cascade-cli


class CascadeCli(Workload):
    """``wellcascade cascade --config paper.cfg`` in a fresh interpreter per op.

    The paper.cfg input is fixed: it is the command users run to reproduce
    the paper, checked against a golden report.  The seed has no input to
    draw here.
    """

    name = "cascade-cli"

    def reference(self) -> float:
        return reference_child()

    def setup(self, seed: int, smoke: bool) -> None:
        from wellcascade.cli import reference_config_path

        self.config = str(reference_config_path())
        self.golden = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
        self.out = OUT_DIR / f"cli-{os.getpid()}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.trace_file = self.out / "child-trace.json"
        self.args = ["cascade", "--config", self.config, "--output-dir", str(self.out)]

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, k: int, tracer) -> Outcome:
        report = self.out / "report.json"
        if report.exists():
            report.unlink()
        if tracer is None:
            # what the installed console script runs
            cmd = [sys.executable, "-c",
                   "import sys; from wellcascade.cli import main; sys.exit(main())"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(self.trace_file)]
        t0 = time.perf_counter()
        root = _open_root(tracer, k, t0)
        proc = subprocess.Popen(
            cmd + self.args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
        )
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = _close_root(tracer, root)
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)

        outcome = Outcome(seconds=t1 - t0)
        outcome.counters["rss_mb"] = usage.ru_maxrss / 1024.0
        if tracer is not None and self.trace_file.exists():
            tracer.merge_child(json.loads(self.trace_file.read_text()), root)
            self.trace_file.unlink()
        if proc.returncode != 0:
            outcome.causes.append("cli-exit")
            outcome.detail = output.decode(errors="replace")[-300:]
            return outcome
        outcome.counters["output_bytes"] = len(output) + report.stat().st_size
        diff = compare_sig9(json.loads(report.read_text(encoding="utf-8")), self.golden)
        if diff:
            outcome.causes.append("golden-mismatch")
            outcome.detail = diff
        return outcome


def compare_sig9(fresh, golden, where: str = "$") -> str:
    """First difference between two reports at 9 significant digits, or ''."""
    if isinstance(golden, dict):
        if not isinstance(fresh, dict) or fresh.keys() != golden.keys():
            return f"{where}: keys differ"
        for key in golden:
            diff = compare_sig9(fresh[key], golden[key], f"{where}.{key}")
            if diff:
                return diff
        return ""
    if isinstance(golden, list):
        if not isinstance(fresh, list) or len(fresh) != len(golden):
            return f"{where}: lengths differ"
        for i, (a, b) in enumerate(zip(fresh, golden)):
            diff = compare_sig9(a, b, f"{where}[{i}]")
            if diff:
                return diff
        return ""
    if isinstance(golden, float) and isinstance(fresh, (int, float)) \
            and not isinstance(fresh, bool):
        same = f"{fresh:.9g}" == f"{golden:.9g}"
    else:
        same = type(fresh) is type(golden) and fresh == golden
    return "" if same else f"{where}: {fresh!r} != golden {golden!r}"


# ------------------------------------------------------------ calibrate-sweep


@dataclass(frozen=True)
class CalibrationProblem:
    pair_index: int
    mode: str  # "distance" or "depth"
    hidden: float
    search: tuple[float, float]
    targets: tuple[float, float]


class CalibrateSweep(Workload):
    """Recover a hidden distance or deep-well depth from its target doublet.

    Op ``k`` works on pair ``k % 3``; every fourth op calibrates the deep
    depth, the others the center distance.  The seed draws the hidden value
    and where it sits in a search range of fixed width.  The coarse grid of
    the search has ``COARSE_POINTS[pair]`` points: pair 2 has about 1.4 times
    the levels per search window of the others, so it gets fewer points, and
    every op costs about the same.  That keeps the median of the op mix from
    jumping between op kinds from one seed to the next.
    """

    name = "calibrate-sweep"
    COARSE_POINTS = (151, 107, 151)
    DISTANCE_STEP = 0.01  # Angstrom, as calibrate_distance's default
    DEPTH_STEP = 5e-4  # eV, as calibrate_depth's default

    def reference(self) -> float:
        # an op takes about a second, so four passes to sample the host's speed
        return sum(reference_scalar() for _ in range(4))

    def setup(self, seed: int, smoke: bool) -> None:
        from wellcascade import eigensolver
        from wellcascade.cli import load_config, reference_config_path

        config = load_config(reference_config_path())
        self.solver = config.solver
        self.pairs = [config.spec.pair(i) for i in range(3)]
        shrink = 0.1 if smoke else 1.0
        rng = np.random.default_rng(seed)
        self.problems = []
        for k in range(PROBLEM_POOL):
            i = k % 3
            base = self.pairs[i]
            u = rng.uniform(0.2, 0.8)
            steps = (self.COARSE_POINTS[i] - 1) * shrink
            if k % 4 == 3:
                hidden = base.v_deep * (1.0 + rng.uniform(-0.003, 0.003))
                hidden_pair = replace(base, v_deep=hidden)
                span, mode = steps * self.DEPTH_STEP, "depth"
            else:
                hidden = base.distance + rng.uniform(-0.1, 0.1)
                hidden_pair = replace(base, distance=hidden)
                span, mode = steps * self.DISTANCE_STEP, "distance"
            targets = _doublet_near(eigensolver, hidden_pair, self.solver, REFERENCE_DOUBLETS[i])
            self.problems.append(
                CalibrationProblem(
                    pair_index=i,
                    mode=mode,
                    hidden=hidden,
                    search=(hidden - u * span, hidden + (1.0 - u) * span),
                    targets=targets,
                )
            )

    def op(self, k: int, tracer) -> Outcome:
        from wellcascade import eigensolver

        problem = self.problems[k % len(self.problems)]
        base = self.pairs[problem.pair_index]
        targets = list(problem.targets)
        t0 = time.perf_counter()
        root = _open_root(tracer, k, t0)
        try:
            if problem.mode == "distance":
                result = eigensolver.calibrate_distance(
                    base, targets, problem.search, config=self.solver, step=self.DISTANCE_STEP
                )
                tol = 1e-4 * self.DISTANCE_STEP
            else:
                result = eigensolver.calibrate_depth(
                    base, "shallow", targets, problem.search, config=self.solver,
                    step=self.DEPTH_STEP,
                )
                tol = 1e-4 * self.DEPTH_STEP
        finally:
            t1 = _close_root(tracer, root)
        outcome = Outcome(seconds=t1 - t0)
        if not abs(result.value - problem.hidden) <= tol:
            # the hidden value fits the targets exactly, so a worse fit is a miss;
            # it is known only where the doublet is narrower than the coarse depth step
            missed = result.misfit > EXACT_FIT_EV
            splitting = problem.targets[1] - problem.targets[0]
            known = missed and problem.mode == "depth" and splitting < self.DEPTH_STEP
            (outcome.defects if known else outcome.causes).append(
                "calibration-missed-resonance" if missed else "hidden-not-recovered"
            )
            outcome.detail = (
                f"pair {problem.pair_index + 1} {problem.mode}: found {result.value!r}, "
                f"hidden {problem.hidden!r}, misfit {result.misfit:.2e} eV"
            )
        return outcome


def _doublet_near(eigensolver, pair, solver, reference):
    """Adjacent level pair whose center is nearest the reference doublet's."""
    center = 0.5 * (reference[0] + reference[1])
    half = 0.03
    while True:
        result = eigensolver.solve_pair(
            pair, solver, e_min=center - half, e_max=min(center + half, pair.v_deep)
        )
        energies = [lv.energy for lv in result.levels]
        if len(energies) >= 2:
            lo, hi = min(
                zip(energies, energies[1:]), key=lambda d: abs(0.5 * (d[0] + d[1]) - center)
            )
            return lo, hi
        if half > pair.v_deep:
            raise ValueError(f"{pair} binds fewer than two levels")
        half *= 2.0


# ------------------------------------------------------------ pair-crosscheck


@dataclass(frozen=True)
class CrossCheck:
    label: str
    pair: object
    grid_step: float


class PairCrosscheck(Workload):
    """Full-range solve, oracle and wavefunctions of every pair of a geometry.

    Geometry 0 is paper.cfg itself, with pair 3 (H-Q) always at grid_step
    5e-4, where the solver loses the H-Q doublet.  The other geometries
    perturb paper.cfg's depths and distances.  Each pair, the closing one
    included, gets a grid_step from ``GRID_STEPS``.
    """

    name = "pair-crosscheck"

    def reference(self) -> float:
        # about two thirds eigensolve, as the oracle's share of an op
        return reference_scalar() + sum(reference_tridiagonal() for _ in range(3))

    def setup(self, seed: int, smoke: bool) -> None:
        from wellcascade.cli import load_config, reference_config_path
        from wellcascade.potential import CascadeSpec

        config = load_config(reference_config_path())
        self.solver = config.solver
        self.fd_config = config.oracle
        ref = config.spec
        rng = np.random.default_rng(seed)
        # each run of three ops uses every grid step once, in a seeded order,
        # so the share of cheap and dear solves is the same for every seed
        steps = iter([
            GRID_STEPS[j]
            for _ in range(math.ceil(4 * GEOMETRY_POOL / len(GRID_STEPS)))
            for j in rng.permutation(len(GRID_STEPS))
        ])
        self.checks = []
        for g in range(GEOMETRY_POOL):
            if g == 0:
                spec = ref
            else:
                deepest = ref.depths[0] * (1.0 + rng.uniform(-0.03, 0.03))
                depths = [deepest] + [v * (1.0 + rng.uniform(-0.05, 0.05)) for v in ref.depths[1:]]
                distances = [d + rng.uniform(-2.0, 2.0) for d in ref.distances]
                spec = CascadeSpec(widths=ref.widths, distances=distances, depths=depths)
            pairs = [spec.pair(i) for i in range(3)] + [spec.closing_pair()]
            for i, pair in enumerate(pairs):
                step = next(steps)
                if g == 0 and i == 2:
                    step = 5e-4
                self.checks.append(CrossCheck(f"geometry {g} pair {i + 1}", pair, step))

    def op(self, k: int, tracer) -> Outcome:
        from wellcascade import eigensolver, oracle, wavefunctions
        from wellcascade.potential import pair_profile

        check = self.checks[k % len(self.checks)]
        pair = check.pair
        t0 = time.perf_counter()
        root = _open_root(tracer, k, t0)
        try:
            solved = eigensolver.solve_pair(pair, replace(self.solver, grid_step=check.grid_step))
            levels = solved.levels
            fd = oracle.fd_solve(pair_profile(pair), len(levels) + 4, self.fd_config)
            built, rejected = [], []
            for level in levels:
                try:
                    built.append(wavefunctions.build_wavefunction(pair, level))
                except ValueError:
                    rejected.append(level.index)
        finally:
            t1 = _close_root(tracer, root)
        outcome = Outcome(seconds=t1 - t0)
        outcome.counters["levels_missed"] = len(fd.levels) - len(levels)
        self._verify(check, solved, fd, built, rejected, outcome)
        return outcome

    @staticmethod
    def _verify(check, solved, fd, built, rejected, outcome) -> None:
        from wellcascade.oracle import count_nodes
        from wellcascade.wavefunctions import sample_wavefunction

        notes = []
        oracle_levels = np.asarray(fd.levels)
        missed = len(oracle_levels) - len(solved.levels)
        if not fd.truncated:
            outcome.causes.append("oracle-incomplete")
        elif missed > 0:
            diag = solved.diagnostics
            flagged = diag.skipped_intervals or diag.discarded_candidates
            known = not flagged and _lost_doublets(oracle_levels, solved.levels, check.grid_step)
            (outcome.defects if known else outcome.causes).append(
                "levels-missed-flagged" if flagged else "levels-missed"
            )
            notes.append(f"{missed} level(s) missed at grid_step {check.grid_step:g}")
        elif missed < 0:
            outcome.causes.append("extra-levels")
        if rejected:
            outcome.defects.append("wavefunction-rejected")
            notes.append(f"levels {rejected} rejected")
        if len(oracle_levels):
            for level in solved.levels:
                if np.min(np.abs(oracle_levels - level.energy)) > 5e-3:
                    outcome.causes.append("energy-mismatch")
                    notes.append(f"level {level.index} at {level.energy:.6f} eV")
                    break
            for wf in built:
                # the oracle index of the matching level is the node count
                nodes = int(np.argmin(np.abs(oracle_levels - wf.energy)))
                x, psi = sample_wavefunction(wf, 10001)
                norm = float(np.trapezoid(psi**2, x))
                if abs(norm - 1.0) > 1e-3 or count_nodes(psi) != nodes:
                    outcome.causes.append("wavefunction-wrong")
                    notes.append(f"state at {wf.energy:.6f} eV: norm {norm:.4f}")
                    break
        elif solved.levels:
            outcome.causes.append("extra-levels")
        outcome.detail = f"{check.label}: " + "; ".join(notes) if notes else ""


def _lost_doublets(oracle_levels, levels, grid_step) -> bool:
    """Whether the oracle levels the solver missed are whole doublets, each
    narrower than ``grid_step``: the signature of the known levels-missed defect."""
    unmatched = list(range(len(oracle_levels)))
    for level in levels:
        unmatched.remove(min(unmatched, key=lambda i: abs(oracle_levels[i] - level.energy)))
    pairs = list(zip(unmatched[::2], unmatched[1::2]))
    return len(unmatched) % 2 == 0 and all(
        j == i + 1 and oracle_levels[j] - oracle_levels[i] < grid_step for i, j in pairs
    )


def _open_root(tracer, k, t0):
    if tracer is None:
        return None
    tracer.current_op = k
    return tracer.open(tracer.name_id(ROOT_SPAN), t0)


def _close_root(tracer, root) -> float:
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.close(root, t1)
    return t1


WORKLOADS = {w.name: w for w in (CascadeCli, CalibrateSweep, PairCrosscheck)}
