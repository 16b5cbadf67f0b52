"""Smoke run of the benchmark at tiny sizes: every named metric, with its unit.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` for every workload of ``BENCHMARK.json``, untraced
and traced, for one second each, and checks that the last line of output is
a correct result carrying exactly the declared metrics with their declared
units.  Takes about a minute; exits non-zero on the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: incorrect result {result['attempted']} attempted")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got.keys() & expected[trace].keys()
                               if got[k] != expected[trace][k])
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{label}: {name} is not a number")
            print(f"{label}: {len(got)} metrics, {result['attempted']} ops", flush=True)
    for problem in problems:
        print("SMOKE FAIL " + problem)
    if not problems:
        print("smoke ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
