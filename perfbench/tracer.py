"""Spans around calls into wellcascade's public functions, recorded from outside.

The tracer replaces a module attribute with a wrapper that records one span
per call: name, start, end, parent span and op id.  Spans are kept in
compact arrays in memory and written out once, when the run ends.  Only the
attribute a caller actually looks up at call time is wrapped, e.g.
``wellcascade.eigensolver.characteristic`` (the bisection loop's global) and
``wellcascade.cascade.solve_pair`` (the name ``solve_cascade`` calls), never
the re-export in ``wellcascade/__init__``.

A target whose module or attribute no longer exists is recorded as absent
instead of raising, so a refactor that removes a name makes its metrics
disappear from the report rather than crash the run.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

ROOT_SPAN = "bench.op"

# (module, attribute, layer name, kind).  "span" records a span per call,
# "count" only counts calls.  The order matters only for reporting.
TARGETS = (
    ("wellcascade.cli", "main", "cli.main", "span"),
    ("wellcascade.cascade", "solve_cascade", "cascade.solve_cascade", "span"),
    ("wellcascade.cascade", "solve_pair", "eigensolver.solve_pair", "span"),
    ("wellcascade.eigensolver", "solve_pair", "eigensolver.solve_pair", "span"),
    ("wellcascade.eigensolver", "calibrate_distance", "eigensolver.calibrate", "span"),
    ("wellcascade.eigensolver", "calibrate_depth", "eigensolver.calibrate", "span"),
    ("wellcascade.eigensolver", "grid_scan", "transcendental.grid_scan", "span"),
    ("wellcascade.eigensolver", "characteristic", "transcendental.characteristic", "span"),
    ("wellcascade.oracle", "fd_solve", "oracle.fd_solve", "span"),
    ("wellcascade.wavefunctions", "build_wavefunction", "wavefunctions.build_wavefunction", "span"),
    ("wellcascade.cascade", "tunneling_time", "dynamics", "count"),
    ("wellcascade.cascade", "decay_time", "dynamics", "count"),
)


def _observe_solve(counters, args, kwargs, result):
    counters["eigensolver.grid_points"] += result.diagnostics.grid_points
    counters["eigensolver.roots"] += len(result.levels)
    counters["eigensolver.discarded"] += len(result.diagnostics.discarded_candidates)


def _observe_scan(counters, args, kwargs, result):
    counters["transcendental.grid_scan.points"] += int(np.size(args[1]))


def _observe_fd(counters, args, kwargs, result):
    # the benchmark always passes the config; extrapolation adds a 2g+1 grid
    config = args[2] if len(args) > 2 else kwargs["config"]
    rows = config.grid_points
    counters["oracle.fd_solve.rows"] += rows + (2 * rows + 1 if config.extrapolate else 0)
    counters["oracle.fd_solve.requested"] += args[1] if len(args) > 1 else kwargs["n_levels"]
    counters["oracle.fd_solve.kept"] += len(result.levels)


OBSERVERS = {
    "eigensolver.solve_pair": _observe_solve,
    "transcendental.grid_scan": _observe_scan,
    "oracle.fd_solve": _observe_fd,
}

COUNTERS = (
    "eigensolver.grid_points",
    "eigensolver.roots",
    "eigensolver.discarded",
    "transcendental.grid_scan.points",
    "oracle.fd_solve.rows",
    "oracle.fd_solve.requested",
    "oracle.fd_solve.kept",
)

# exceptions that a layer raises as an answer rather than a crash
REJECTIONS = {"wavefunctions.build_wavefunction": ValueError}


class Tracer:
    """Span recorder for one process; not thread-safe (one client)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, t: float | None = None) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter() if t is None else t)
        self.end.append(float("nan"))
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, t: float | None = None) -> None:
        self.end[idx] = time.perf_counter() if t is None else t
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (top was {popped})")

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a closed span recorded elsewhere (a child process)."""
        idx = len(self.start)
        self.start.append(start)
        self.end.append(end)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(self.current_op)
        return idx

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, layer: str, kind: str):
        counters = self.counters
        if kind == "count":
            key = f"{layer}.calls"
            counters.setdefault(key, 0)

            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return counted

        nid = self.name_id(layer)
        observe = OBSERVERS.get(layer)
        rejection = REJECTIONS.get(layer)
        if rejection is not None:
            counters.setdefault(f"{layer}.rejected", 0)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if rejection is not None and isinstance(exc, rejection):
                    counters[f"{layer}.rejected"] += 1
                raise
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        self.absent = []
        for module_name, attr, layer, kind in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, kind))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------ output

    def arrays(self):
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        return (
            start,
            end,
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.op, dtype=np.int32).copy(),
        )

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "start": list(self.start),
            "end": list(self.end),
            "name": list(self.name),
            "parent": list(self.parent),
            "counters": self.counters,
            "absent": self.absent,
        }

    def merge_child(self, payload: dict, parent: int) -> None:
        """Attach spans a child process recorded under span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so child timestamps share the parent's time base.
        """
        offset = len(self.start)
        for i, nid in enumerate(payload["name"]):
            p = payload["parent"][i]
            self.add(
                payload["names"][nid],
                payload["start"][i],
                payload["end"][i],
                parent if p < 0 else p + offset,
            )
        for key, value in payload["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        for name in payload["absent"]:
            if name not in self.absent:
                self.absent.append(name)

    def save(self, path, meta: dict) -> None:
        start, end, name, parent, op = self.arrays()
        np.savez_compressed(
            path,
            start=start,
            end=end,
            name=name,
            parent=parent,
            op=op,
            names=np.array(self.names),
            meta=np.array(json.dumps(meta)),
        )


def self_times(start, end, parent):
    """Duration of each span minus the part its direct children cover.

    Spans of one thread nest, so children of one parent never overlap and
    their durations simply add.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def check_nesting(start, end, parent, op) -> str | None:
    """First broken invariant of the span tree, or None when it is sound."""
    if np.any(~np.isfinite(end)):
        return "a span was never closed"
    if np.any(end < start):
        return "a span ends before it starts"
    has_parent = parent >= 0
    child = np.nonzero(has_parent)[0]
    p = parent[has_parent]
    if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
        return "a child span lies outside its parent"
    if np.any(op[child] != op[p]):
        return "a child span belongs to another op than its parent"
    return None
