"""Per-layer timing measured from outside the program.

:func:`install` replaces each public call listed in :data:`WRAPPED` with a
wrapper that records a span (name, start, end, self time) and a few
counters taken from the call's arguments or return value.  Each call is
wrapped at the module attribute its caller resolves: a function imported
by name into another module is wrapped in that module, a method on its
class.  Spans stay in memory; :meth:`Recorder.dump` writes them out once,
at exit.

Self time is a span's duration minus the time of the wrapped calls made
inside it on the same thread, so ``select`` does not also count the
``analyze_all`` it calls.  The sum of self times over a window plus
``unattributed_s`` is the window's wall time.

All timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans written by the server process can be
placed inside the benchmark process's timed window.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Counters = Callable[[tuple, dict, Any], Dict[str, float]]


def _len_arg(key: str, position: int) -> Counters:
    def count(args, kwargs, result):
        return {key: float(len(args[position]))}
    return count


def _len_result(key: str) -> Counters:
    def count(args, kwargs, result):
        return {key: float(len(result))}
    return count


def _one(key: str) -> Counters:
    def count(args, kwargs, result):
        return {key: 1.0}
    return count


def _admm(args, kwargs, result) -> Dict[str, float]:
    member_results, stats = result
    return {
        "admm.calls": 1.0,
        "admm.members": float(stats.members),
        "admm.member_iterations": float(stats.member_iterations),
        "admm.unconverged": float(stats.members - stats.converged),
        "admm.projection_seconds": float(stats.projection_seconds),
        "admm.projections": float(sum(m.projections for m in member_results)),
        "admm.identities": float(sum(m.identities for m in member_results)),
    }


def _engine_run(args, kwargs, result) -> Dict[str, float]:
    out = {
        "run.calls": 1.0,
        "run.iterations": float(len(result.iterations)),
        "run.accepted": float(sum(1 for it in result.iterations if it.accepted)),
        "clock.runtime": float(result.runtime),
    }
    for phase, seconds in result.clock.totals.items():
        out[f"clock.{phase}"] = float(seconds)
    return out


def _eco_apply(args, kwargs, result) -> Dict[str, float]:
    return {
        "eco.applies": 1.0,
        "eco.dirty_fraction": float(result.dirty_fraction),
        "eco.accepted": 1.0 if result.accepted else 0.0,
        "clock.eco_apply": float(result.seconds),
    }


# (module, attribute path, span name, counters).  A dotted attribute path
# wraps a method on its class; a plain name wraps a module-level function.
WRAPPED: Sequence[Tuple[str, str, str, Optional[Counters]]] = (
    ("repro.ispd.parser", "parse_ispd08", "ispd.parse", None),
    ("repro.route.router", "GlobalRouter.route", "route.route",
     _len_arg("route.nets_routed", 1)),
    ("repro.pipeline", "build_topology", "route.topology", None),
    ("repro.eco.engine", "build_topology", "route.topology", None),
    ("repro.route.assignment", "InitialAssigner.assign",
     "route.initial_assign", None),
    ("repro.core.engine", "release_net", "route.occupancy", None),
    ("repro.core.engine", "commit_net", "route.occupancy", None),
    ("repro.eco.engine", "release_net", "route.occupancy", None),
    ("repro.service.resident", "release_net", "route.occupancy", None),
    ("repro.service.resident", "commit_net", "route.occupancy", None),
    ("repro.timing.elmore", "ElmoreEngine.analyze_all", "timing.analyze",
     _len_arg("timing.nets_requested", 1)),
    ("repro.timing.critical", "CriticalitySelector.select", "core.select",
     None),
    ("repro.core.engine", "self_adaptive_partition", "core.partition",
     _len_result("core.leaves")),
    ("repro.core.engine", "extract_partition_problem", "core.extract",
     _one("core.leaves_solved")),
    ("repro.core.sdp_relaxation", "SdpPartitionSolver.build_sdp",
     "core.build_sdp", None),
    ("repro.core.sdp_relaxation", "SdpPartitionSolver.solve", "core.solve",
     None),
    ("repro.batchsolve.solver", "BatchLeafSolver.solve_many", "core.solve",
     None),
    ("repro.core.engine", "post_map", "core.post_map", None),
    ("repro.core.engine", "CPLAEngine.run", "core.run", _engine_run),
    ("repro.solver.sdp", "run_admm", "batchsolve.admm", _admm),
    ("repro.batchsolve.solver", "run_admm", "batchsolve.admm", _admm),
    ("repro.eco.engine", "EcoEngine.apply", "eco.apply", _eco_apply),
    ("repro.eco.engine", "assignment_digest", "eco.digest", None),
    ("repro.core.engine", "CPLAEngine.restore_layers", "service.rewind",
     None),
    ("repro.service.resident", "ResidentEngine.__init__",
     "service.resident_build", _one("service.resident_builds")),
    ("repro.service.resident", "ResidentEngine.solve", "service.solve", None),
    ("repro.service.resident", "ResidentEngine.apply_eco",
     "service.eco_apply", None),
    ("repro.service.resident", "assignment_digest", "service.digest", None),
)

# ``run_admm`` measures its PSD projections only when asked to record; the
# traced run asks, which is part of the tracing overhead it reports.
_FORCE_RECORDING = {"batchsolve.admm"}


class Recorder:
    """In-memory spans and counter events of one process."""

    def __init__(self) -> None:
        # (name, start, end, self seconds)
        self.spans: List[Tuple[str, float, float, float]] = []
        # (time, key, value)
        self.events: List[Tuple[float, str, float]] = []
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, counters: Optional[Counters]) -> Callable:
        force_recording = name in _FORCE_RECORDING
        spans = self.spans
        events = self.events
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if force_recording:
                kwargs["recording"] = True
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                spans.append((name, start, end, duration - children[0]))
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    events.append((end, key, value))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "events": self.events}, handle)


Restore = List[Tuple[Any, str, Any]]


def install(recorder: Recorder) -> Restore:
    """Wrap every call in :data:`WRAPPED`; returns what :func:`uninstall` needs."""
    restore: Restore = []
    for module_name, attr_path, span_name, counters in WRAPPED:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, recorder.wrap(span_name, current, counters))
        restore.append((owner, attr, current))
    return restore


def uninstall(restore: Restore) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def load(path: str) -> Recorder:
    """Read spans written by :meth:`Recorder.dump` in another process."""
    with open(path, encoding="utf-8") as handle:
        blob = json.load(handle)
    recorder = Recorder()
    recorder.spans = [tuple(s) for s in blob["spans"]]
    recorder.events = [tuple(e) for e in blob["events"]]
    return recorder


class Window:
    """Spans that started, and counters recorded, inside the given intervals.

    ``intervals`` are ``(start, end)`` pairs, e.g. one per timed operation,
    so that checks run between operations stay out of the window.
    """

    def __init__(self, recorder: Recorder,
                 intervals: Sequence[Tuple[float, float]]) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        ordered = sorted(intervals)
        starts = [a for a, _ in ordered]

        def inside(t: float) -> bool:
            i = bisect.bisect_right(starts, t) - 1
            return i >= 0 and t <= ordered[i][1]

        for name, s, e, own in recorder.spans:
            if inside(s):
                self.self_s[name] += own
                self.total_s[name] += e - s
        for t, key, value in recorder.events:
            if inside(t):
                self.counts[key] += value

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())
