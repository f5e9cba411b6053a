"""Shared run-report container.

Both the CPLA engine (the paper's method) and the TILA baseline emit a
:class:`RunReport`, so the evaluation harness can tabulate them uniformly
(Table 2, Figs. 1 and 7-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.utils import WallClock


@dataclass
class IterationStats:
    """Diagnostics of one optimizer iteration."""

    index: int
    num_partitions: int
    num_segments: int
    avg_tcp: float
    max_tcp: float
    accepted: bool


@dataclass
class RunReport:
    """Everything the evaluation section needs from one optimizer run."""

    benchmark: str
    method: str
    critical_ratio: float
    critical_net_ids: List[int] = field(default_factory=list)
    initial_avg_tcp: float = 0.0
    initial_max_tcp: float = 0.0
    final_avg_tcp: float = 0.0
    final_max_tcp: float = 0.0
    initial_via_overflow: int = 0
    final_via_overflow: int = 0
    initial_vias: int = 0
    final_vias: int = 0
    initial_pin_delays: List[float] = field(default_factory=list)
    final_pin_delays: List[float] = field(default_factory=list)
    iterations: List[IterationStats] = field(default_factory=list)
    clock: WallClock = field(default_factory=WallClock)
    # Phase totals measured *inside* fabric worker processes (Jacobi mode).
    # Kept separate from ``clock``: the worker seconds overlap the parent's
    # ``solve`` wall time, so folding them in would double-count runtime.
    worker_clock: WallClock = field(default_factory=WallClock)
    # Snapshot of the observability metrics registry taken at the end of the
    # run (empty unless metrics were enabled; see repro.obs).
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # Convergence diagnostics snapshot ({"solves": [...], "partitions":
    # [...]}; empty unless repro.obs.convergence was enabled).
    convergence: Dict[str, Any] = field(default_factory=dict)
    # Distributed-fabric scheduler counters (tasks, retries, steals,
    # stragglers, per-worker utilization; empty unless the run used
    # exec_backend="dist").  Rides into the run ledger's "scheduler"
    # section — the fault-injection CI gate reads retries from there.
    scheduler: Dict[str, Any] = field(default_factory=dict)
    # Global-router observability (nets routed/rerouted, reroute rounds,
    # maze aborts, final 2-D overflow) captured when the benchmark was
    # prepared; empty when the caller routed out-of-band.  Rides into the
    # run ledger's "router" section.
    router: Dict[str, Any] = field(default_factory=dict)

    @property
    def runtime(self) -> float:
        """Total optimizer wall-clock seconds (the CPU(s) column)."""
        return self.clock.total

    def observability_summary(self) -> str:
        """Phase totals, worker phase totals, and counter metrics as text."""
        lines = ["phases:"]
        lines.extend("  " + l for l in self.clock.report().splitlines())
        if self.worker_clock.totals:
            lines.append("worker phases (inside worker processes):")
            lines.extend("  " + l for l in self.worker_clock.report().splitlines())
        counters = self.metrics.get("counters", {})
        if counters:
            width = max(len(k) for k in counters)
            lines.append("counters:")
            lines.extend(
                f"  {name:<{width}}  {value:g}"
                for name, value in sorted(counters.items())
            )
        gauges = self.metrics.get("gauges", {})
        if gauges:
            width = max(len(k) for k in gauges)
            lines.append("gauges:")
            lines.extend(
                f"  {name:<{width}}  {value:g}"
                for name, value in sorted(gauges.items())
            )
        if self.convergence:
            from repro.obs import convergence as _convergence

            lines.append(
                _convergence.summary_text(_convergence.summarize(self.convergence))
            )
        return "\n".join(lines)

    @property
    def avg_improvement(self) -> float:
        """Fractional Avg(Tcp) reduction versus the initial assignment."""
        if self.initial_avg_tcp == 0:
            return 0.0
        return 1.0 - self.final_avg_tcp / self.initial_avg_tcp

    @property
    def max_improvement(self) -> float:
        if self.initial_max_tcp == 0:
            return 0.0
        return 1.0 - self.final_max_tcp / self.initial_max_tcp
