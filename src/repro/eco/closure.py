"""The timing-closure loop: release the worst nets, re-solve, repeat.

``repro closure`` drives a committed solve toward a better worst path by
iterating ECO rounds: each round issues one ``release_nets worst=k`` edit
through :class:`~repro.eco.engine.EcoEngine` (no physical change — the
round is purely "give the optimizer another shot at today's worst
paths"), and the loop stops when the relative ``Max(Tcp)`` gain of a
round falls below ``min_gain`` or after ``max_rounds`` rounds.

Because every round's re-solve is accepted max-first and rolled back
otherwise — and a release edit leaves the physical problem untouched —
the committed ``Max(Tcp)`` is **non-increasing across rounds** (pinned by
tests/test_eco.py).  Each round appends one ``closure:<method>`` entry to
the run ledger with an ``eco`` section and emits one ``closure.round``
trace span whose children are the round's dirty-partition solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.engine import CPLAConfig, CPLAEngine
from repro.eco.edits import EcoEdit
from repro.eco.engine import EcoEngine, EcoReport
from repro.obs import tracer
from repro.obs.ledger import append_entry, eco_quality, eco_section, make_entry
from repro.utils import get_logger

log = get_logger(__name__)


@dataclass
class ClosureConfig:
    """Knobs of the closure loop (the ``repro closure`` CLI mirrors them)."""

    benchmark: str
    scale: float = 1.0
    method: str = "sdp"
    critical_ratio: float = 0.005
    workers: int = 0
    exec_backend: str = "seq"
    release_k: int = 4         # worst-k nets released per round
    max_rounds: int = 5
    min_gain: float = 0.001    # relative Max(Tcp) gain to keep going

    def __post_init__(self) -> None:
        if self.release_k < 1:
            raise ValueError("release_k must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.min_gain < 0:
            raise ValueError("min_gain must be >= 0")


@dataclass
class ClosureResult:
    """Outcome of a closure run: the baseline solve plus all rounds."""

    benchmark: str
    method: str
    initial_max_tcp: float
    final_max_tcp: float
    initial_avg_tcp: float
    final_avg_tcp: float
    baseline_seconds: float
    rounds: List[EcoReport] = field(default_factory=list)
    stopped: str = ""  # "min_gain" | "max_rounds"

    @property
    def total_gain(self) -> float:
        if not self.initial_max_tcp:
            return 0.0
        return 1.0 - self.final_max_tcp / self.initial_max_tcp


def round_entry(
    config: ClosureConfig,
    report: EcoReport,
    round_index: int,
    grid,
    before: Tuple[int, int],
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One ``closure:<method>`` run-ledger entry for one ECO round.

    ``before`` is ``grid``'s ``(via overflow, via count)`` before the
    round's apply; the counts after it are read from ``grid``.
    """
    return make_entry(
        report.benchmark, f"closure:{config.method}", config.critical_ratio,
        {
            "scale": config.scale,
            "critical_ratio": config.critical_ratio,
            "workers": config.workers,
            "exec_backend": config.exec_backend,
            "release_k": config.release_k,
            "max_rounds": config.max_rounds,
            "min_gain": config.min_gain,
        },
        {
            **eco_quality(report),
            "initial_via_overflow": before[0],
            "final_via_overflow": grid.total_via_overflow(),
            "initial_vias": before[1],
            "final_vias": grid.total_vias(),
        },
        report.seconds,
        convergence={},
        eco=eco_section(report, round=round_index),
        trace=trace or None,
    )


def run_closure(
    config: ClosureConfig,
    ledger_path: Optional[str] = None,
    trace_info: Optional[Dict[str, Any]] = None,
) -> ClosureResult:
    """Baseline solve + worst-k release rounds until the gain dries up.

    ``trace_info`` (``{"trace_id": ..., "file": ...}``) is stamped onto
    each round's ledger entry so ``obs show`` can point back at the
    exported span tree.
    """
    from repro.pipeline import prepare  # deferred: pipeline imports engines

    bench = prepare(config.benchmark, scale=config.scale)
    cpla = CPLAConfig(
        method=config.method,
        critical_ratio=config.critical_ratio,
        workers=config.workers,
        exec_backend=config.exec_backend,
    )
    with CPLAEngine(bench, cpla) as engine:
        with tracer.span(
            "closure.baseline", benchmark=bench.name, method=config.method
        ):
            baseline = engine.run()
        result = ClosureResult(
            benchmark=bench.name,
            method=config.method,
            initial_max_tcp=baseline.final_max_tcp,
            final_max_tcp=baseline.final_max_tcp,
            initial_avg_tcp=baseline.final_avg_tcp,
            final_avg_tcp=baseline.final_avg_tcp,
            baseline_seconds=baseline.runtime,
        )
        eco = EcoEngine(engine)
        previous_max = baseline.final_max_tcp
        result.stopped = "max_rounds"
        for round_index in range(1, config.max_rounds + 1):
            edit = EcoEdit(op="release_nets", worst=config.release_k)
            before = (bench.grid.total_via_overflow(), bench.grid.total_vias())
            with tracer.span(
                "closure.round", round=round_index, worst=config.release_k
            ):
                report = eco.apply([edit], max_first=True)
            if round_index == 1:
                # The baseline report's Max(Tcp) covers only its own
                # released set; round 1's pre-stats are the true global
                # worst after the baseline commit — the honest zero point
                # of the loop's gain accounting.
                result.initial_max_tcp = report.pre_max_tcp
                result.initial_avg_tcp = report.pre_avg_tcp
            result.rounds.append(report)
            result.final_max_tcp = report.post_max_tcp
            result.final_avg_tcp = report.post_avg_tcp
            if ledger_path:
                append_entry(
                    ledger_path,
                    round_entry(
                        config, report, round_index, bench.grid, before,
                        trace_info,
                    ),
                )
            gain = (
                1.0 - report.post_max_tcp / previous_max
                if previous_max > 0 else 0.0
            )
            log.info(
                "closure round %d: Max(Tcp) %.1f -> %.1f (gain %.3f%%, "
                "dirty %d/%d leaves)",
                round_index, previous_max, report.post_max_tcp,
                100 * gain,
                report.dirty.get("dirty_leaves", 0),
                report.dirty.get("num_leaves", 0),
            )
            previous_max = report.post_max_tcp
            if gain < config.min_gain:
                result.stopped = "min_gain"
                break
    return result


def render_closure(result: ClosureResult) -> str:
    """Terminal summary of a closure run."""
    lines = [
        f"closure {result.benchmark}/{result.method}: "
        f"{len(result.rounds)} rounds, stopped on {result.stopped}",
        f"  baseline solve        {result.baseline_seconds:8.2f}s",
        f"  Max(Tcp)  {result.initial_max_tcp:>12.2f} -> "
        f"{result.final_max_tcp:>12.2f}  ({result.total_gain:+.2%} gain)",
        f"  Avg(Tcp)  {result.initial_avg_tcp:>12.2f} -> "
        f"{result.final_avg_tcp:>12.2f}",
    ]
    for i, r in enumerate(result.rounds, 1):
        lines.append(
            f"  round {i}: Max(Tcp) {r.pre_max_tcp:.1f} -> "
            f"{r.post_max_tcp:.1f}  dirty {r.dirty.get('dirty_leaves', 0)}"
            f"/{r.dirty.get('num_leaves', 0)} leaves "
            f"({r.dirty_fraction:.0%})  {r.seconds:.2f}s  "
            + ("accepted" if r.accepted else "rolled back")
        )
    return "\n".join(lines)
