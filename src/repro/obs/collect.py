"""Bring worker-process telemetry back into the parent.

With ``workers > 1`` the engine solves leaves in dist fabric worker
processes: every span, metric, and wall-clock phase recorded inside the
worker lives in the *worker's* memory and dies with it unless shipped
home.  The protocol is:

1. the worker task starts with :func:`reset_worker_state` (a forked child
   inherits the parent's buffers — they must not be re-exported);
2. after solving, the worker returns :func:`capture_worker_telemetry` in
   its payload — a picklable :class:`WorkerTelemetry`;
3. the parent calls :func:`merge_worker_telemetry`, which extends the trace
   buffer (re-parenting the worker's root spans under the parent span that
   dispatched the task), folds metric snapshots into the parent registry,
   and accumulates the worker's wall-clock phases into a caller-supplied
   :class:`~repro.utils.WallClock` (kept separate from the parent clock —
   worker seconds overlap the parent's ``solve`` phase wall time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import convergence, metrics, tracer
from repro.utils import WallClock


@dataclass
class WorkerTelemetry:
    """Everything a fabric worker measured while solving one task."""

    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)
    # Convergence solve records (repro.obs.convergence); partition records
    # are parent-side only, so the payload carries just the solves.
    convergence: List[Dict[str, Any]] = field(default_factory=list)


def reset_worker_state() -> None:
    """Clear inherited/leftover telemetry at the start of a worker task."""
    tracer.reset()
    metrics.registry().reset()
    convergence.reset()


def init_worker_observability(
    tracing: bool = False,
    metric_counts: bool = False,
    convergence_records: bool = False,
) -> None:
    """Arm observability inside a worker process for one task.

    Enables the requested subsystems (idempotent) and clears any state a
    forked child inherited from the parent or a previous task of the same
    long-lived worker — persistent pools reuse workers across tasks, so
    without the reset each task would re-export its predecessors'
    spans/metrics on top of its own.
    """
    if tracing:
        tracer.enable()
    if metric_counts:
        metrics.enable()
    if convergence_records:
        convergence.enable()
    reset_worker_state()


def capture_worker_telemetry(clock: Optional[WallClock] = None) -> WorkerTelemetry:
    """Drain this process's telemetry into a picklable payload.

    ``clock`` phases are always captured (the worker-timing fix works even
    with observability off); spans and metrics are drained only when their
    subsystems are enabled, so the payload stays tiny on the default path.
    """
    return WorkerTelemetry(
        spans=tracer.drain() if tracer.is_enabled() else [],
        metrics=metrics.registry().as_dict() if metrics.is_enabled() else {},
        phases=dict(clock.totals) if clock is not None else {},
        convergence=convergence.drain_solves() if convergence.is_enabled() else [],
    )


def merge_worker_telemetry(
    telemetry: Optional[WorkerTelemetry],
    worker_clock: Optional[WallClock] = None,
    parent_span_id: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> None:
    """Fold one worker payload into the parent-process stores.

    Root spans of the worker (``parent is None``) are attached to
    ``parent_span_id`` so the merged trace nests engine → leaf → solver
    even across the process boundary.  When the worker solved under a
    shipped :class:`~repro.obs.tracer.TraceContext` its spans already
    carry the right parent and trace, and both fixups are no-ops; the
    re-parent/``trace_id`` backfill stays as the fallback for payloads
    produced without a context.
    """
    if telemetry is None:
        return
    if telemetry.spans:
        spans = []
        for s in telemetry.spans:
            if parent_span_id is not None and s.get("parent") is None:
                s = {**s, "parent": parent_span_id}
            if trace_id is not None and not s.get("trace_id"):
                s = {**s, "trace_id": trace_id}
            spans.append(s)
        tracer.extend(spans)
    if telemetry.metrics:
        metrics.registry().merge_dict(telemetry.metrics)
    if telemetry.convergence:
        convergence.extend_solves(telemetry.convergence)
    if worker_clock is not None:
        for name, seconds in telemetry.phases.items():
            worker_clock.add(name, seconds)
