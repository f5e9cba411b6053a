"""Batch scheduler: queued jobs -> resident engine -> fanned-out results.

A single dispatcher task pulls signature-grouped batches from the
:class:`~repro.service.jobs.JobQueue` and executes them on the
:class:`~repro.service.resident.EngineHost` in one dedicated worker
thread.  The thread keeps the asyncio loop responsive (health checks and
metric scrapes answer while an engine grinds) while serializing engine
access — residents hold worker processes and mutable benchmarks, so exactly
one solve runs at a time.

Batching is deduplication: every job in a batch shares the problem
signature, hence the bit-identical answer, so the engine runs **once** and
the response fans out to all of them.  Under a burst of identical
requests the engine cost is amortized across the burst — the serving-layer
analogue of batched inference.

Crash isolation: a solve that raises fails only its batch (each job's
future gets :class:`JobFailed` -> HTTP 500 with a structured error) and
evicts the possibly half-mutated resident; the dispatcher itself never
dies with a job.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.ispd.request import (
    EcoRequest,
    build_eco_response,
    build_response,
    extract_assignment,
)
from repro.obs import metrics, tracer
from repro.service.jobs import Job, JobQueue
from repro.service.resident import EngineHost, StaleEpoch
from repro.utils import get_logger

log = get_logger(__name__)

# Request service-time buckets (seconds): engine runs are seconds-scale.
SERVICE_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)


class JobFailed(Exception):
    """The engine raised while serving this job (maps to HTTP 500)."""


class JobConflict(Exception):
    """An ECO job named a stale state epoch (maps to HTTP 409).

    Unlike :class:`JobFailed`, a conflict does *not* evict the resident —
    its state is intact and authoritative; the client's view is what is
    out of date.
    """

    def __init__(self, expected: int, current: int) -> None:
        super().__init__(
            f"stale state_epoch: request targets epoch {expected}, "
            f"resident is at epoch {current}"
        )
        self.expected = expected
        self.current = current


class BatchScheduler:
    """Owns the dispatcher task and the single engine worker thread."""

    def __init__(
        self,
        queue: JobQueue,
        host: EngineHost,
        max_batch: int = 8,
    ) -> None:
        self.queue = queue
        self.host = host
        self.max_batch = max_batch
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="engine"
        )
        self._task: Optional[asyncio.Task] = None
        self.in_flight = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="batch-scheduler"
        )

    async def join(self) -> None:
        """Wait until the queue is drained and the dispatcher exited."""
        if self._task is not None:
            await self._task
            self._task = None
        self._executor.shutdown(wait=True)
        self.host.close()

    # -- dispatch ---------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self.queue.get_batch(self.max_batch)
            if batch is None:
                return
            live = [job for job in batch if not job.future.done()]
            pending = [job for job in live if not job.expired]
            for job in live:
                if job.expired:
                    from repro.service.jobs import JobExpired

                    metrics.inc("serve.jobs_expired")
                    job.future.set_exception(
                        JobExpired("deadline passed while queued")
                    )
            if not pending:
                continue
            self.in_flight = len(pending)
            started = time.monotonic()
            for job in pending:
                job.started_at = started
            want_assignment = any(
                job.request.return_assignment for job in pending
            )
            leader = pending[0]
            try:
                report, digest, assignment, engine_runs, solve_span_id = (
                    await loop.run_in_executor(
                        self._executor,
                        self._solve,
                        leader,
                        want_assignment,
                        len(pending),
                    )
                )
            except StaleEpoch as exc:
                # The resident is fine — only the client's epoch is stale.
                # No eviction; the whole batch (same epoch by dedup key)
                # gets a structured 409.
                log.info(
                    "eco conflict for %s: %s; batch of %d gets 409",
                    leader.request.signature_key(), exc, len(pending),
                )
                metrics.inc("serve.jobs_conflicted", len(pending))
                conflict = JobConflict(exc.expected, exc.current)
                for job in pending:
                    if not job.future.done():
                        job.future.set_exception(conflict)
            except Exception as exc:
                log.warning(
                    "solve failed for %s (%s: %s); batch of %d gets 500",
                    leader.request.signature_key(),
                    type(exc).__name__, exc, len(pending),
                )
                metrics.inc("serve.jobs_failed", len(pending))
                # Poisoned state must not leak into the next request.
                self.host.discard(leader.request)
                failure = JobFailed(f"{type(exc).__name__}: {exc}")
                for job in pending:
                    if not job.future.done():
                        job.future.set_exception(failure)
            else:
                elapsed = time.monotonic() - started
                self.queue.record_service_seconds(elapsed)
                metrics.inc("serve.batches")
                metrics.inc("serve.jobs_served", len(pending))
                metrics.observe(
                    "serve.solve_seconds", elapsed, SERVICE_BUCKETS
                )
                self._fan_out(
                    pending, report, digest, assignment, engine_runs, elapsed,
                    solve_span_id,
                )
            finally:
                self.in_flight = 0

    def _solve(
        self, leader: Job, want_assignment: bool, batch_size: int
    ) -> Tuple[Any, str, Optional[Dict[str, List[int]]], int,
               Optional[str]]:
        """Engine-thread body: resolve the resident and run the batch once.

        An :class:`~repro.ispd.request.EcoRequest` leader applies its edit
        set incrementally (``resident.apply_eco``); anything else is a full
        solve.  The report is a :class:`RunReport` or an ``EcoReport``
        accordingly — ``_fan_out`` picks the matching response builder.

        The batch leader's trace context is attached for the duration, so
        the ``serve.solve`` span (and the whole engine span tree under it)
        nests under the leader's HTTP request span.  Deduped followers get
        a span *link* to this solve's span id instead (see ``_fan_out``).
        """
        ctx = leader.ctx
        token = tracer.attach(ctx) if ctx is not None else None
        try:
            with tracer.span(
                "serve.solve",
                signature=leader.request.signature_key(),
                batch_size=batch_size,
            ) as span:
                resident = self.host.get(leader.request)
                if isinstance(leader.request, EcoRequest):
                    report = resident.apply_eco(leader.request)
                    digest = report.digest
                else:
                    report, digest = resident.solve()
                assignment = (
                    extract_assignment(resident.bench)
                    if want_assignment else None
                )
            return report, digest, assignment, resident.runs, getattr(
                span, "id", None
            )
        finally:
            if ctx is not None:
                tracer.detach(token)

    def _fan_out(
        self,
        jobs: List[Job],
        report: Any,
        digest: str,
        assignment: Optional[Dict[str, List[int]]],
        engine_runs: int,
        elapsed: float,
        solve_span_id: Optional[str] = None,
    ) -> None:
        now = time.monotonic()
        leader = jobs[0]
        leader_trace = leader.ctx.trace_id if leader.ctx is not None else None
        for job in jobs:
            if job.future.done():
                continue
            serving: Dict[str, Any] = {
                "queued_ms": round(
                    1000.0 * ((job.started_at or now) - job.enqueued_at), 3
                ),
                "service_ms": round(1000.0 * elapsed, 3),
                "batch_size": len(jobs),
                "deduped": len(jobs) > 1,
                "queue_depth": job.depth_at_enqueue,
                "engine_runs": engine_runs,
                "warm": engine_runs > 1,
            }
            if job is not leader and job.ctx is not None:
                # The dedup winner ran the engine; followers record a span
                # link into the winning run's trace so their own (otherwise
                # leaf-less) trace points at the spans that did the work.
                serving["link"] = {
                    "trace_id": leader_trace,
                    "span_id": solve_span_id,
                }
                link = tracer.start_span(
                    "serve.dedup",
                    ctx=job.ctx,
                    link_trace_id=leader_trace,
                    link_span_id=solve_span_id,
                )
                if link is not None:
                    link.finish()
            if isinstance(job.request, EcoRequest):
                job.future.set_result(
                    build_eco_response(
                        job.request,
                        report,
                        assignment if job.request.return_assignment else None,
                        serving,
                    )
                )
            else:
                job.future.set_result(
                    build_response(
                        job.request,
                        report,
                        digest,
                        assignment if job.request.return_assignment else None,
                        serving,
                    )
                )
