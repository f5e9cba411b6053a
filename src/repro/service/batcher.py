"""Batch scheduler: queued jobs -> resident engine -> responses, one at a time.

A single dispatcher task takes the oldest job from the
:class:`~repro.service.jobs.JobQueue`, serves it on the
:class:`~repro.service.resident.EngineHost` in one dedicated worker
thread, and replies.  The thread keeps the asyncio loop responsive
(health checks and metric scrapes answer while an engine grinds) while
serializing engine access — residents hold worker processes and mutable
benchmarks, so exactly one job runs at a time.

Only a resident's first full solve and its ECO applies run the engine;
every later ``/v1/assign`` answers from the resident's solved state, so
a repeated request costs a lookup, not a solve.  Each response's
``serving`` block says whether the engine ran (``engine_ran``) and
whether the request reused a resident (``warm``).  Every ECO delta is
applied on its own: a second copy of a delta finds the resident one
epoch further on and gets a 409, wherever it queued.

Crash isolation: a solve that raises fails only its job (the future gets
:class:`JobFailed` -> HTTP 500 with a structured error) and evicts the
possibly half-mutated resident; the dispatcher itself never dies with a
job.
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

    def __init__(self, queue: JobQueue, host: EngineHost) -> None:
        self.queue = queue
        self.host = host
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
            job = await self.queue.get()
            if job is None:
                return
            if job.future.done():  # its client went away while it queued
                continue
            self.in_flight = 1
            started = time.monotonic()
            try:
                report, digest, assignment, engine = (
                    await loop.run_in_executor(self._executor, self._solve, job)
                )
            except StaleEpoch as exc:
                # The resident is fine — only the client's epoch is stale,
                # so it is not evicted.
                log.info(
                    "eco conflict for %s: %s; job gets 409",
                    job.request.signature_key(), exc,
                )
                metrics.inc("serve.jobs_conflicted")
                outcome: Any = JobConflict(exc.expected, exc.current)
            except Exception as exc:
                log.warning(
                    "solve failed for %s (%s: %s); job gets 500",
                    job.request.signature_key(), type(exc).__name__, exc,
                )
                metrics.inc("serve.jobs_failed")
                # Poisoned state must not leak into the next request.
                self.host.discard(job.request)
                outcome = JobFailed(f"{type(exc).__name__}: {exc}")
            else:
                elapsed = time.monotonic() - started
                self.queue.record_service_seconds(elapsed)
                metrics.inc("serve.jobs_served")
                metrics.observe(
                    "serve.solve_seconds", elapsed, SERVICE_BUCKETS
                )
                serving = {
                    "queued_ms": round(
                        1000.0 * (started - job.enqueued_at), 3
                    ),
                    "service_ms": round(1000.0 * elapsed, 3),
                    "queue_depth": job.depth_at_enqueue,
                    **engine,
                }
                if isinstance(job.request, EcoRequest):
                    outcome = build_eco_response(
                        job.request, report, assignment, serving
                    )
                else:
                    outcome = build_response(
                        job.request, report, digest, assignment, serving
                    )
            finally:
                self.in_flight = 0
            if job.future.done():
                continue
            if isinstance(outcome, Exception):
                job.future.set_exception(outcome)
            else:
                job.future.set_result(outcome)

    def _solve(
        self, job: Job
    ) -> Tuple[Any, str, Optional[Dict[str, List[int]]], Dict[str, Any]]:
        """Engine-thread body: resolve the resident and answer the job.

        An :class:`~repro.ispd.request.EcoRequest` applies its edit set
        incrementally (``resident.apply_eco``); anything else gets the
        full solve's answer (``resident.solve``).  The report is a
        :class:`RunReport` or an ``EcoReport`` accordingly — the
        dispatcher picks the matching response builder.  The returned
        ``engine`` fields join the response's ``serving`` block.

        The job's trace context is attached for the duration, so the
        ``serve.solve`` span (and the whole engine span tree under it)
        nests under the job's HTTP request span.
        """
        ctx = job.ctx
        token = tracer.attach(ctx) if ctx is not None else None
        try:
            with tracer.span(
                "serve.solve", signature=job.request.signature_key()
            ):
                resident = self.host.get(job.request)
                runs_before = resident.runs
                if isinstance(job.request, EcoRequest):
                    report = resident.apply_eco(job.request)
                    digest = report.digest
                else:
                    report, digest = resident.solve()
                assignment = (
                    extract_assignment(resident.bench)
                    if job.request.return_assignment else None
                )
            engine = {
                "engine_runs": resident.runs,
                "engine_ran": resident.runs > runs_before,
                # A resident that already ran served an earlier request.
                "warm": runs_before > 0,
            }
            return report, digest, assignment, engine
        finally:
            if ctx is not None:
                tracer.detach(token)
