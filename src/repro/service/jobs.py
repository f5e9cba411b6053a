"""Bounded job queue with backpressure, deadlines, and cancellation.

The queue is the server's admission-control point: it accepts at most
``max_depth`` queued jobs, and a full queue rejects the submit immediately
(:class:`QueueFull` -> HTTP 429 with a ``Retry-After`` estimated from the
recent service rate) instead of letting latency grow without bound.

Jobs carry an optional monotonic deadline.  Expired jobs are dropped at
dispatch time — the scheduler never spends engine seconds on a request
whose client has already given up — and their futures complete with
:class:`JobExpired` (HTTP 504).

``get`` is the scheduler's side: it blocks until work is available,
then returns the oldest job.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional

from repro.ispd.request import AssignRequest
from repro.obs import metrics
from repro.obs.tracer import TraceContext

# Queue-depth-at-enqueue histogram buckets (jobs).
DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class QueueFull(Exception):
    """The bounded queue rejected a submit (backpressure)."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(f"job queue is full ({depth} queued)")
        self.depth = depth
        self.retry_after = retry_after


class QueueClosed(Exception):
    """Submit after the server began draining."""


class JobExpired(Exception):
    """The job's deadline passed before an engine picked it up."""


@dataclass
class Job:
    """One queued assign request and its completion future."""

    request: AssignRequest
    future: "asyncio.Future[Dict[str, Any]]"
    enqueued_at: float = field(default_factory=time.monotonic)
    deadline: Optional[float] = None  # monotonic seconds, absolute
    depth_at_enqueue: int = 0
    # Request-scoped trace context (trace_id + the HTTP request span id);
    # the scheduler attaches it on the engine thread so the whole solve
    # nests under that request's trace.
    ctx: Optional[TraceContext] = None

    @classmethod
    def create(
        cls,
        request: AssignRequest,
        loop: asyncio.AbstractEventLoop,
        default_deadline_ms: Optional[float] = None,
        ctx: Optional[TraceContext] = None,
    ) -> "Job":
        deadline_ms = request.deadline_ms or default_deadline_ms
        deadline = (
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        return cls(
            request=request, future=loop.create_future(), deadline=deadline,
            ctx=ctx,
        )

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def queued_seconds(self, now: Optional[float] = None) -> float:
        return (now or time.monotonic()) - self.enqueued_at


class JobQueue:
    """Bounded FIFO of :class:`Job`, dispatched one job at a time."""

    def __init__(self, max_depth: int = 32) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._jobs: Deque[Job] = deque()
        self._waiter: Optional[asyncio.Future] = None
        self._closed = False
        # Exponentially-smoothed per-job service seconds; seeds the
        # Retry-After estimate before the first completion.
        self._service_estimate = 1.0

    # -- producer side ----------------------------------------------------

    def submit(self, job: Job) -> None:
        """Admit one job or raise :class:`QueueFull` / :class:`QueueClosed`."""
        if self._closed:
            raise QueueClosed("server is draining; not accepting jobs")
        depth = len(self._jobs)
        if depth >= self.max_depth:
            metrics.inc("serve.rejected_full")
            raise QueueFull(depth, self.retry_after())
        job.depth_at_enqueue = depth
        self._jobs.append(job)
        metrics.inc("serve.jobs_submitted")
        metrics.observe("serve.queue_depth", float(depth), DEPTH_BUCKETS)
        self._wake()

    def retry_after(self) -> float:
        """Seconds a 429'd client should wait: time to drain half the queue."""
        return max(1.0, 0.5 * len(self._jobs) * self._service_estimate)

    def record_service_seconds(self, seconds: float) -> None:
        self._service_estimate = 0.7 * self._service_estimate + 0.3 * max(
            seconds, 1e-3
        )

    # -- consumer side ----------------------------------------------------

    async def get(self) -> Optional[Job]:
        """The oldest queued job; ``None`` once closed and drained.

        Expired jobs are completed with :class:`JobExpired` here rather
        than dispatched.
        """
        while True:
            self._drop_expired()
            if self._jobs:
                return self._jobs.popleft()
            if self._closed:
                return None
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None

    def _drop_expired(self) -> None:
        if not self._jobs:
            return
        live: Deque[Job] = deque()
        for job in self._jobs:
            if job.expired:
                metrics.inc("serve.jobs_expired")
                if not job.future.done():
                    job.future.set_exception(
                        JobExpired(
                            f"deadline passed after "
                            f"{job.queued_seconds():.2f}s in queue"
                        )
                    )
            else:
                live.append(job)
        self._jobs = live

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop admitting; queued jobs still drain through ``get``."""
        self._closed = True
        self._wake()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._jobs)

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)
