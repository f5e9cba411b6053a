"""Asyncio HTTP job server for layer-assignment requests (``repro serve``).

The server is an :class:`~repro.service.http.HttpFront` (metric prefix
``serve``, span ``serve.request``): parsing, trace ids, the 400/404/405
and crash-isolating 500 replies and the request metrics come from that
one HTTP edge, which the fleet gateway shares.  This module supplies the
routes:

- ``POST /v1/assign`` — problem JSON in (``repro.assign_request/v1``),
  optimized assignment + Tcp + per-phase clocks out.  Admission goes
  through the bounded job queue: a full queue answers **429** with a
  ``Retry-After`` estimate instead of queueing unboundedly.
- ``POST /v1/eco`` — an ECO delta (``repro.eco_request/v1``: typed edit
  set + ``state_epoch``) applied incrementally against the matching
  resident's committed state.  A stale epoch answers a structured **409**
  with the resident's current epoch; the resident is untouched.
- ``GET  /metrics``  — Prometheus text from the process-wide
  :mod:`repro.obs.metrics` registry (the same registry the engines
  instrument; there is deliberately no second one).
- ``GET  /healthz``  — liveness: 200 whenever the process can answer.
- ``GET  /readyz``   — readiness: 200 while accepting, 503 once draining.
- ``POST /v1/drain`` — begin graceful drain (same path as SIGTERM).

Every request is trace-scoped: the edge continues an incoming W3C
``traceparent`` (or mints a trace id) and returns the ``trace_id`` in
every JSON response body and ``X-Trace-Id`` header — 429/500/504
included.  When tracing is enabled, the detached ``serve.request`` span
roots the request's span tree (engine and worker spans nest under it
through the scheduler's engine thread; see ``repro obs trace``).

Lifecycle: SIGTERM/SIGINT (or ``/v1/drain``) stops admission, lets
in-flight and queued jobs finish on the engine thread, closes resident
engines (and their worker processes), then exits 0.  Request handling is
crash-isolated — a poisoned job produces a structured 500 and evicts its
resident; the server keeps serving.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ispd.request import (
    AssignRequest,
    EcoRequest,
    RequestError,
    error_body,
)
from repro.obs import metrics
from repro.service import http
from repro.service.batcher import BatchScheduler, JobConflict, JobFailed
from repro.service.jobs import Job, JobExpired, JobQueue, QueueClosed, QueueFull
from repro.service.resident import EngineHost
from repro.utils import get_logger

log = get_logger(__name__)


@dataclass
class ServeConfig:
    """Knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 8181
    max_queue: int = 32
    engine_cache: int = 4
    default_deadline_ms: Optional[float] = 120000.0
    max_body_bytes: int = 1 << 20
    header_timeout_seconds: float = 10.0
    # Admission policy: synthetic instances grow with scale and every
    # worker is a process — cap what one request may demand of the box.
    max_scale: float = 1.0
    max_workers: int = 4
    # Optional TCP listener handed to the dist fabric of ``--exec dist``
    # residents so remote ``repro dist-worker --connect`` workers can join.
    dist_listen: Optional[Tuple[str, int]] = None
    dist_authkey: Optional[bytes] = None
    # Fleet membership (optional; see repro.fleet).  ``fleet_shard_id``
    # names this shard on the consistent-hash ring; ``replica_listen``
    # opens the authenticated replica receiver; ``fleet_peers`` maps every
    # shard id (this one included) to its replica listener address.  When
    # peers are known up front they wire at start(); topologies with
    # ephemeral replica ports call :meth:`AssignServer.join_fleet` after
    # all receivers are bound.
    fleet_shard_id: Optional[str] = None
    replica_listen: Optional[Tuple[str, int]] = None
    fleet_authkey: Optional[bytes] = None
    fleet_peers: Optional[Dict[str, Tuple[str, int]]] = None
    fleet_vnodes: int = 64

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.replica_listen is not None and self.fleet_authkey is None:
            raise ValueError("replica_listen requires fleet_authkey")
        if self.replica_listen is not None and self.fleet_shard_id is None:
            raise ValueError("replica_listen requires fleet_shard_id")


class AssignServer(http.HttpFront):
    """One resident serving process: queue + dispatcher on the HTTP edge."""

    metric_prefix = "serve"
    span_name = "serve.request"
    crash_log = "unhandled error serving %s %s"

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        super().__init__(config or ServeConfig(), {
            "/healthz": {"GET": self._healthz},
            "/readyz": {"GET": self._readyz},
            "/metrics": {"GET": self._metrics},
            "/v1/drain": {"POST": self._drain},
            "/v1/assign": {"POST": self._assign},
            "/v1/eco": {
                "POST": lambda req: self._assign(req, EcoRequest.from_json)
            },
        })
        self.queue = JobQueue(self.config.max_queue)
        self.host = EngineHost(
            self.config.engine_cache,
            dist_listen=self.config.dist_listen,
            dist_authkey=self.config.dist_authkey,
        )
        self.scheduler = BatchScheduler(self.queue, self.host)
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._replica_receiver = None  # repro.fleet.replica.ReplicaReceiver

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the dispatcher (idempotent-free)."""
        metrics.enable()
        if self.config.replica_listen is not None:
            from repro.fleet.replica import ReplicaReceiver

            self._replica_receiver = ReplicaReceiver(
                self.config.replica_listen, self.config.fleet_authkey
            )
            self._replica_receiver.start()
            log.info(
                "shard %s replica receiver on %s:%d",
                self.config.fleet_shard_id, *self._replica_receiver.address,
            )
            if self.config.fleet_peers:
                self.join_fleet(self.config.fleet_peers)
        self.scheduler.start()
        await self.listen()
        log.info(
            "serving on http://%s:%d (queue=%d, engines=%d)",
            self.config.host, self.port,
            self.config.max_queue, self.config.engine_cache,
        )

    def initiate_shutdown(self, reason: str = "requested") -> None:
        """Drain: stop admission, finish in-flight work, then stop."""
        if self._draining:
            return
        self._draining = True
        log.info(
            "drain started (%s): %d queued, %d in flight",
            reason, len(self.queue), self.scheduler.in_flight,
        )
        metrics.inc("serve.drains")
        self.queue.close()
        self._drain_task = asyncio.get_running_loop().create_task(
            self._finish_drain(), name="drain"
        )

    async def _finish_drain(self) -> None:
        await self.scheduler.join()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._replica_receiver is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._replica_receiver.close
            )
        log.info("drain complete")
        self._stopped.set()

    @property
    def ready(self) -> bool:
        return self._server is not None and not self._draining

    # -- fleet membership --------------------------------------------------

    @property
    def replica_address(self) -> Optional[Tuple[str, int]]:
        """The bound replica listener address (resolves a port-0 listen)."""
        if self._replica_receiver is None:
            return None
        return self._replica_receiver.address

    def join_fleet(self, peers: Dict[str, Tuple[str, int]]) -> None:
        """Finish fleet wiring once every peer's replica address is known.

        ``peers`` maps shard id -> replica listener address for the whole
        fleet, this shard included.  Builds the same consistent-hash ring
        the gateway routes by, so the shard can (a) push each signature's
        replica state to its ring successor and (b) recognize failed-over
        traffic — a resident build for a signature it does not own.
        """
        from repro.fleet.replica import Replicator, ShardFleet
        from repro.fleet.ring import HashRing

        if self._replica_receiver is None:
            raise ValueError("join_fleet requires replica_listen")
        shard_id = self.config.fleet_shard_id
        if shard_id not in peers:
            raise ValueError(f"fleet peers must include this shard {shard_id!r}")
        ring = HashRing(peers, vnodes=self.config.fleet_vnodes)
        self.host.fleet = ShardFleet(
            shard_id=shard_id,
            ring=ring,
            store=self._replica_receiver.store,
            replicator=Replicator(
                shard_id, ring, peers, self.config.fleet_authkey
            ),
        )
        log.info(
            "shard %s joined fleet of %d (%s)",
            shard_id, len(peers), ", ".join(sorted(peers)),
        )

    # -- routes -----------------------------------------------------------

    async def _healthz(self, req: http.Request) -> http.Reply:
        return 200, {
            "status": "alive",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "draining": self._draining,
        }, {}

    async def _readyz(self, req: http.Request) -> http.Reply:
        if self.ready:
            return 200, {
                "status": "ready",
                "queue_depth": len(self.queue),
                "resident_engines": len(self.host),
            }, {}
        return 503, {"status": "draining"}, {}

    async def _metrics(self, req: http.Request) -> http.Reply:
        metrics.set_gauge("serve.queue_depth_current", len(self.queue))
        metrics.set_gauge("serve.in_flight", self.scheduler.in_flight)
        metrics.set_gauge("serve.resident_engines", len(self.host))
        return 200, metrics.registry().render_prometheus(), {}

    async def _drain(self, req: http.Request) -> http.Reply:
        queued, in_flight = len(self.queue), self.scheduler.in_flight
        self.initiate_shutdown("POST /v1/drain")
        return 202, {
            "status": "draining",
            "queued": queued,
            "in_flight": in_flight,
        }, {}

    async def _assign(
        self, req: http.Request, parser=AssignRequest.from_json
    ) -> http.Reply:
        """Shared admission path of ``/v1/assign`` and ``/v1/eco``.

        Only the parser differs; queueing, backpressure, deadlines, and
        the error taxonomy are identical.  409 (stale ECO epoch) can only
        come back for :class:`EcoRequest` jobs.
        """
        request = self.parse_body(
            req.body, lambda payload: self._check_policy(parser(payload))
        )
        job = Job.create(
            request,
            asyncio.get_running_loop(),
            self.config.default_deadline_ms,
            ctx=req.ctx,
        )
        try:
            self.queue.submit(job)
        except QueueFull as exc:
            retry_after = max(1, round(exc.retry_after))
            return 429, error_body(
                "overloaded", str(exc), retry_after_seconds=retry_after
            ), {"Retry-After": str(retry_after)}
        except QueueClosed as exc:
            return 503, error_body("draining", str(exc)), {}
        try:
            response = await job.future
        except JobExpired as exc:
            return 504, error_body("deadline_exceeded", str(exc)), {}
        except JobConflict as exc:
            return 409, error_body(
                "stale_epoch", str(exc),
                expected_epoch=exc.expected, current_epoch=exc.current,
            ), {}
        except JobFailed as exc:
            return 500, error_body("solve_failed", str(exc)), {}
        return 200, response, {}

    def _check_policy(self, request: AssignRequest) -> AssignRequest:
        cfg = self.config
        if request.scale > cfg.max_scale:
            raise RequestError(
                f"scale {request.scale:g} exceeds this server's limit "
                f"{cfg.max_scale:g}"
            )
        if request.workers > cfg.max_workers:
            raise RequestError(
                f"workers {request.workers} exceeds this server's limit "
                f"{cfg.max_workers}"
            )
        return request

