"""The fleet front end: a sharding, caching, failing-over HTTP gateway.

``repro gateway`` sits in front of N resident ``repro serve`` shard
nodes and presents the identical single-node API (``POST /v1/assign``,
``POST /v1/eco``) at fleet scale:

- **sharding** — requests route by problem signature over a
  deterministic consistent-hash ring (:mod:`repro.fleet.ring`), so the
  same benchmark+config always lands on the shard holding its warm
  resident;
- **result cache** — idempotent ``/v1/assign`` repeats answer straight
  from the gateway's digest-keyed LRU (:mod:`repro.fleet.cache`),
  touching no shard and no solver; a ``/v1/eco`` success invalidates
  the affected signature;
- **health + failover** — shards are health-checked via ``/readyz``;
  a transport failure mid-request marks the shard dead and retries the
  ring's next live shard.  The successor prepares and solves the
  signature in full; its replica of the dead shard's state
  (:mod:`repro.fleet.replica`) keeps the ``/v1/eco`` epoch chain going
  and checks cross-node determinism, it does not make failover cheap.
  HTTP *error statuses are not failover*: a 429/504/409 is a shard's
  answer, and it passes through to the client as the raw bytes the
  shard produced — byte-compatible with single-node serving;
- **backpressure** — per-shard in-flight caps with a bounded wait line;
  beyond it the gateway answers 429 + ``Retry-After`` itself.

The gateway is an :class:`~repro.service.http.HttpFront` like the shard
server (metric prefix ``fleet``, span ``gateway.request``): the same
edge parses requests, continues (or mints) the W3C ``traceparent``,
answers 400/404/405/500 and stamps trace ids.  The gateway forwards its
span's context to the shard — so ``repro obs trace show`` renders
gateway -> shard -> engine as one connected tree.  Cache hits record a
``fleet.cache_hit`` link span pointing at the original solve's trace.

Bit-identity stays the currency: a gateway-served digest equals the
single-node digest for every request, under failover and cache hits
alike (CI's fleet-smoke job kills a shard mid-load to prove it).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.fleet.cache import CacheEntry, ResultCache
from repro.fleet.ring import DEFAULT_VNODES, HashRing
from repro.ispd.request import (
    AssignRequest,
    EcoRequest,
    error_body,
)
from repro.obs import metrics, tracer
from repro.obs.tracer import TraceContext
from repro.service import http
from repro.utils import get_logger

log = get_logger(__name__)

# Transport-level failures that justify trying the next shard: the shard
# never produced an HTTP answer, so retrying elsewhere cannot double-count
# an application-level state transition the client observed.
_FAILOVER_ERRORS = (ConnectionError, OSError, EOFError, asyncio.IncompleteReadError)


@dataclass
class GatewayConfig:
    """Knobs of one gateway instance."""

    shards: Dict[str, http.Address] = field(default_factory=dict)
    host: str = "127.0.0.1"
    port: int = 8282
    vnodes: int = DEFAULT_VNODES
    cache_capacity: int = 256
    # Per-shard backpressure: at most ``max_inflight_per_shard`` proxied
    # requests on one shard, at most ``max_waiting_per_shard`` queued
    # behind them; beyond that the gateway 429s without asking the shard.
    max_inflight_per_shard: int = 8
    max_waiting_per_shard: int = 32
    health_interval_seconds: float = 1.0
    connect_timeout_seconds: float = 5.0
    request_timeout_seconds: float = 300.0
    max_body_bytes: int = 1 << 20
    header_timeout_seconds: float = 10.0

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("gateway needs at least one shard")
        if self.max_inflight_per_shard < 1:
            raise ValueError("max_inflight_per_shard must be >= 1")


class ShardState:
    """Liveness + backpressure accounting of one shard."""

    def __init__(self, shard_id: str, address: http.Address, inflight: int) -> None:
        self.id = shard_id
        self.address = address
        self.live = True  # optimistic until the first health check
        self.waiters = 0
        self.semaphore = asyncio.Semaphore(inflight)
        self.failures = 0
        self.proxied = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "address": f"{self.address[0]}:{self.address[1]}",
            "live": self.live,
            "proxied": self.proxied,
            "failures": self.failures,
        }


class Gateway(http.HttpFront):
    """One gateway process: ring + cache + health + proxy on the HTTP edge."""

    metric_prefix = "fleet"
    span_name = "gateway.request"
    crash_log = "unhandled gateway error %s %s"

    def __init__(self, config: GatewayConfig) -> None:
        super().__init__(config, {
            "/healthz": {"GET": self._healthz},
            "/readyz": {"GET": self._readyz},
            "/metrics": {"GET": self._metrics},
            "/fleet/shards": {"GET": self._topology},
            "/v1/assign": {"POST": self._proxy},
            "/v1/eco": {"POST": self._proxy},
        })
        self.ring = HashRing(config.shards, vnodes=config.vnodes)
        self.cache = ResultCache(config.cache_capacity)
        self.shards = {
            sid: ShardState(sid, addr, config.max_inflight_per_shard)
            for sid, addr in config.shards.items()
        }
        self._health_task: Optional[asyncio.Task] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        metrics.enable()
        await self._health_sweep()  # know the fleet before accepting
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop(), name="gateway-health"
        )
        await self.listen()
        log.info(
            "gateway on http://%s:%d over %d shards (%s)",
            self.config.host, self.port, len(self.shards),
            ", ".join(sorted(self.shards)),
        )

    def initiate_shutdown(self, reason: str = "requested") -> None:
        if self._stopped.is_set():
            return
        log.info("gateway shutdown (%s)", reason)
        if self._health_task is not None:
            self._health_task.cancel()
        if self._server is not None:
            self._server.close()
        self._stopped.set()

    @property
    def live_shards(self) -> List[str]:
        return [sid for sid, s in self.shards.items() if s.live]

    # -- health -----------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_seconds)
            await self._health_sweep()

    async def _health_sweep(self) -> None:
        await asyncio.gather(
            *(self._probe(shard) for shard in self.shards.values()),
            return_exceptions=True,
        )
        metrics.set_gauge("fleet.live_shards", len(self.live_shards))

    async def _probe(self, shard: ShardState) -> None:
        try:
            status, _headers, _blob = await http.exchange(
                shard.address, "GET", "/readyz",
                timeout=self.config.connect_timeout_seconds,
            )
            live = status == 200
        except _FAILOVER_ERRORS + (asyncio.TimeoutError,):
            live = False
        if live != shard.live:
            log.info(
                "shard %s %s", shard.id, "recovered" if live else "went dark"
            )
            metrics.inc("fleet.shard_up" if live else "fleet.shard_down")
        shard.live = live

    # -- routing ----------------------------------------------------------

    async def _healthz(self, req: http.Request) -> http.Reply:
        return 200, {
            "status": "alive",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "shards": len(self.shards),
            "live_shards": len(self.live_shards),
        }, {}

    async def _readyz(self, req: http.Request) -> http.Reply:
        live = self.live_shards
        if live:
            return 200, {"status": "ready", "live_shards": len(live)}, {}
        return 503, {"status": "no_live_shards"}, {}

    async def _metrics(self, req: http.Request) -> http.Reply:
        metrics.set_gauge("fleet.cache_entries", len(self.cache))
        metrics.set_gauge("fleet.live_shards", len(self.live_shards))
        return 200, metrics.registry().render_prometheus(), {}

    async def _topology(self, req: http.Request) -> http.Reply:
        return 200, {
            "schema": "repro.fleet_topology/v1",
            "shards": [
                self.shards[sid].snapshot() for sid in sorted(self.shards)
            ],
            "vnodes": self.config.vnodes,
            "cache": self.cache.stats(),
        }, {}

    async def _proxy(self, req: http.Request) -> http.Reply:
        """Shard one ``/v1/assign``/``/v1/eco`` request; the tentpole path."""
        path, ctx = req.path, req.ctx
        # Same parser, same error shape as a shard's own 400 — a bad
        # request is rejected at the edge without burning a shard slot.
        request = self.parse_body(
            req.body,
            EcoRequest.from_json if path == "/v1/eco"
            else AssignRequest.from_json,
        )
        key = request.signature_key()
        cacheable = path == "/v1/assign" and not request.return_assignment
        if cacheable:
            entry = self.cache.get(key)
            if entry is not None:
                return self._serve_cache_hit(key, entry, ctx)

        # Forward the gateway span's context so the shard's serve.request
        # span parents under it: one connected gateway->shard->engine tree.
        hop_headers = {"traceparent": ctx.to_traceparent()}
        attempts = 0
        # A request is a failover once it cannot be served by the first
        # shard the ring names for it — whether the health sweep already
        # declared that shard dead (skip) or it died mid-request (below).
        failed_over = False
        for shard_id in self.ring.successors(key):
            shard = self.shards[shard_id]
            if not shard.live:
                failed_over = True
                continue
            if shard.waiters >= self.config.max_waiting_per_shard:
                metrics.inc("fleet.backpressure_429")
                return 429, error_body(
                    "overloaded",
                    f"gateway backlog for shard {shard_id} is full",
                    retry_after_seconds=1,
                ), {"Retry-After": "1"}
            attempts += 1
            shard.waiters += 1
            try:
                await shard.semaphore.acquire()
            finally:
                shard.waiters -= 1
            try:
                status, resp_headers, blob = await http.exchange(
                    shard.address, "POST", path, req.body, hop_headers,
                    timeout=self.config.request_timeout_seconds,
                    connect_timeout=self.config.connect_timeout_seconds,
                )
            except _FAILOVER_ERRORS as exc:
                # The shard never answered: mark it dead and fail over to
                # the ring's next live shard.  Bit-identity makes the
                # retry safe — the successor produces the same digest.
                shard.live = False
                shard.failures += 1
                failed_over = True
                metrics.inc("fleet.transport_failures")
                log.warning(
                    "shard %s failed mid-request (%s: %s); failing over",
                    shard_id, type(exc).__name__, exc,
                )
                continue
            except asyncio.TimeoutError:
                # The shard is still working — answering 504 here mirrors
                # the shard's own deadline taxonomy; re-running a live
                # solve on another shard would double the work, not halve
                # the wait.
                metrics.inc("fleet.upstream_timeouts")
                return 504, error_body(
                    "deadline_exceeded",
                    f"shard {shard_id} exceeded the gateway timeout",
                ), {}
            finally:
                shard.semaphore.release()
            shard.proxied += 1
            metrics.inc("fleet.proxied")
            if failed_over:
                metrics.inc("fleet.failovers")
                metrics.inc("fleet.failover_successes")
            self._post_process(path, key, status, resp_headers, blob, cacheable)
            # Raw passthrough: the client sees the exact bytes the shard
            # produced (429 Retry-After, 504, ECO 409 epoch body included).
            return status, http.RawBody(
                blob, resp_headers.get("content-type", http.JSON_CONTENT_TYPE)
            ), _passthrough_headers(resp_headers)
        metrics.inc("fleet.no_live_shards")
        return 503, error_body(
            "no_live_shards",
            f"no live shard for signature {key} "
            f"({attempts} of {len(self.shards)} tried)",
        ), {}

    def _serve_cache_hit(self, key, entry, ctx):
        """Answer from cache; no shard, no solver, one link span."""
        link = tracer.start_span(
            "fleet.cache_hit",
            ctx=ctx,
            signature=key,
            link_trace_id=entry.trace_id,
            link_span_id=entry.span_id,
        )
        if link is not None:
            link.finish()
        payload = dict(entry.payload)
        payload["trace_id"] = ctx.trace_id
        payload["fleet"] = {
            "cache_hit": True,
            "origin_trace_id": entry.trace_id,
        }
        return 200, payload, {"X-Fleet-Cache": "hit"}

    def _post_process(
        self, path, key, status, resp_headers, blob, cacheable
    ) -> None:
        """Cache bookkeeping after a successful upstream exchange."""
        if status != 200:
            return
        if path == "/v1/eco":
            # The resident's committed state moved: a cached epoch-0
            # payload is still digest-correct but epoch-stale.  Drop it.
            self.cache.invalidate(key)
            return
        if not cacheable:
            return
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        digest = payload.get("assignment_digest")
        if not digest:
            return
        # Link target of future cache hits: the shard stamped the solve's
        # trace id into the body and its serve.request span id into the
        # response traceparent.
        hop = TraceContext.from_traceparent(resp_headers.get("traceparent"))
        self.cache.put(key, CacheEntry(
            digest=digest,
            payload=payload,
            trace_id=payload.get("trace_id"),
            span_id=hop.span_id if hop is not None else None,
        ))


def _passthrough_headers(resp_headers: Dict[str, str]) -> Dict[str, str]:
    """Upstream headers the client must see unmodified."""
    out: Dict[str, str] = {}
    if "retry-after" in resp_headers:
        out["Retry-After"] = resp_headers["retry-after"]
    if "x-trace-id" in resp_headers:
        out["X-Trace-Id"] = resp_headers["x-trace-id"]
    return out

