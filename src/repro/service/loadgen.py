"""Load generator for the assign server (``repro bench-serve``).

Replays synthetic ISPD assignment requests against a server — an external
one (``--url``) or a private in-process instance spun up on an ephemeral
port — in three phases:

1. **cold**: one request against the empty server; measures the
   first-request latency (engine build: routing + pool spawn + cold ADMM);
2. **warm**: a few sequential requests; their median is the resident
   warm-path latency, and ``warm_speedup = cold / warm`` is the number the
   CI gate watches — it proves the resident state is actually reused;
3. **load**: an open-loop run at the target QPS with bounded concurrency;
   yields the latency percentiles, achieved throughput, queue-depth
   percentiles, and the 429/error counts.

Every successful response's assignment digest must agree, and with
``verify=True`` the digest is also checked against an in-process
``repro run`` of the identical problem — the serve path must be
bit-identical to the CLI path.

The result is appended to a run ledger as a ``repro.run_ledger/v1`` entry
(method ``serve:<method>`` so it never cross-matches solve baselines) and
gated in CI by ``repro obs check`` exactly like solve regressions.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ispd.request import (
    ECO_REQUEST_SCHEMA,
    AssignRequest,
    assignment_digest,
)
from repro.obs import ledger as run_ledger
from repro.obs import tracer
from repro.obs.traceview import percentile
from repro.service.http import FrontThread, http_request
from repro.service.server import AssignServer, ServeConfig
from repro.utils import get_logger

log = get_logger(__name__)


# -- in-process fleet topology ------------------------------------------------


_FLEET_AUTHKEY = b"repro-fleet-loadgen"


class FleetTopology:
    """N shard servers plus one gateway, all in-process.

    Ephemeral ports everywhere, so bring-up is two-phase: every shard
    first binds its replica receiver, then — once all replica addresses
    are known — each shard joins the fleet (identical rings built from
    the identical sorted shard-id list), and finally the gateway comes up
    fronting the shard HTTP ports.
    """

    def __init__(
        self,
        num_shards: int,
        max_queue: int = 32,
        max_batch: int = 8,
        max_workers: int = 4,
        cache_capacity: int = 256,
    ) -> None:
        if num_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.shard_ids = [f"s{i}" for i in range(num_shards)]
        self.shards: Dict[str, FrontThread] = {}
        self.gateway: Optional[FrontThread] = None
        self._ring = None
        self._max_queue = max_queue
        self._max_batch = max_batch
        self._max_workers = max_workers
        self._cache_capacity = cache_capacity

    def start(self) -> "FleetTopology":
        from repro.fleet.gateway import Gateway, GatewayConfig
        from repro.fleet.ring import HashRing

        for shard_id in self.shard_ids:
            self.shards[shard_id] = FrontThread(
                AssignServer,
                ServeConfig(
                    port=0,
                    max_queue=self._max_queue,
                    max_batch=self._max_batch,
                    max_workers=self._max_workers,
                    fleet_shard_id=shard_id,
                    replica_listen=("127.0.0.1", 0),
                    fleet_authkey=_FLEET_AUTHKEY,
                )
            ).start()
        peers = {
            shard_id: thread.front.replica_address
            for shard_id, thread in self.shards.items()
        }
        for thread in self.shards.values():
            thread.front.join_fleet(peers)
        self._ring = HashRing(self.shard_ids)
        self.gateway = FrontThread(
            Gateway,
            GatewayConfig(
                shards={
                    shard_id: (thread.config.host, thread.port)
                    for shard_id, thread in self.shards.items()
                },
                port=0,
                cache_capacity=self._cache_capacity,
            )
        ).start()
        log.info(
            "fleet up: %d shards behind gateway :%d",
            len(self.shards), self.gateway.port,
        )
        return self

    @property
    def host(self) -> str:
        return "127.0.0.1"

    @property
    def port(self) -> int:
        return self.gateway.port

    def owner_of(self, key: str) -> str:
        """The shard id the ring routes ``key`` to (the failover victim)."""
        return self._ring.owner(key)

    def stop_shard(self, shard_id: str) -> None:
        self.shards[shard_id].stop()

    def stop(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
        for thread in self.shards.values():
            thread.stop()

    def __enter__(self) -> "FleetTopology":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- load generation ---------------------------------------------------------


@dataclass
class LoadGenConfig:
    """One bench-serve campaign."""

    benchmark: str = "adaptec1"
    scale: float = 0.2
    ratio_percent: float = 0.5
    method: str = "sdp"
    workers: int = 0
    exec_backend: str = "pool"
    qps: float = 8.0
    requests: int = 24
    concurrency: int = 8
    warmup: int = 3
    # ECO phase: after warm-up, this many sequential ``/v1/eco`` deltas
    # (worst-k releases) with correctly chained state epochs.  Exercises
    # the incremental path of the resident that the warm phase built.
    eco_rounds: int = 0
    eco_release_k: int = 4
    timeout_seconds: float = 300.0
    verify: bool = False
    url: Optional[str] = None  # None -> spawn an in-process server
    max_queue: int = 32
    max_batch: int = 8
    # Tracing: export the campaign's spans (in-process server only — a
    # --url server records spans in its own process) and link the entry.
    trace_out: Optional[str] = None
    # TCP listener for remote dist workers, passed to the in-process
    # server's engine host (``--exec dist`` requests only).
    dist_listen: Optional[Tuple[str, int]] = None
    dist_authkey: Optional[bytes] = None
    # Fleet mode (``--gateway``): front the campaign with an in-process
    # ``repro gateway`` sharding over ``shards`` resident servers.  After
    # the load phase the signature's owning shard is drained and
    # ``failover_requests`` cache-bypassing probes assert the gateway
    # fails over to a warm successor with the identical digest.
    gateway: bool = False
    shards: int = 2
    failover_requests: int = 2
    cache_capacity: int = 256

    def assign_body(self) -> Dict[str, Any]:
        return AssignRequest(
            benchmark=self.benchmark,
            scale=self.scale,
            ratio_percent=self.ratio_percent,
            method=self.method,
            workers=self.workers,
            exec_backend=self.exec_backend,
        ).to_json()

    def eco_body(self, state_epoch: int) -> Dict[str, Any]:
        body = self.assign_body()
        body["schema"] = ECO_REQUEST_SCHEMA
        body["edits"] = [
            {"op": "release_nets", "worst": self.eco_release_k}
        ]
        body["state_epoch"] = state_epoch
        return body

    @property
    def ledger_method(self) -> str:
        """Serve entries gate only against like-for-like baselines, so the
        dist backend gets its own method label (``serve:sdp+dist``) and
        gateway campaigns their own family (``fleet:sdp``)."""
        suffix = "" if self.exec_backend == "pool" else f"+{self.exec_backend}"
        prefix = "fleet" if self.gateway else "serve"
        return f"{prefix}:{self.method}{suffix}"

    def signature_key(self) -> str:
        """The routing/cache key of the campaign's one problem signature."""
        return AssignRequest.from_json(self.assign_body()).signature_key()


@dataclass
class LoadGenResult:
    """Everything a campaign measured, plus the ledger entry built from it."""

    entry: Dict[str, Any]
    ok: int = 0
    rejected: int = 0
    errors: int = 0
    digests: List[str] = field(default_factory=list)
    verified: Optional[bool] = None

    @property
    def consistent(self) -> bool:
        return len(set(self.digests)) <= 1

    @property
    def passed(self) -> bool:
        return (
            self.ok > 0
            and self.errors == 0
            and self.consistent
            and self.verified is not False
        )


def _parse_url(url: str) -> Tuple[str, int]:
    trimmed = url.strip()
    for prefix in ("http://", "https://"):
        if trimmed.startswith(prefix):
            trimmed = trimmed[len(prefix):]
    trimmed = trimmed.rstrip("/")
    host, _, port_text = trimmed.partition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"--url must look like http://host:port, got {url!r}")
    return host, int(port_text)


async def _post(
    cfg: LoadGenConfig, host: str, port: int, path: str, body: Dict[str, Any]
) -> Tuple[float, int, Any]:
    """One timed POST; returns ``(milliseconds, status, payload)``."""
    started = time.monotonic()
    status, payload = await http_request(
        host, port, "POST", path, body, timeout=cfg.timeout_seconds
    )
    return 1000.0 * (time.monotonic() - started), status, payload


async def _campaign(
    cfg: LoadGenConfig, host: str, port: int
) -> Dict[str, Any]:
    """Run the three phases; returns the raw measurement dict."""
    body = cfg.assign_body()

    def send():
        return _post(cfg, host, port, "/v1/assign", body)

    log.info("cold request (engine build) ...")
    cold_ms, cold_status, cold_payload = await send()
    if cold_status != 200:
        raise RuntimeError(
            f"cold request failed with HTTP {cold_status}: {cold_payload}"
        )

    warm_samples: List[float] = []
    warm_payloads: List[Any] = []
    for _ in range(max(cfg.warmup, 1)):
        ms, status, payload = await send()
        if status != 200:
            raise RuntimeError(f"warm request failed with HTTP {status}")
        warm_samples.append(ms)
        warm_payloads.append(payload)

    eco_results: List[Tuple[float, int, Any]] = []
    if cfg.eco_rounds:
        # Sequential on purpose: each round's epoch is the previous
        # round's answer, so this is the protocol a real ECO client runs.
        log.info("eco phase: %d chained deltas ...", cfg.eco_rounds)
        epoch = 0
        for _ in range(cfg.eco_rounds):
            ms, status, payload = await _post(
                cfg, host, port, "/v1/eco", cfg.eco_body(epoch)
            )
            eco_results.append((ms, status, payload))
            if status == 200 and isinstance(payload, dict):
                epoch = int(payload.get("state_epoch", epoch + 1))

    log.info(
        "cold %.0fms -> warm %.0fms; starting load phase "
        "(%d requests at %.1f qps, concurrency %d)",
        cold_ms, statistics.median(warm_samples),
        cfg.requests, cfg.qps, cfg.concurrency,
    )

    gate = asyncio.Semaphore(cfg.concurrency)
    results: List[Tuple[float, int, Any]] = []

    async def fire(delay: float) -> None:
        await asyncio.sleep(delay)
        async with gate:
            try:
                results.append(await send())
            except (OSError, asyncio.TimeoutError) as exc:
                results.append((0.0, -1, {"error": {"message": str(exc)}}))

    load_started = time.monotonic()
    interval = 1.0 / cfg.qps if cfg.qps > 0 else 0.0
    await asyncio.gather(
        *(fire(i * interval) for i in range(cfg.requests))
    )
    load_seconds = time.monotonic() - load_started

    return {
        "cold": (cold_ms, cold_payload),
        "warm": (warm_samples, warm_payloads),
        "eco": eco_results,
        "load": results,
        "load_seconds": load_seconds,
    }


def _local_digest(cfg: LoadGenConfig) -> str:
    """Digest of the identical problem solved via the one-shot CLI path."""
    from repro.core.engine import CPLAConfig
    from repro.pipeline import prepare, run_method

    # The verify solve is not a serve request; give it its own trace so a
    # traced campaign still exports a file where every span resolves.
    token = tracer.attach(tracer.TraceContext(tracer.new_trace_id()))
    try:
        with tracer.span("loadgen.verify", benchmark=cfg.benchmark):
            bench = prepare(cfg.benchmark, scale=cfg.scale)
            cpla_config = (
                CPLAConfig(workers=cfg.workers, exec_backend=cfg.exec_backend)
                if cfg.workers and cfg.method in ("sdp", "ilp")
                else None
            )
            run_method(
                bench, cfg.method,
                critical_ratio=cfg.ratio_percent / 100.0,
                cpla_config=cpla_config,
            )
            return assignment_digest(bench)
    finally:
        tracer.detach(token)


async def _failover_probe(
    cfg: LoadGenConfig, host: str, port: int
) -> List[Tuple[float, int, Any]]:
    """Post-kill probes: cache-bypassing assigns that must fail over.

    ``return_assignment=True`` makes the request uncacheable by gateway
    policy, so every probe reaches a shard — a cache hit would prove
    nothing about failover.
    """
    body = cfg.assign_body()
    body["return_assignment"] = True
    return [
        await _post(cfg, host, port, "/v1/assign", body)
        for _ in range(cfg.failover_requests)
    ]


_COUNTERS = (
    "fleet.cache_hits", "fleet.cache_misses", "fleet.cache_invalidations",
    "fleet.failovers", "fleet.failover_requests",
    "fleet.failover_cold_builds", "fleet.replica_seeds",
    "fleet.replica_pushes", "fleet.replica_push_failures",
    "engine.runs",
)


def _counter_snapshot() -> Dict[str, float]:
    from repro.obs import metrics

    counters = metrics.registry().as_dict().get("counters", {})
    return {name: float(counters.get(name, 0)) for name in _COUNTERS}


def run_loadgen(cfg: LoadGenConfig) -> LoadGenResult:
    """Execute one campaign and build its ledger entry."""
    server: Optional[FrontThread] = None
    fleet: Optional[FleetTopology] = None
    if cfg.trace_out:
        # Enable before the server (and its engine pools/fabrics, which
        # snapshot the capture flags at startup) comes up.
        tracer.enable()
    counters_before: Optional[Dict[str, float]] = None
    if not cfg.url:
        from repro.obs import metrics

        # Engine runs (and the fleet's stats) come from counter deltas:
        # the server or the gateway and its shards share this process's
        # registry.
        metrics.enable()
        counters_before = _counter_snapshot()
    if cfg.url:
        host, port = _parse_url(cfg.url)
    elif cfg.gateway:
        fleet = FleetTopology(
            cfg.shards,
            max_queue=cfg.max_queue,
            max_batch=cfg.max_batch,
            max_workers=max(4, cfg.workers),
            cache_capacity=cfg.cache_capacity,
        ).start()
        host, port = fleet.host, fleet.port
    else:
        server = FrontThread(
            AssignServer,
            ServeConfig(
                port=0,
                max_queue=cfg.max_queue,
                max_batch=cfg.max_batch,
                max_workers=max(4, cfg.workers),
                dist_listen=cfg.dist_listen,
                dist_authkey=cfg.dist_authkey,
            )
        ).start()
        host, port = server.config.host, server.port  # type: ignore[assignment]
    failover_stats: Optional[Dict[str, Any]] = None
    failover_payloads: List[Any] = []
    try:
        measured = asyncio.run(_campaign(cfg, host, port))
        if fleet is not None and cfg.failover_requests > 0 and cfg.shards > 1:
            victim = fleet.owner_of(cfg.signature_key())
            log.info(
                "failover phase: draining owner shard %r, then %d probes",
                victim, cfg.failover_requests,
            )
            fleet.stop_shard(victim)
            probes = asyncio.run(_failover_probe(cfg, host, port))
            failover_payloads = [p for _, status, p in probes if status == 200]
            failover_stats = {
                "victim": victim,
                "probes": len(probes),
                "ok": len(failover_payloads),
                "failed": len(probes) - len(failover_payloads),
                "latency_ms": {
                    "max": round(max((ms for ms, _, _ in probes), default=0.0), 3),
                },
            }
    finally:
        if server is not None:
            server.stop()
        if fleet is not None:
            fleet.stop()

    trace_info: Optional[Dict[str, Any]] = None
    if cfg.trace_out:
        # The server drained above, so every request span is recorded.
        span_count = tracer.export_jsonl(cfg.trace_out)
        trace_info = {"file": cfg.trace_out, "spans": span_count}
        log.info("exported %d spans to %s", span_count, cfg.trace_out)

    cold_ms, cold_payload = measured["cold"]
    warm_samples, warm_payloads = measured["warm"]
    warm_ms = statistics.median(warm_samples)

    result = LoadGenResult(entry={})
    latencies: List[float] = []
    depths: List[float] = []
    deduped = 0
    slowest: Tuple[float, Optional[str]] = (-1.0, None)
    for ms, status, payload in measured["load"]:
        trace_id = (
            payload.get("trace_id") if isinstance(payload, dict) else None
        )
        if status == 200:
            result.ok += 1
            latencies.append(ms)
            if ms > slowest[0]:
                slowest = (ms, trace_id)
            serving = payload.get("serving", {})
            depths.append(float(serving.get("queue_depth", 0)))
            if serving.get("deduped"):
                deduped += 1
            result.digests.append(payload.get("assignment_digest", ""))
        elif status == 429:
            result.rejected += 1
        else:
            result.errors += 1
    for payload in [cold_payload] + warm_payloads:
        result.digests.append(payload.get("assignment_digest", ""))
    # Failover probe digests join the same consistency pool: a failed-over
    # shard must answer bit-identically to the shard it replaced.
    for payload in failover_payloads:
        if isinstance(payload, dict):
            result.digests.append(payload.get("assignment_digest", ""))
    if failover_stats is not None:
        result.errors += failover_stats["failed"]

    # ECO-phase accounting (digests excluded from the consistency check:
    # every accepted delta legitimately moves the assignment).
    eco_stats: Optional[Dict[str, Any]] = None
    if measured["eco"]:
        eco_ms = [ms for ms, status, _ in measured["eco"] if status == 200]
        eco_ok = len(eco_ms)
        eco_accepted = sum(
            1 for _, status, p in measured["eco"]
            if status == 200 and isinstance(p, dict) and p.get("accepted")
        )
        eco_failed = sum(
            1 for _, status, _ in measured["eco"] if status != 200
        )
        result.errors += eco_failed
        final_epoch = 0
        for _, status, p in measured["eco"]:
            if status == 200 and isinstance(p, dict):
                final_epoch = int(p.get("state_epoch", final_epoch))
        eco_stats = {
            "rounds": len(measured["eco"]),
            "ok": eco_ok,
            "accepted": eco_accepted,
            "failed": eco_failed,
            "final_epoch": final_epoch,
            "latency_ms": {
                "p50": round(percentile(eco_ms, 0.50), 3),
                "max": round(max(eco_ms), 3) if eco_ms else 0.0,
            },
        }

    # Fleet accounting: counter deltas over the whole campaign.  The
    # gateway, shards, and this thread share one process-wide registry, so
    # ``engine_runs`` vs ``cache_hits`` proves cache hits never reached a
    # solver (every served request is one or the other).
    fleet_stats: Optional[Dict[str, Any]] = None
    delta: Dict[str, float] = {}
    if counters_before is not None:
        after = _counter_snapshot()
        delta = {
            name: after[name] - counters_before[name] for name in _COUNTERS
        }
    if fleet is not None:
        lookups = delta["fleet.cache_hits"] + delta["fleet.cache_misses"]
        fleet_stats = {
            "shards": cfg.shards,
            "cache_hits": int(delta["fleet.cache_hits"]),
            "cache_misses": int(delta["fleet.cache_misses"]),
            "cache_hit_rate": (
                round(delta["fleet.cache_hits"] / lookups, 4) if lookups else 0.0
            ),
            "cache_invalidations": int(delta["fleet.cache_invalidations"]),
            "failovers": int(delta["fleet.failovers"]),
            "failover_requests": int(delta["fleet.failover_requests"]),
            "failover_cold_starts": int(delta["fleet.failover_cold_builds"]),
            "replica_seeds": int(delta["fleet.replica_seeds"]),
            "replica_pushes": int(delta["fleet.replica_pushes"]),
            "replica_push_failures": int(delta["fleet.replica_push_failures"]),
            "engine_runs": int(delta["engine.runs"]),
        }
        if failover_stats is not None:
            fleet_stats["failover"] = failover_stats

    if cfg.verify:
        log.info("verifying against an in-process repro run ...")
        local = _local_digest(cfg)
        result.verified = bool(result.digests) and all(
            d == local for d in result.digests
        )

    load_seconds = measured["load_seconds"]
    entry: Dict[str, Any] = {
        "schema": run_ledger.SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "benchmark": cfg.benchmark,
        # Prefixed so serve entries only ever gate against serve baselines.
        "method": cfg.ledger_method,
        "critical_ratio": cfg.ratio_percent / 100.0,
        "fingerprint": run_ledger.fingerprint({
            "benchmark": cfg.benchmark,
            "scale": cfg.scale,
            "ratio_percent": cfg.ratio_percent,
            "method": cfg.method,
            "workers": cfg.workers,
            "exec": cfg.exec_backend,
            "qps": cfg.qps,
            "requests": cfg.requests,
            "concurrency": cfg.concurrency,
        }),
        "quality": dict(cold_payload.get("quality", {})),
        "runtime": {
            "total_seconds": round(load_seconds, 4),
            "phases": {
                k: round(float(v), 4)
                for k, v in cold_payload.get("phases", {}).items()
            },
        },
        "serving": {
            "latency_ms": {
                "p50": round(percentile(latencies, 0.50), 3),
                "p95": round(percentile(latencies, 0.95), 3),
                "p99": round(percentile(latencies, 0.99), 3),
                "mean": round(statistics.fmean(latencies), 3) if latencies else 0.0,
                "max": round(max(latencies), 3) if latencies else 0.0,
            },
            "first_request_ms": round(cold_ms, 3),
            "warm_request_ms": round(warm_ms, 3),
            "warm_speedup": round(cold_ms / warm_ms, 4) if warm_ms else 0.0,
            "throughput_qps": (
                round(result.ok / load_seconds, 3) if load_seconds else 0.0
            ),
            "target_qps": cfg.qps,
            "requests": {
                "sent": cfg.requests,
                "ok": result.ok,
                "rejected_429": result.rejected,
                "errors": result.errors,
                "deduped": deduped,
            },
            "queue_depth": {
                "p50": percentile(depths, 0.50),
                "p95": percentile(depths, 0.95),
                "max": max(depths) if depths else 0.0,
            },
            "digest_consistent": result.consistent,
            "verified_against_run": result.verified,
        },
    }
    if eco_stats is not None:
        entry["serving"]["eco"] = eco_stats
    if fleet_stats is not None:
        entry["serving"]["fleet"] = fleet_stats
    elif delta:
        # A resident runs the engine for its first assign and every ECO
        # apply only; every other request answers from its solved state.
        entry["serving"]["engine_runs"] = int(delta["engine.runs"])
    # Trace linkage: the slowest load request is the one `obs check`
    # failures most want explained, so it is the entry's primary trace id.
    cold_trace = (
        cold_payload.get("trace_id") if isinstance(cold_payload, dict) else None
    )
    if trace_info is not None or cold_trace is not None:
        entry["trace"] = {
            **(trace_info or {}),
            "trace_id": slowest[1] or cold_trace,
            "cold_trace_id": cold_trace,
            "slowest_ms": round(slowest[0], 3) if slowest[1] else None,
        }
    result.entry = entry
    return result


def render_summary(result: LoadGenResult) -> str:
    """Human-readable campaign report for the CLI."""
    s = result.entry["serving"]
    lat = s["latency_ms"]
    req = s["requests"]
    lines = [
        f"bench-serve {result.entry['benchmark']}/{result.entry['method']}",
        f"  cold {s['first_request_ms']:.0f}ms -> warm "
        f"{s['warm_request_ms']:.0f}ms  (speedup {s['warm_speedup']:.2f}x)",
        f"  load: {req['ok']}/{req['sent']} ok, {req['rejected_429']} "
        f"rejected (429), {req['errors']} errors, {req['deduped']} deduped",
        f"  latency p50/p95/p99: {lat['p50']:.0f}/{lat['p95']:.0f}/"
        f"{lat['p99']:.0f} ms   throughput {s['throughput_qps']:.2f} qps "
        f"(target {s['target_qps']:g})",
        f"  queue depth p50/p95/max: {s['queue_depth']['p50']:g}/"
        f"{s['queue_depth']['p95']:g}/{s['queue_depth']['max']:g}",
        f"  digests consistent: {result.consistent}"
        + (
            f", verified vs repro run: {result.verified}"
            if result.verified is not None else ""
        ),
    ]
    eco = s.get("eco")
    if eco:
        lines.insert(2, (
            f"  eco: {eco['ok']}/{eco['rounds']} ok "
            f"({eco['accepted']} accepted), final epoch {eco['final_epoch']}, "
            f"p50 {eco['latency_ms']['p50']:.0f}ms"
        ))
    if "engine_runs" in s:
        lines.append(f"  engine runs: {s['engine_runs']}")
    fleet = s.get("fleet")
    if fleet:
        lines.append(
            f"  fleet: {fleet['shards']} shards, cache hit rate "
            f"{fleet['cache_hit_rate']:.0%} ({fleet['cache_hits']} hits / "
            f"{fleet['cache_misses']} misses), {fleet['engine_runs']} "
            f"engine runs"
        )
        failover = fleet.get("failover")
        if failover:
            lines.append(
                f"  failover: shard {failover['victim']!r} killed, "
                f"{failover['ok']}/{failover['probes']} probes ok, "
                f"{fleet['failovers']} failovers, "
                f"{fleet['replica_seeds']} warm seeds, "
                f"{fleet['failover_cold_starts']} cold starts"
            )
    trace = result.entry.get("trace")
    if trace and trace.get("trace_id"):
        where = f"  ({trace['file']})" if trace.get("file") else ""
        lines.append(
            f"  slowest-request trace: {trace['trace_id']}{where}"
        )
    return "\n".join(lines)
