"""Fleet-tier tests: ring, cache, replication, gateway, and the gates.

The slow end-to-end section boots a real 2-shard fleet (shard servers +
gateway, all in-process, as ``bench-serve --gateway`` does) and checks
the tier's acceptance properties: the gateway digest is bit-identical to
the single-node serve path, cache hits never invoke a solver, a drained
owner fails over to a warm replica-seeded successor with the identical
digest, and shard error bytes pass through the gateway unmodified.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Client

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.cache import CacheEntry, ResultCache
from repro.fleet.gateway import Gateway, GatewayConfig
from repro.fleet.replica import (
    ReplicaReceiver,
    ReplicaState,
    Replicator,
    capture_state,
    push_state,
)
from repro.fleet.ring import HashRing
from repro.obs import ledger as run_ledger
from repro.obs import metrics
from repro.service.http import FrontThread, http_request
from repro.service.loadgen import (
    FleetTopology,
    LoadGenConfig,
    run_loadgen,
)

# The standard smoke problem shared with tests/test_service.py.
BODY = {
    "benchmark": "adaptec1",
    "scale": 0.05,
    "ratio_percent": 2,
    "method": "sdp",
}


@pytest.fixture(autouse=True)
def _metrics_clean():
    metrics.disable()
    yield
    metrics.disable()


def _counter(name: str) -> float:
    return float(metrics.registry().as_dict()["counters"].get(name, 0))


# -- hash ring ---------------------------------------------------------------


class TestHashRing:
    def test_owner_is_stable_and_member(self):
        ring = HashRing(["s0", "s1", "s2"])
        for i in range(50):
            owner = ring.owner(f"key-{i}")
            assert owner in ("s0", "s1", "s2")
            assert ring.owner(f"key-{i}") == owner

    def test_construction_order_is_irrelevant(self):
        keys = [f"sig-{i}" for i in range(100)]
        a = HashRing(["s2", "s0", "s1"]).assignments(keys)
        b = HashRing(["s0", "s1", "s2"]).assignments(keys)
        assert a == b

    def test_successors_are_distinct_and_owner_first(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        for i in range(20):
            succ = ring.successors(f"key-{i}")
            assert succ[0] == ring.owner(f"key-{i}")
            assert sorted(succ) == ["s0", "s1", "s2", "s3"]

    def test_replica_target_is_first_other_successor(self):
        ring = HashRing(["s0", "s1", "s2"])
        for i in range(20):
            key = f"key-{i}"
            owner = ring.owner(key)
            target = ring.replica_target(key, owner)
            assert target == ring.successors(key)[1]
            assert target != owner

    def test_single_shard_ring_has_no_replica_target(self):
        ring = HashRing(["only"])
        assert ring.replica_target("anything", "only") is None

    def test_remove_refuses_last_shard(self):
        ring = HashRing(["s0"])
        with pytest.raises(ValueError):
            ring.remove("s0")

    def test_membership_protocol(self):
        ring = HashRing(["s0", "s1"])
        assert "s0" in ring and len(ring) == 2
        ring.add("s2")
        assert "s2" in ring and len(ring) == 3
        ring.remove("s2")
        assert "s2" not in ring and len(ring) == 2

    def test_load_spreads_over_shards(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        owners = ring.assignments(f"key-{i}" for i in range(2000))
        counts = {s: 0 for s in ring.shards}
        for owner in owners.values():
            counts[owner] += 1
        # With 64 vnodes/shard the split is rough but never degenerate.
        assert all(count > 100 for count in counts.values())

    def test_determinism_across_hash_seeds(self):
        """Three interpreters with different PYTHONHASHSEEDs agree exactly.

        Gateway, shards, and loadgen each build the ring in their own
        process; a ``hash()``-based ring would route every party
        differently.
        """
        script = (
            "import json\n"
            "from repro.fleet.ring import HashRing\n"
            "ring = HashRing(['s0', 's1', 's2'], vnodes=64)\n"
            "keys = [f'sig-{i}' for i in range(200)]\n"
            "print(json.dumps(ring.assignments(keys), sort_keys=True))\n"
        )
        outputs = []
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1] == outputs[2]


@settings(max_examples=50, deadline=None)
@given(
    shards=st.sets(
        st.text(
            alphabet="abcdefghij0123456789", min_size=1, max_size=8
        ),
        min_size=2, max_size=6,
    ),
    joiner=st.text(alphabet="klmnopqrst", min_size=1, max_size=8),
)
def test_rebalance_moves_only_keys_to_joiner(shards, joiner):
    """Minimal-movement property: a join only remaps keys it now owns."""
    keys = [f"sig-{i}" for i in range(150)]
    before = HashRing(shards, vnodes=16).assignments(keys)
    ring = HashRing(shards, vnodes=16)
    ring.add(joiner)
    after = ring.assignments(keys)
    for key in keys:
        if after[key] != before[key]:
            assert after[key] == joiner


@settings(max_examples=50, deadline=None)
@given(
    shards=st.sets(
        st.text(
            alphabet="abcdefghij0123456789", min_size=1, max_size=8
        ),
        min_size=3, max_size=6,
    ),
    data=st.data(),
)
def test_rebalance_moves_only_leavers_keys(shards, data):
    """Minimal-movement property: a leave only remaps the leaver's keys."""
    leaver = data.draw(st.sampled_from(sorted(shards)))
    keys = [f"sig-{i}" for i in range(150)]
    before = HashRing(shards, vnodes=16).assignments(keys)
    ring = HashRing(shards, vnodes=16)
    ring.remove(leaver)
    after = ring.assignments(keys)
    for key in keys:
        if before[key] == leaver:
            assert after[key] != leaver
        else:
            assert after[key] == before[key]


# -- result cache ------------------------------------------------------------


class TestResultCache:
    def test_hit_miss_and_recency(self):
        cache = ResultCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", CacheEntry(digest="sha256:a", payload={"d": "a"}))
        cache.put("b", CacheEntry(digest="sha256:b", payload={"d": "b"}))
        assert cache.get("a").digest == "sha256:a"
        # "b" is now least-recent; the next put evicts it, not "a".
        cache.put("c", CacheEntry(digest="sha256:c", payload={"d": "c"}))
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert len(cache) == 2

    def test_invalidate(self):
        cache = ResultCache()
        cache.put("a", CacheEntry(digest="sha256:a", payload={}))
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.get("a") is None

    def test_hit_counter_and_stats(self):
        cache = ResultCache()
        cache.put("a", CacheEntry(digest="sha256:a", payload={}))
        cache.get("a")
        cache.get("a")
        assert cache.get("a").hits == 3
        stats = cache.stats()
        assert stats["entries"] == 1 and "a" in stats["keys"]

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", CacheEntry(digest="sha256:a", payload={}))
        assert cache.get("a") is None and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_metrics_counters(self):
        metrics.enable()
        cache = ResultCache(capacity=1)
        cache.get("a")
        cache.put("a", CacheEntry(digest="sha256:a", payload={}))
        cache.get("a")
        cache.put("b", CacheEntry(digest="sha256:b", payload={}))
        cache.invalidate("b")
        assert _counter("fleet.cache_misses") == 1
        assert _counter("fleet.cache_hits") == 1
        assert _counter("fleet.cache_evictions") == 1
        assert _counter("fleet.cache_invalidations") == 1


# -- replication -------------------------------------------------------------


AUTHKEY = b"test-fleet-secret"


def _state(key: str = "sig-x", epoch: int = 0) -> ReplicaState:
    return ReplicaState(
        signature_key=key,
        epoch=epoch,
        baseline={(1, 0): 2, (1, 1): 4},
        history=[[{"op": "release_nets", "worst": 2}]] if epoch else [],
    )


class TestReplication:
    def test_push_and_receive_round_trip(self):
        receiver = ReplicaReceiver(("127.0.0.1", 0), AUTHKEY)
        receiver.start()
        try:
            state = _state(epoch=2)
            assert push_state(receiver.address, AUTHKEY, state) is True
            stored = receiver.store.get("sig-x")
            assert stored is not None
            assert stored.epoch == 2
            assert stored.baseline == state.baseline
            assert stored.history == state.history
        finally:
            receiver.close()

    def test_push_overwrites_per_signature(self):
        receiver = ReplicaReceiver(("127.0.0.1", 0), AUTHKEY)
        receiver.start()
        try:
            push_state(receiver.address, AUTHKEY, _state(epoch=0))
            push_state(receiver.address, AUTHKEY, _state(epoch=5))
            assert receiver.store.get("sig-x").epoch == 5
            assert len(receiver.store) == 1
        finally:
            receiver.close()

    def test_wrong_authkey_is_rejected(self):
        receiver = ReplicaReceiver(("127.0.0.1", 0), AUTHKEY)
        receiver.start()
        try:
            with pytest.raises(Exception):
                push_state(receiver.address, b"wrong-secret", _state())
            assert len(receiver.store) == 0
        finally:
            receiver.close()

    def test_close_stops_an_idle_receiver_promptly(self):
        receiver = ReplicaReceiver(("127.0.0.1", 0), AUTHKEY)
        receiver.start()
        time.sleep(0.1)  # the thread now waits in accept()
        started = time.monotonic()
        receiver.close()
        assert time.monotonic() - started < 1.0
        assert not receiver.is_alive()

    def test_close_ends_a_silent_peer_connection_promptly(self):
        receiver = ReplicaReceiver(("127.0.0.1", 0), AUTHKEY)
        receiver.start()
        peer = Client(receiver.address, authkey=AUTHKEY)  # sends nothing
        try:
            time.sleep(0.1)  # the thread now waits for the peer's frame
            started = time.monotonic()
            receiver.close()
            assert time.monotonic() - started < 1.0
            assert not receiver.is_alive()
        finally:
            peer.close()

    def test_replicator_routes_to_ring_successor(self):
        ring = HashRing(["s0", "s1"])
        receiver = ReplicaReceiver(("127.0.0.1", 0), AUTHKEY)
        receiver.start()
        try:
            # Make s1's receiver the only peer address; whichever shard id
            # owns the key, pushing "as the other" must land on it.
            class FakeResident:
                key = "sig-y"
                state_epoch = 0
                runs = 1
                bench = None
                _baseline = {(0, 0): 1}
                _engine = None
                _history = []

            owner = ring.owner("sig-y")
            pusher_id = owner  # push as the owner -> target is the other
            target = ring.replica_target("sig-y", pusher_id)
            replicator = Replicator(
                pusher_id, ring, {target: receiver.address}, AUTHKEY
            )
            # capture_state needs a bench for the digest; fake it at the
            # capture boundary instead.
            state = _state(key="sig-y")
            pushed = push_state(receiver.address, AUTHKEY, state)
            assert pushed and receiver.store.get("sig-y") is not None
            assert replicator.ring.replica_target("sig-y", pusher_id) == target
        finally:
            receiver.close()

    def test_replicator_push_never_raises_on_dead_peer(self):
        ring = HashRing(["s0", "s1"])
        # A port we just closed: connection refused, not an exception.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()

        class FakeResident:
            key = "sig-z"
            state_epoch = 0
            runs = 1
            _baseline = {}
            _engine = None
            _history = []

            class bench:  # noqa: N801 - minimal stand-in
                nets = []

        pusher = ring.owner("sig-z")
        target = ring.replica_target("sig-z", pusher)
        replicator = Replicator(
            pusher, ring, {target: tuple(dead_address)}, AUTHKEY, timeout=2.0
        )
        assert replicator.push(FakeResident()) is False


# -- byte-exact error passthrough --------------------------------------------


class _CannedShard(threading.Thread):
    """A fake shard answering every request with fixed raw bytes."""

    def __init__(self, canned: bytes) -> None:
        super().__init__(daemon=True)
        self.canned = canned
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._closing = False

    def run(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                try:
                    blob = b""
                    while b"\r\n\r\n" not in blob:
                        chunk = conn.recv(65536)
                        if not chunk:
                            break
                        blob += chunk
                    head, _, rest = blob.partition(b"\r\n\r\n")
                    length = 0
                    for line in head.decode("latin-1").split("\r\n"):
                        if line.lower().startswith("content-length:"):
                            length = int(line.split(":", 1)[1])
                    while len(rest) < length:
                        rest += conn.recv(65536)
                    # /readyz (health) gets a 200 so the gateway routes to
                    # us; everything else gets the canned bytes.
                    if head.startswith(b"GET /readyz"):
                        body = b'{"status": "ready"}'
                        conn.sendall(
                            b"HTTP/1.1 200 OK\r\n"
                            b"Content-Type: application/json\r\n"
                            b"Content-Length: "
                            + str(len(body)).encode() + b"\r\n"
                            b"Connection: close\r\n\r\n" + body
                        )
                    else:
                        conn.sendall(self.canned)
                except OSError:
                    pass

    def close(self) -> None:
        self._closing = True
        try:
            self._sock.close()
        except OSError:
            pass


def _gateway_exchange(port: int, body: dict):
    return asyncio.run(
        http_request("127.0.0.1", port, "POST", "/v1/assign", body, timeout=20)
    )


@pytest.mark.parametrize(
    "status_line,extra_headers,body_json",
    [
        (
            "429 Too Many Requests",
            "Retry-After: 7\r\n",
            {"error": {"code": "overloaded", "message": "queue full",
                       "retry_after_seconds": 7}},
        ),
        (
            "504 Gateway Timeout",
            "",
            {"error": {"code": "deadline_exceeded", "message": "too slow"}},
        ),
        (
            "409 Conflict",
            "",
            {"error": {"code": "stale_epoch",
                       "message": "stale state_epoch: request targets epoch "
                                  "0, resident is at epoch 3",
                       "expected_epoch": 0, "current_epoch": 3}},
        ),
    ],
)
def test_gateway_error_passthrough_is_byte_exact(
    status_line, extra_headers, body_json
):
    """Shard error bodies traverse the gateway unmodified, bytes included."""
    blob = json.dumps(body_json, sort_keys=True).encode("utf-8")
    canned = (
        f"HTTP/1.1 {status_line}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(blob)}\r\n"
        f"{extra_headers}"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1") + blob
    shard = _CannedShard(canned)
    shard.start()
    gateway = FrontThread(Gateway, GatewayConfig(
        shards={"s0": ("127.0.0.1", shard.port)}, port=0,
        health_interval_seconds=0.2,
    )).start()
    try:
        # Raw client exchange so we can compare the exact body bytes.
        async def raw() -> tuple:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            payload = json.dumps(BODY).encode()
            writer.write(
                b"POST /v1/assign HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + payload
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            lines = head[:-4].decode("latin-1").split("\r\n")
            headers = {}
            for line in lines[1:]:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
            body = await reader.readexactly(
                int(headers.get("content-length", "0"))
            )
            writer.close()
            return int(lines[0].split(" ")[1]), headers, body

        status, headers, body = asyncio.run(raw())
        expected_status = int(status_line.split(" ")[0])
        assert status == expected_status
        assert body == blob  # byte-identical relay
        if "retry-after" in extra_headers.lower():
            assert headers.get("retry-after") == "7"
    finally:
        gateway.stop()
        shard.close()


class _SilentShard(threading.Thread):
    """A shard that reports ready on ``/readyz`` but never answers a POST."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._held = []

    def run(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
                head = conn.recv(65536)
            except OSError:
                return
            if head.startswith(b"GET /readyz"):
                body = b'{"status": "ready"}'
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\nConnection: close\r\n\r\n" + body
                )
                conn.close()
            else:
                self._held.append(conn)  # taken, never answered

    def close(self) -> None:
        self._sock.close()
        for conn in self._held:
            conn.close()


def test_gateway_read_timeout_answers_504_and_keeps_the_shard():
    """A shard that took the request but outlives the gateway timeout is
    still working: the gateway answers 504 and neither marks it dead nor
    re-runs the request elsewhere."""
    metrics.enable()
    shard = _SilentShard()
    shard.start()
    gateway = FrontThread(Gateway, GatewayConfig(
        shards={"s0": ("127.0.0.1", shard.port)}, port=0,
        request_timeout_seconds=1,
    )).start()
    try:
        status, payload = _gateway_exchange(gateway.port, BODY)
        assert status == 504, payload
        assert payload["error"]["type"] == "deadline_exceeded"
        assert _counter("fleet.upstream_timeouts") == 1
        assert _counter("fleet.transport_failures") == 0
        assert gateway.front.shards["s0"].live
    finally:
        gateway.stop()
        shard.close()


# -- obs check gates ---------------------------------------------------------


def _fleet_entry(cache_hit_rate=0.9, cold_starts=0):
    return {
        "benchmark": "adaptec1",
        "method": "fleet:sdp",
        "quality": {"final_avg_tcp": 100.0, "final_max_tcp": 200.0},
        "serving": {
            "fleet": {
                "cache_hit_rate": cache_hit_rate,
                "failover_cold_starts": cold_starts,
            },
        },
    }


class TestFleetGates:
    def test_cache_hit_rate_floor(self):
        thr = {"min_cache_hit_rate": 0.5}
        ok = run_ledger.check_entries(
            _fleet_entry(), _fleet_entry(cache_hit_rate=0.8), thr
        )
        assert ok == []
        bad = run_ledger.check_entries(
            _fleet_entry(), _fleet_entry(cache_hit_rate=0.2), thr
        )
        assert any("cache hit rate" in v for v in bad)

    def test_cache_hit_rate_gate_requires_fleet_entry(self):
        thr = {"min_cache_hit_rate": 0.5}
        entry = {"quality": {"final_avg_tcp": 1.0}}
        bad = run_ledger.check_entries(entry, entry, thr)
        assert any("not a fleet entry" in v for v in bad)

    def test_failover_cold_start_ceiling(self):
        thr = {"max_failover_cold_starts": 0}
        ok = run_ledger.check_entries(
            _fleet_entry(), _fleet_entry(cold_starts=0), thr
        )
        assert ok == []
        bad = run_ledger.check_entries(
            _fleet_entry(), _fleet_entry(cold_starts=2), thr
        )
        assert any("cold starts" in v for v in bad)

    def test_gates_off_by_default(self):
        thr = {}
        assert run_ledger.check_entries(
            _fleet_entry(), _fleet_entry(cache_hit_rate=0.0, cold_starts=9),
            thr,
        ) == []


# -- end-to-end fleet --------------------------------------------------------


def _smoke_key() -> str:
    """Signature key of the standard smoke problem (routing/kill target)."""
    from repro.ispd.request import AssignRequest

    return AssignRequest.from_json(BODY).signature_key()


class TestFleetEndToEnd:
    def test_gateway_serving_cache_and_failover(self):
        """The tier's acceptance walk, one fleet boot end to end:

        1. gateway digest == single-node serve digest (bit-identity);
        2. idempotent repeats answer from the gateway cache without
           invoking any solver (``fleet.cache_hits`` up, ``engine.runs``
           flat);
        3. ``/v1/eco`` passes through, advances the epoch, and
           invalidates the cached signature;
        4. draining the owning shard fails the next requests over to the
           replica-seeded successor, warm, with the identical digest.
        """
        metrics.enable()
        fleet = FleetTopology(2, max_workers=4).start()
        try:
            port = fleet.port

            status, payload = _gateway_exchange(port, BODY)
            assert status == 200, payload
            digest = payload["assignment_digest"]
            assert digest.startswith("sha256:")
            assert "fleet" not in payload  # a miss went to a shard
            solver_runs = _counter("engine.runs")
            hits_before = _counter("fleet.cache_hits")

            # 2. Cache hits: same problem, no solver.
            for _ in range(3):
                status, payload = _gateway_exchange(port, BODY)
                assert status == 200
                assert payload["assignment_digest"] == digest
                assert payload["fleet"]["cache_hit"] is True
            assert _counter("fleet.cache_hits") == hits_before + 3
            assert _counter("engine.runs") == solver_runs  # never touched

            # 3. ECO through the gateway: epoch advances, cache drops.
            eco_body = dict(BODY)
            eco_body["schema"] = "repro.eco_request/v1"
            eco_body["edits"] = [{"op": "release_nets", "worst": 2}]
            eco_body["state_epoch"] = 0
            status, eco_payload = asyncio.run(http_request(
                "127.0.0.1", port, "POST", "/v1/eco", eco_body, timeout=120,
            ))
            assert status == 200, eco_payload
            assert eco_payload["state_epoch"] == 1
            invalidations = _counter("fleet.cache_invalidations")
            assert invalidations >= 1
            # A stale epoch now 409s, relayed from the shard.
            status, conflict = asyncio.run(http_request(
                "127.0.0.1", port, "POST", "/v1/eco", eco_body, timeout=120,
            ))
            assert status == 409
            assert conflict["error"]["type"] == "stale_epoch"
            assert conflict["error"]["current_epoch"] == 1

            # 4. Failover: drain the owner, probe with a cache-bypassing
            # request; the successor must seed from the replica and
            # answer bit-identically.
            victim = fleet.owner_of(_smoke_key())
            seeds_before = _counter("fleet.replica_seeds")
            cold_before = _counter("fleet.failover_cold_builds")
            fleet.stop_shard(victim)
            probe = dict(BODY)
            probe["return_assignment"] = True
            status, failover_payload = _gateway_exchange(port, probe)
            assert status == 200, failover_payload
            assert failover_payload["assignment_digest"] == digest
            assert _counter("fleet.failovers") >= 1
            assert _counter("fleet.replica_seeds") == seeds_before + 1
            assert _counter("fleet.failover_cold_builds") == cold_before
        finally:
            fleet.stop()

    def test_loadgen_fleet_entry_and_bit_identity(self):
        """``bench-serve --gateway`` writes a gated fleet entry and the
        campaign verifies against the one-shot run path."""
        result = run_loadgen(LoadGenConfig(
            benchmark="adaptec1", scale=0.05, ratio_percent=2,
            method="sdp", qps=16, requests=6, concurrency=6, warmup=2,
            gateway=True, shards=2, failover_requests=1, verify=True,
        ))
        assert result.passed, result.entry
        fleet_block = result.entry["serving"]["fleet"]
        assert result.entry["method"] == "fleet:sdp"
        assert fleet_block["shards"] == 2
        assert fleet_block["cache_hits"] >= 1
        assert 0.0 < fleet_block["cache_hit_rate"] <= 1.0
        assert fleet_block["failover_cold_starts"] == 0
        assert fleet_block["replica_seeds"] >= 1
        assert fleet_block["failover"]["ok"] == 1
        # Cache hits never reached a solver: every engine run is accounted
        # for by a cache miss (or the verify/failover solves).
        assert fleet_block["engine_runs"] <= fleet_block["cache_misses"] + 2

        thr = {"min_cache_hit_rate": 0.3, "max_failover_cold_starts": 0}
        assert run_ledger.check_entries(
            result.entry, result.entry, thr
        ) == []
