"""Serving-layer tests: wire format, queue, batcher, and the HTTP server.

The slow end-to-end section boots a real :class:`AssignServer` on an
ephemeral port (in a background thread, as ``bench-serve`` does) and
checks the acceptance properties: >= 8 concurrent requests served with a
consistent digest that is bit-identical to the one-shot ``repro run``
path, 429 backpressure once the bounded queue fills, deadline expiry as
504, and graceful drain that finishes in-flight work while rejecting new
admissions.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import pytest

import repro.service.resident as resident_mod
from repro.ispd.request import (
    AssignRequest,
    RequestError,
    assignment_digest,
    build_response,
)
from repro.obs import metrics
from repro.pipeline import prepare, run_method
from repro.service import (
    BatchScheduler,
    EngineHost,
    Job,
    JobExpired,
    JobFailed,
    JobQueue,
    QueueClosed,
    QueueFull,
    AssignServer,
    FrontThread,
    ServeConfig,
    http_request,
)

# The standard smoke problem: small enough for tests, big enough that an
# engine run takes ~1s — which the backpressure/deadline tests rely on.
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


class TestAssignRequest:
    def test_round_trip(self):
        request = AssignRequest.from_json(dict(BODY))
        assert request.benchmark == "adaptec1"
        assert request.ratio_percent == 2.0
        assert AssignRequest.from_json(request.to_json()) == request

    def test_unknown_keys_rejected(self):
        with pytest.raises(RequestError, match="unknown request keys"):
            AssignRequest.from_json({**BODY, "ratio": 2})

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(RequestError, match="not in the suite"):
            AssignRequest.from_json({**BODY, "benchmark": "nonesuch"})

    def test_bad_ranges_rejected(self):
        for patch in (
            {"scale": 0},
            {"ratio_percent": 0},
            {"ratio_percent": 101},
            {"workers": -1},
            {"method": "quantum"},
            {"deadline_ms": 0},
        ):
            with pytest.raises(RequestError):
                AssignRequest.from_json({**BODY, **patch})

    def test_workers_part_of_signature(self):
        serial = AssignRequest.from_json(dict(BODY))
        parallel = AssignRequest.from_json({**BODY, "workers": 2})
        assert serial.signature() != parallel.signature()

    def test_digest_is_stable_and_layer_sensitive(self, prepared_bench):
        first = assignment_digest(prepared_bench)
        assert first.startswith("sha256:")
        assert assignment_digest(prepared_bench) == first
        seg = prepared_bench.nets[0].topology.segments[0]
        seg.layer = seg.layer + 2 if seg.layer + 2 <= 6 else seg.layer - 2
        assert assignment_digest(prepared_bench) != first


def _job(request: AssignRequest, loop, deadline_ms=None) -> Job:
    return Job.create(request, loop, deadline_ms)


class TestJobQueue:
    def test_backpressure_and_retry_after(self):
        async def main():
            loop = asyncio.get_running_loop()
            queue = JobQueue(max_depth=2)
            request = AssignRequest.from_json(dict(BODY))
            queue.submit(_job(request, loop))
            queue.submit(_job(request, loop))
            with pytest.raises(QueueFull) as excinfo:
                queue.submit(_job(request, loop))
            assert excinfo.value.depth == 2
            assert excinfo.value.retry_after >= 1.0

        asyncio.run(main())

    def test_closed_queue_rejects_but_drains(self):
        async def main():
            loop = asyncio.get_running_loop()
            queue = JobQueue(max_depth=4)
            request = AssignRequest.from_json(dict(BODY))
            queued = _job(request, loop)
            queue.submit(queued)
            queue.close()
            with pytest.raises(QueueClosed):
                queue.submit(_job(request, loop))
            batch = await queue.get_batch()
            assert batch == [queued]  # close() still drains queued work
            assert await queue.get_batch() is None

        asyncio.run(main())

    def test_batches_group_by_signature(self):
        async def main():
            loop = asyncio.get_running_loop()
            queue = JobQueue(max_depth=8)
            a = AssignRequest.from_json(dict(BODY))
            b = AssignRequest.from_json({**BODY, "ratio_percent": 3})
            jobs = [
                _job(a, loop), _job(b, loop), _job(a, loop), _job(a, loop)
            ]
            for job in jobs:
                queue.submit(job)
            first = await queue.get_batch(max_batch=8)
            assert [j.request for j in first] == [a, a, a]
            second = await queue.get_batch(max_batch=8)
            assert [j.request for j in second] == [b]

        asyncio.run(main())

    def test_max_batch_caps_the_group(self):
        async def main():
            loop = asyncio.get_running_loop()
            queue = JobQueue(max_depth=8)
            request = AssignRequest.from_json(dict(BODY))
            for _ in range(5):
                queue.submit(_job(request, loop))
            assert len(await queue.get_batch(max_batch=2)) == 2
            assert len(queue) == 3

        asyncio.run(main())

    def test_expired_jobs_complete_with_504_error(self):
        async def main():
            loop = asyncio.get_running_loop()
            queue = JobQueue(max_depth=4)
            request = AssignRequest.from_json(dict(BODY))
            dead = Job(
                request=request,
                future=loop.create_future(),
                deadline=time.monotonic() - 1.0,
            )
            live = _job(request, loop)
            queue.submit(dead)
            queue.submit(live)
            batch = await queue.get_batch()
            assert batch == [live]
            with pytest.raises(JobExpired):
                await dead.future

        asyncio.run(main())


class _FakeClock:
    totals = {"solve": 0.1, "timing": 0.05}


@dataclass
class _FakeReport:
    initial_avg_tcp: float = 10.0
    final_avg_tcp: float = 8.0
    initial_max_tcp: float = 12.0
    final_max_tcp: float = 9.0
    initial_via_overflow: float = 0.0
    final_via_overflow: float = 0.0
    initial_vias: int = 5
    final_vias: int = 4
    critical_net_ids: tuple = (1, 2)
    runtime: float = 0.1
    clock: Any = field(default_factory=_FakeClock)


class _StubHost:
    """EngineHost stand-in: counts solves, optionally failing the first."""

    def __init__(self, fail_first: int = 0):
        self.solves = 0
        self.fail_first = fail_first
        self.discards = []
        self.closed = False

    def get(self, request):
        host = self

        class _Resident:
            bench = None
            runs = 0

            def solve(self):
                host.solves += 1
                if host.solves <= host.fail_first:
                    raise RuntimeError("injected solve failure")
                self.runs = host.solves
                return _FakeReport(), "sha256:stub"

        return _Resident()

    def discard(self, request):
        self.discards.append(request.signature_key())

    def close(self):
        self.closed = True


class TestBatchScheduler:
    def test_same_signature_batch_solved_once_and_fanned_out(self):
        async def main():
            loop = asyncio.get_running_loop()
            queue = JobQueue(max_depth=8)
            host = _StubHost()
            scheduler = BatchScheduler(queue, host, max_batch=8)
            scheduler.start()
            request = AssignRequest.from_json(dict(BODY))
            jobs = [_job(request, loop) for _ in range(3)]
            for job in jobs:
                queue.submit(job)
            responses = await asyncio.gather(*(j.future for j in jobs))
            queue.close()
            await scheduler.join()
            return responses, host

        responses, host = asyncio.run(main())
        assert host.solves == 1  # dedup: one engine run served all three
        assert host.closed
        for response in responses:
            assert response["assignment_digest"] == "sha256:stub"
            assert response["serving"]["batch_size"] == 3
            assert response["serving"]["deduped"] is True
            assert response["result_class"] == "ok"

    def test_solve_failure_is_isolated_and_resident_discarded(self):
        async def main():
            loop = asyncio.get_running_loop()
            queue = JobQueue(max_depth=8)
            host = _StubHost(fail_first=1)
            scheduler = BatchScheduler(queue, host, max_batch=8)
            scheduler.start()
            request = AssignRequest.from_json(dict(BODY))
            doomed = _job(request, loop)
            queue.submit(doomed)
            with pytest.raises(JobFailed):
                await doomed.future
            # The scheduler must survive and serve the next job.
            healthy = _job(request, loop)
            queue.submit(healthy)
            response = await healthy.future
            queue.close()
            await scheduler.join()
            return response, host

        response, host = asyncio.run(main())
        assert host.discards == [
            AssignRequest.from_json(dict(BODY)).signature_key()
        ]
        assert response["assignment_digest"] == "sha256:stub"


class TestEngineHost:
    def test_lru_evicts_and_closes(self, monkeypatch):
        closed = []

        class _StubResident:
            def __init__(self, request, **kwargs):
                self.signature = request.signature()
                self.key = request.signature_key()

            def close(self):
                closed.append(self.key)

        monkeypatch.setattr(resident_mod, "ResidentEngine", _StubResident)
        host = EngineHost(capacity=1)
        first = AssignRequest.from_json(dict(BODY))
        second = AssignRequest.from_json({**BODY, "benchmark": "adaptec2"})
        resident = host.get(first)
        assert host.get(first) is resident  # hit, no rebuild
        host.get(second)  # evicts + closes the LRU resident
        assert closed == [first.signature_key()]
        assert len(host) == 1
        host.close()
        assert closed == [first.signature_key(), second.signature_key()]

    def test_discard_closes_resident(self, monkeypatch):
        closed = []

        class _StubResident:
            def __init__(self, request, **kwargs):
                self.signature = request.signature()
                self.key = request.signature_key()

            def close(self):
                closed.append(self.key)

        monkeypatch.setattr(resident_mod, "ResidentEngine", _StubResident)
        host = EngineHost(capacity=2)
        request = AssignRequest.from_json(dict(BODY))
        host.get(request)
        host.discard(request)
        assert closed == [request.signature_key()]
        assert len(host) == 0
        host.discard(request)  # absent signature: no-op


def _cli_path_digest() -> str:
    """The one-shot path's digest of the standard smoke problem."""
    bench = prepare(BODY["benchmark"], scale=BODY["scale"])
    run_method(
        bench, BODY["method"], critical_ratio=BODY["ratio_percent"] / 100.0
    )
    return assignment_digest(bench)


async def _post_assign(server: FrontThread, body, timeout=180.0):
    return await http_request(
        server.config.host, server.port, "POST", "/v1/assign", body,
        timeout=timeout,
    )


async def _get(server: FrontThread, path: str):
    return await http_request(server.config.host, server.port, "GET", path)


class TestServerEndToEnd:
    @pytest.fixture(scope="class")
    def server(self):
        with FrontThread(
            AssignServer, ServeConfig(port=0, max_queue=16, max_batch=8)
        ) as thread:
            yield thread

    def test_health_metrics_and_routing(self, server):
        # The autouse fixture disables the global registry after the
        # class-scoped server enabled it; /metrics needs it live.
        metrics.enable()

        async def main():
            status, health = await _get(server, "/healthz")
            assert (status, health["status"]) == (200, "alive")
            status, ready = await _get(server, "/readyz")
            assert (status, ready["status"]) == (200, "ready")
            status, text = await _get(server, "/metrics")
            assert status == 200
            assert "repro_serve_queue_depth_current" in text
            status, body = await _get(server, "/nope")
            assert (status, body["error"]["type"]) == (404, "not_found")
            status, body = await _get(server, "/v1/assign")  # GET not POST
            assert (status, body["error"]["type"]) == (
                405, "method_not_allowed"
            )

        asyncio.run(main())

    def test_bad_requests_get_400(self, server):
        async def main():
            for bad in (
                {**BODY, "benchmark": "nonesuch"},
                {**BODY, "typo_knob": 1},
                {**BODY, "workers": 99},  # over the server's policy cap
            ):
                status, body = await _post_assign(server, bad)
                assert (status, body["error"]["type"]) == (
                    400, "bad_request"
                )

        asyncio.run(main())

    def test_concurrent_requests_bit_identical_to_run(self, server):
        """Acceptance: 8 concurrent clients, one digest, equal to repro run."""

        async def main():
            return await asyncio.gather(
                *(_post_assign(server, dict(BODY)) for _ in range(8))
            )

        responses = asyncio.run(main())
        digests = set()
        deduped = 0
        for status, payload in responses:
            assert status == 200
            assert payload["schema"] == "repro.assign_response/v1"
            digests.add(payload["assignment_digest"])
            deduped += bool(payload["serving"]["deduped"])
        assert len(digests) == 1
        assert deduped >= 1  # burst of equal requests shared engine runs
        assert digests.pop() == _cli_path_digest()

    def test_warm_requests_reuse_resident_state(self, server):
        async def main():
            first = await _post_assign(server, dict(BODY))
            second = await _post_assign(server, dict(BODY))
            return first, second

        (_, first), (_, second) = asyncio.run(main())
        assert second["serving"]["engine_runs"] > first["serving"]["engine_runs"] - 1
        assert second["serving"]["warm"] is True
        assert second["assignment_digest"] == first["assignment_digest"]

    def test_repeated_assign_answers_from_the_solved_state(self, server):
        """Only a resident's first assign runs the engine; the response
        says so, and ``warm`` still marks every reuse of the resident."""
        body = {**BODY, "method": "tila"}  # a resident no other test builds

        async def main():
            return [await _post_assign(server, dict(body)) for _ in range(3)]

        (_, cold), (_, warm), (_, again) = asyncio.run(main())
        assert cold["serving"]["engine_ran"] is True
        assert cold["serving"]["warm"] is False
        for response in (warm, again):
            assert response["serving"]["engine_ran"] is False
            assert response["serving"]["warm"] is True
            assert response["serving"]["engine_runs"] == 1
            assert response["assignment_digest"] == cold["assignment_digest"]
            assert response["quality"] == cold["quality"]

    def test_queued_deadline_expires_as_504(self, server, held_build):
        async def main():
            # A fresh signature forces an engine build, behind which the
            # tiny-deadline job must time out while queued; the build is
            # held until that deadline has passed.
            slow = asyncio.create_task(
                _post_assign(server, {**BODY, "ratio_percent": 3, "scale": 0.3})
            )
            await asyncio.sleep(0.3)
            queued = asyncio.create_task(_post_assign(
                server, {**BODY, "ratio_percent": 3, "deadline_ms": 50}
            ))
            await asyncio.sleep(0.2)
            held_build.set()
            status, body = await queued
            assert (status, body["error"]["type"]) == (
                504, "deadline_exceeded"
            )
            status, _ = await slow
            assert status == 200

        asyncio.run(main())


@pytest.fixture
def held_build(monkeypatch):
    """Hold the resident build of any scale-0.3 design until the test
    sets the returned event, so a request occupies the engine for as long
    as the test needs, however fast the machine and the solver."""
    import repro.pipeline as pipeline

    release = threading.Event()
    real_prepare = pipeline.prepare

    def prepare(name, scale=1.0, **kwargs):
        if scale == 0.3:
            release.wait(timeout=120)
        return real_prepare(name, scale=scale, **kwargs)

    monkeypatch.setattr(pipeline, "prepare", prepare)
    yield release
    release.set()


class TestBackpressureAndDrain:
    def test_full_queue_answers_429(self, held_build):
        async def main():
            # While the first request holds the engine (its build is held)
            # the depth-1 queue fits exactly one more job; the third must
            # be rejected with a Retry-After estimate.
            first = asyncio.create_task(
                _post_assign(server, {**BODY, "scale": 0.3})
            )
            await asyncio.sleep(0.5)
            second = asyncio.create_task(_post_assign(server, dict(BODY)))
            await asyncio.sleep(0.1)
            status, body = await _post_assign(server, dict(BODY))
            assert status == 429
            assert body["error"]["type"] == "overloaded"
            assert body["error"]["retry_after_seconds"] >= 1
            held_build.set()
            assert (await first)[0] == 200
            assert (await second)[0] == 200

        with FrontThread(
            AssignServer, ServeConfig(port=0, max_queue=1, max_batch=1)
        ) as server:
            asyncio.run(main())

    def test_drain_finishes_in_flight_and_rejects_new(self, held_build):
        async def main():
            # The held build keeps the first request in flight until the
            # drain has been checked.
            in_flight = asyncio.create_task(
                _post_assign(server, {**BODY, "scale": 0.3})
            )
            await asyncio.sleep(0.5)
            status, body = await http_request(
                server.config.host, server.port, "POST", "/v1/drain"
            )
            assert (status, body["status"]) == (202, "draining")
            status, ready = await _get(server, "/readyz")
            assert (status, ready["status"]) == (503, "draining")
            status, body = await _post_assign(server, dict(BODY))
            assert (status, body["error"]["type"]) == (503, "draining")
            held_build.set()
            status, payload = await in_flight
            assert status == 200
            return payload

        server = FrontThread(AssignServer, ServeConfig(port=0)).start()
        try:
            payload = asyncio.run(main())
            assert payload["assignment_digest"].startswith("sha256:")
        finally:
            server.stop()
        assert not server._thread.is_alive()  # drain ended the server loop


class TestBenchServeEntry:
    def test_single_node_entry_records_engine_runs(self):
        """A single-node ``bench-serve`` entry counts the campaign's
        engine runs: the cold request's solve, then none for the warm and
        load requests, which the resident answers from its solved state."""
        from repro.obs import ledger
        from repro.service.loadgen import LoadGenConfig, run_loadgen

        result = run_loadgen(LoadGenConfig(
            benchmark="adaptec1", scale=0.05, ratio_percent=2,
            qps=20, requests=4, concurrency=2, warmup=2,
        ))
        assert result.passed, result.entry
        assert result.entry["serving"]["engine_runs"] == 1
        assert "engine runs          1" in ledger.render_entry(result.entry)
