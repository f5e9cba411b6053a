"""Distributed solve fabric tests: protocol, scheduling, faults, identity.

The load-bearing property is *scheduling-independence*: the fabric ships
each task's warm-start state from the coordinator's authoritative store,
so any task->worker mapping — work stealing, retries after a crash, a
speculative duplicate, a remote TCP worker — produces the bit-identical
assignment.  The fault tests in :class:`TestFaultBitIdentity` assert the
sha256 assignment digest of a faulted dist run equals an in-process
``seq`` run (not the Gauss-Seidel serial mode, which is a different —
also valid — algorithm).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import pytest

from repro.core.engine import CPLAEngine
from repro.dist import protocol
from repro.dist.fabric import (
    DistFabric,
    DistFabricConfig,
    InlineLeafSolver,
    task_cost,
)
from repro.dist.worker import FaultSpec, connect_and_serve, parse_fault_specs
from repro.ispd.request import AssignRequest, RequestError, assignment_digest
from repro.ispd.synthetic import generate
from repro.obs import metrics
from repro.pipeline import prepare
from tests.conftest import tiny_spec
from tests.test_engine import fast_cpla


@pytest.fixture(autouse=True)
def _metrics_clean():
    metrics.disable()
    yield
    metrics.disable()


def _fresh_bench():
    return prepare(generate(tiny_spec()))


def _digest(exec_backend, fault=None, monkeypatch=None, dist=None, workers=2):
    if fault is not None:
        monkeypatch.setenv("REPRO_DIST_FAULT", fault)
    bench = _fresh_bench()
    config = fast_cpla(workers=workers, exec_backend=exec_backend, dist=dist)
    with CPLAEngine(bench, config) as engine:
        engine.run()
        stats = (
            engine._backend.stats_snapshot()
            if isinstance(engine._backend, DistFabric)
            else None
        )
    return assignment_digest(bench), stats


# -- wire protocol ------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        frame = protocol.encode_frame(
            {"type": "task", "task": 3, "payload": protocol.pack_payload([1, 2])}
        )
        message = protocol.decode_frame(frame)
        assert message["type"] == "task"
        assert message["v"] == protocol.PROTOCOL_VERSION
        assert protocol.unpack_payload(message["payload"]) == [1, 2]

    def test_truncated_frame_rejected(self):
        frame = protocol.encode_frame({"type": "ready"})
        with pytest.raises(protocol.ProtocolError, match="declared"):
            protocol.decode_frame(frame[:-1])
        with pytest.raises(protocol.ProtocolError, match="length prefix"):
            protocol.decode_frame(b"\x00")

    def test_oversized_frame_rejected(self):
        import struct

        bad = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1) + b"{}"
        with pytest.raises(protocol.ProtocolError, match="limit"):
            protocol.decode_frame(bad)
        with pytest.raises(protocol.ProtocolError, match="limit"):
            protocol.encode_frame(
                {"type": "x", "blob": "a" * (protocol.MAX_FRAME_BYTES + 1)}
            )

    def test_bad_json_rejected(self):
        import struct

        body = b"not json"
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode_frame(struct.pack(">I", len(body)) + body)

    def test_foreign_version_rejected(self):
        import json
        import struct

        body = json.dumps({"type": "task", "v": "someone.else/v9"}).encode()
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.decode_frame(struct.pack(">I", len(body)) + body)

    def test_typeless_frame_rejected(self):
        import json
        import struct

        body = json.dumps({"v": protocol.PROTOCOL_VERSION}).encode()
        with pytest.raises(protocol.ProtocolError, match="type"):
            protocol.decode_frame(struct.pack(">I", len(body)) + body)

    def test_undecodable_payload_raises_protocol_error(self):
        with pytest.raises(protocol.ProtocolError, match="undecodable"):
            protocol.unpack_payload("!!! not base64 pickle !!!")


class TestFaultSpecs:
    def test_parse(self):
        specs = parse_fault_specs("crash:0:2, hang:1:1, initfail:3")
        assert specs == [
            FaultSpec("crash", 0, 2),
            FaultSpec("hang", 1, 1),
            FaultSpec("initfail", 3),
        ]
        assert parse_fault_specs(None) == []
        assert parse_fault_specs("") == []

    def test_malformed_specs_raise(self):
        with pytest.raises(ValueError):
            parse_fault_specs("crash:0")
        with pytest.raises(ValueError):
            parse_fault_specs("explode:1:2")


# -- fabric scheduling with a stub solver -------------------------------------


@dataclass(frozen=True)
class StubProblem:
    value: int
    cost_hint: int = 1
    num_vars: int = 1


class StubSolver:
    """Picklable stand-in: result is a pure function of the problem."""

    def solve(self, problem):
        return problem.value * 2, "info"


@dataclass(frozen=True)
class SleepyProblem:
    value: int
    sleep: float = 0.0
    cost_hint: int = 1
    num_vars: int = 1


class SleepySolver:
    """Stub whose solve takes ``problem.sleep`` seconds."""

    def solve(self, problem):
        time.sleep(problem.sleep)
        return problem.value * 2, "info"


def _values(results):
    """The x_values of each ``solve_many`` entry."""
    return [entry[0] for entry in results]


class TestFabricScheduling:
    def test_results_in_input_order(self):
        problems = [StubProblem(v, cost_hint=10 - v) for v in range(8)]
        with DistFabric(2, StubSolver()) as fabric:
            results = fabric.solve_many(problems)
        assert _values(results) == [v * 2 for v in range(8)]
        assert all(info == "info" for _x, info, _s, _t in results)
        assert all(telemetry is not None for *_, telemetry in results)
        assert fabric.stats["tasks"] == 8

    def test_largest_first_preserves_input_order(self):
        """Costs ascend with the index, so dispatch runs in reverse."""
        problems = [StubProblem(v, cost_hint=v) for v in range(6)]
        with DistFabric(2, StubSolver()) as fabric:
            results = fabric.solve_many(problems)
        assert _values(results) == [v * 2 for v in range(6)]

    def test_empty_map(self):
        with DistFabric(1, StubSolver()) as fabric:
            assert fabric.solve_many([]) == []
            assert fabric.solve_many([StubProblem(1)], leaf_mask=[]) == [None]
            assert not fabric._workers  # nothing to solve spawns nobody

    def test_leaf_mask_solves_only_masked(self):
        problems = [StubProblem(v) for v in range(4)]
        with DistFabric(2, StubSolver()) as fabric:
            results = fabric.solve_many(problems, leaf_mask=[1, 3])
        assert results[0] is None and results[2] is None
        assert results[1][0] == 2 and results[3][0] == 6
        assert fabric.stats["tasks"] == 2

    def test_task_cost_prefers_cost_hint(self):
        assert task_cost(StubProblem(0, cost_hint=7)) == 7

    def test_reuse_across_maps(self):
        with DistFabric(1, StubSolver()) as fabric:
            first = fabric.solve_many([StubProblem(1)])
            second = fabric.solve_many([StubProblem(2), StubProblem(3)])
        assert _values(first) == [2]
        assert _values(second) == [4, 6]
        assert fabric.stats["maps"] == 2

    def test_late_duplicate_does_not_answer_next_map(self):
        """A speculative duplicate that outlives its map is dropped.

        Task indices restart at 0 on every map.  Map 1's slow task 0 is
        duplicated onto the idle worker; the original wins, so map 1
        returns while the duplicate still runs.  Its result then arrives
        during map 2, whose task 0 is still solving, and must not be
        taken as that task's answer.
        """
        config = DistFabricConfig(
            straggler_min_seconds=0.3, straggler_factor=2.0,
            heartbeat_timeout=0.4,  # wake the scheduler every 0.2 s
            task_timeout=30.0,
        )
        with DistFabric(2, SleepySolver(), config) as fabric:
            # Warm both workers so map 1's dispatch timing is steady.
            fabric.solve_many([SleepyProblem(100), SleepyProblem(101)])
            first = fabric.solve_many(
                [SleepyProblem(0, sleep=1.5, cost_hint=10), SleepyProblem(1)]
            )
            second = fabric.solve_many(
                [SleepyProblem(10, sleep=1.5, cost_hint=10), SleepyProblem(11)]
            )
        assert _values(first) == [0, 2]
        assert _values(second) == [20, 22]
        assert fabric.stats["stragglers"] >= 1
        assert fabric.stats["late_results"] >= 1

    def test_broken_fabric_solves_in_process(self, monkeypatch):
        """Poisoned init + no restarts -> solved by InlineLeafSolver."""
        metrics.enable()
        monkeypatch.setenv("REPRO_DIST_FAULT", "initfail:0")
        config = DistFabricConfig(max_worker_restarts=0, worker_wait_timeout=5.0)
        with DistFabric(1, StubSolver(), config) as fabric:
            results = fabric.solve_many([StubProblem(1)])
            assert _values(results) == [2]
            assert results[0][3] is None  # no worker telemetry in-process
            assert fabric.stats["failures"] == 1
            # A broken fabric stays broken — no half-recovered state.
            assert _values(fabric.solve_many([StubProblem(2)])) == [4]
            assert fabric.stats["failures"] == 1
            assert not fabric._workers
        counters = metrics.registry().as_dict()["counters"]
        assert counters["engine.pool_failures"] == 1
        assert counters["dist.failures"] == 1

    def test_remote_worker_over_tcp(self):
        """A worker joined via the TCP listener serves tasks correctly."""
        config = DistFabricConfig(
            listen=("127.0.0.1", 0), authkey=b"test-secret"
        )
        with DistFabric(1, StubSolver(), config) as fabric:
            fabric._ensure_started()
            host, port = fabric.listen_address
            remote = threading.Thread(
                target=connect_and_serve,
                args=(host, port, b"test-secret", "remote-test"),
                daemon=True,
            )
            remote.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with fabric._accept_lock:
                    if fabric._accepted:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("remote worker never reached the accept queue")
            results = fabric.solve_many([StubProblem(v) for v in range(6)])
            assert _values(results) == [v * 2 for v in range(6)]
        remote.join(timeout=10.0)
        assert not remote.is_alive()


# -- warm-start state ships with the task -------------------------------------


class WarmRecordingSolver:
    """Managed-warm stub: records what warm state each solve received."""

    def __init__(self):
        self.store = {}
        self.seen = []

    def warm_key(self, problem):
        return problem.value

    def export_warm(self, problem):
        return self.store.get(problem.value)

    def import_warm(self, problem, X):
        if X is None:
            self.store.pop(problem.value, None)
        else:
            self.store[problem.value] = X

    def solve(self, problem):
        warm = self.store.get(problem.value)
        self.seen.append((problem.value, warm))
        self.store[problem.value] = f"X{problem.value}"
        return (problem.value, warm), "info"


class TestWarmStateOwnership:
    def test_parent_store_advances_and_ships(self):
        """Map 2 must see map 1's X regardless of worker placement."""
        solver = WarmRecordingSolver()
        problems = [StubProblem(v) for v in range(3)]
        with DistFabric(2, StubSolver()) as _:
            pass  # unrelated fabric: prove no cross-talk via globals
        with DistFabric(2, solver) as fabric:
            first = fabric.solve_many(problems)
            second = fabric.solve_many(problems)
        assert _values(first) == [(v, None) for v in range(3)]
        # Coordinator-side store advanced in task order after map 1 ...
        assert solver.store == {0: "X0", 1: "X1", 2: "X2"}
        # ... and map 2's solves (wherever they ran) saw exactly that state.
        assert _values(second) == [(v, f"X{v}") for v in range(3)]

    def test_inline_backend_same_contract(self):
        """The fabric's in-process fallback sees the same warm states."""
        solver = WarmRecordingSolver()
        problems = [StubProblem(v) for v in range(3)]
        inline = InlineLeafSolver(solver)
        first = inline.solve_many(problems)
        second = inline.solve_many(problems)
        assert _values(first) == [(v, None) for v in range(3)]
        assert solver.store == {0: "X0", 1: "X1", 2: "X2"}
        assert _values(second) == [(v, f"X{v}") for v in range(3)]


# -- bit-identity under faults (the acceptance criterion) ---------------------


@pytest.fixture(scope="module")
def seq_digest():
    """Reference digest from the in-process Jacobi backend."""
    bench = _fresh_bench()
    with CPLAEngine(bench, fast_cpla(exec_backend="seq")) as engine:
        engine.run()
    return assignment_digest(bench)


class TestFaultBitIdentity:
    def test_healthy_dist_matches_seq(self, seq_digest):
        digest, stats = _digest("dist")
        assert digest == seq_digest
        assert stats["tasks"] > 0

    def test_worker_crash_mid_task(self, seq_digest, monkeypatch):
        """SIGKILL mid-task: retried elsewhere, result bit-identical."""
        digest, stats = _digest("dist", fault="crash:0:2", monkeypatch=monkeypatch)
        assert digest == seq_digest
        assert stats["retries"] >= 1
        assert stats["worker_restarts"] >= 1

    def test_worker_hang_past_timeout(self, seq_digest, monkeypatch):
        """A hang past task_timeout is reaped and re-dispatched.

        Speculation is pushed out of reach so the timeout path itself is
        exercised (otherwise the straggler re-dispatch rescues the task
        first — covered by the next test).
        """
        digest, stats = _digest(
            "dist", fault="hang:0:1", monkeypatch=monkeypatch,
            dist=DistFabricConfig(
                task_timeout=1.5, straggler_min_seconds=600.0
            ),
        )
        assert digest == seq_digest
        assert stats["retries"] >= 1

    def test_straggler_speculation_rescues_hang(self, seq_digest, monkeypatch):
        """With a long task_timeout the speculative duplicate wins."""
        digest, stats = _digest(
            "dist", fault="hang:0:1", monkeypatch=monkeypatch,
            dist=DistFabricConfig(
                task_timeout=30.0,
                straggler_min_seconds=0.5,
                straggler_factor=2.0,
            ),
        )
        assert digest == seq_digest
        assert stats["stragglers"] >= 1

    def test_initializer_failure(self, seq_digest, monkeypatch):
        """A poisoned worker is replaced; the survivors finish the map."""
        digest, stats = _digest(
            "dist", fault="initfail:0", monkeypatch=monkeypatch
        )
        assert digest == seq_digest
        assert stats["worker_restarts"] >= 1

    def test_scheduler_section_reaches_report(self):
        bench = _fresh_bench()
        with CPLAEngine(bench, fast_cpla(workers=2, exec_backend="dist")) as engine:
            report = engine.run()
        assert report.scheduler["backend"] == "dist"
        assert report.scheduler["tasks"] > 0
        assert set(report.scheduler) >= {
            "retries", "steals", "stragglers", "worker_restarts", "utilization",
        }


# -- scheduler metrics through the Prometheus sanitizer -----------------------


class TestSchedulerMetrics:
    def test_counters_render_cleanly(self):
        metrics.enable()
        metrics.inc("dist.retries", 2)
        metrics.inc("dist.steals", 5)
        metrics.inc("dist.stragglers")
        metrics.inc("dist.worker_restarts")
        text = metrics.registry().render_prometheus()
        for line in (
            "repro_dist_retries_total 2",
            "repro_dist_steals_total 5",
            "repro_dist_stragglers_total 1",
            "repro_dist_worker_restarts_total 1",
        ):
            assert line in text, text

    def test_dist_run_emits_counters(self):
        metrics.enable()
        bench = _fresh_bench()
        with CPLAEngine(bench, fast_cpla(workers=2, exec_backend="dist")) as engine:
            engine.run()
        text = metrics.registry().render_prometheus()
        assert "repro_dist_tasks_total" in text
        assert "repro_dist_workers_live" in text


# -- request wire format ------------------------------------------------------


class TestAssignRequestExec:
    def test_default_and_round_trip(self):
        request = AssignRequest.from_json(
            {"benchmark": "adaptec1", "exec": "dist", "workers": 2}
        )
        assert request.exec_backend == "dist"
        assert AssignRequest.from_json(request.to_json()) == request
        # Default stays off the wire so old servers accept pool bodies.
        assert "exec" not in AssignRequest(benchmark="adaptec1").to_json()

    def test_signature_separates_backends(self):
        pool = AssignRequest(benchmark="adaptec1", workers=2)
        dist = AssignRequest(benchmark="adaptec1", workers=2, exec_backend="dist")
        assert pool.signature() != dist.signature()
        assert "exec=dist" in dist.signature_key()

    def test_bad_exec_rejected(self):
        with pytest.raises(RequestError, match="exec"):
            AssignRequest.from_json({"benchmark": "adaptec1", "exec": "mpi"})


# -- ledger scheduler section -------------------------------------------------


class TestLedgerScheduler:
    def test_entry_and_render(self):
        from repro.obs import ledger as run_ledger

        bench = _fresh_bench()
        with CPLAEngine(bench, fast_cpla(workers=2, exec_backend="dist")) as engine:
            report = engine.run()
        entry = run_ledger.build_entry(report, config={"benchmark": "tiny"})
        assert entry["scheduler"]["tasks"] > 0
        rendered = run_ledger.render_entry(entry)
        assert "dist scheduler:" in rendered
        assert "retries" in rendered
