"""End-to-end distributed tracing tests.

Covers the trace-context model (W3C-style ``trace_id``/``span_id``
propagation via :class:`~repro.obs.tracer.TraceContext`), the trace
analysis views behind ``repro obs trace``, and the two honesty
properties the subsystem must keep:

- **cross-process assembly** — a serve request solved over ``--exec
  dist`` (including by a remote TCP worker, and under crash/retry fault
  injection) yields spans that assemble into ONE connected tree whose
  root is the HTTP request span and whose leaves include worker-side
  solve spans from other pids;
- **digest honesty** — enabling tracing must not perturb the assignment
  digest of any execution backend.
"""

from __future__ import annotations

import asyncio
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.ispd.request import assignment_digest
from repro.ispd.synthetic import generate
from repro.obs import tracer, traceview
from repro.obs.tracer import TraceContext
from repro.pipeline import prepare
from repro.service import (
    AssignServer,
    FrontThread,
    ServeConfig,
    http_request,
)

from tests.conftest import tiny_spec
from tests.test_engine import fast_cpla

BODY = {
    "benchmark": "adaptec1",
    "scale": 0.05,
    "ratio_percent": 2,
    "method": "sdp",
}


@pytest.fixture(autouse=True)
def _trace_clean():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    yield
    obs.disable()


# -- trace context ------------------------------------------------------------


class TestTraceContext:
    def test_dict_round_trip(self):
        ctx = TraceContext(tracer.new_trace_id(), "00000bee00000001")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx
        # span_id is optional on the wire (emitting side untraced).
        bare = TraceContext(ctx.trace_id)
        assert TraceContext.from_dict(bare.to_dict()) == bare

    def test_from_dict_rejects_junk(self):
        for junk in (None, [], "x", {}, {"span_id": "1"}, {"trace_id": ""}):
            assert TraceContext.from_dict(junk) is None

    def test_traceparent_round_trip(self):
        ctx = TraceContext(tracer.new_trace_id(), "00000bee00000001")
        header = ctx.to_traceparent()
        assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
        assert TraceContext.from_traceparent(header) == ctx

    def test_traceparent_without_span_uses_zero_parent(self):
        ctx = TraceContext(tracer.new_trace_id())
        header = ctx.to_traceparent()
        assert "-0000000000000000-" in header
        parsed = TraceContext.from_traceparent(header)
        assert parsed == ctx  # all-zero parent id maps back to None

    def test_traceparent_rejects_malformed(self):
        good = TraceContext(tracer.new_trace_id(), "00000bee00000001")
        for header in (
            None,
            "",
            "nonsense",
            "00-short-00000bee00000001-01",
            f"00-{good.trace_id}-xyz-01",
            f"ff-{good.trace_id}-{good.span_id}-01",  # forbidden version
            "00-" + "0" * 32 + f"-{good.span_id}-01",  # all-zero trace
        ):
            assert TraceContext.from_traceparent(header) is None


# -- tracer core: propagation, reset, errors ----------------------------------


class TestTracerPropagation:
    def test_attach_parents_root_spans_under_remote_context(self):
        tracer.enable()
        ctx = TraceContext(tracer.new_trace_id(), "00000bee00000001")
        token = tracer.attach(ctx)
        try:
            with tracer.span("worker.task"):
                with tracer.span("worker.inner"):
                    pass
        finally:
            tracer.detach(token)
        inner, outer = tracer.snapshot()
        assert outer["parent"] == ctx.span_id
        assert outer["trace_id"] == ctx.trace_id
        assert inner["parent"] == outer["id"]
        assert inner["trace_id"] == ctx.trace_id
        # detach restored: a later root span carries no trace.
        with tracer.span("after"):
            pass
        assert "trace_id" not in tracer.snapshot()[-1]

    def test_current_context_tracks_innermost_span(self):
        tracer.enable()
        assert tracer.current_context() is None
        ctx = TraceContext(tracer.new_trace_id(), "00000bee00000001")
        token = tracer.attach(ctx)
        try:
            assert tracer.current_context() == ctx
            with tracer.span("outer") as outer:
                got = tracer.current_context()
                assert got == TraceContext(ctx.trace_id, outer.id)
        finally:
            tracer.detach(token)

    def test_span_ids_are_16_hex_and_unique(self):
        tracer.enable()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [s["id"] for s in tracer.snapshot()]
        assert len(set(ids)) == 5
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_detached_span_parents_under_explicit_context(self):
        tracer.enable()
        ctx = TraceContext(tracer.new_trace_id(), "00000bee00000001")
        s = tracer.start_span("serve.request", ctx=ctx, path="/v1/assign")
        # Detached spans never touch the nesting stack.
        assert tracer.current_span_id() is None
        s.finish()
        (record,) = tracer.snapshot()
        assert record["parent"] == ctx.span_id
        assert record["trace_id"] == ctx.trace_id
        assert record["attrs"]["path"] == "/v1/assign"

    def test_start_span_returns_none_while_disabled(self):
        assert tracer.start_span("x") is None


class TestTracerErrors:
    def test_exit_records_error_and_type(self):
        tracer.enable()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("injected")
        (record,) = tracer.snapshot()
        assert record["error"] is True
        assert record["error_type"] == "ValueError"

    def test_detached_finish_records_error(self):
        tracer.enable()
        s = tracer.start_span("serve.request")
        s.finish("http_500")
        (record,) = tracer.snapshot()
        assert record["error"] is True
        assert record["error_type"] == "http_500"

    def test_clean_exit_records_no_error(self):
        tracer.enable()
        with tracer.span("fine"):
            pass
        (record,) = tracer.snapshot()
        assert "error" not in record and "error_type" not in record


class TestTracerReset:
    def test_reset_clears_other_threads_stacks(self):
        """A stale span left by another thread cannot parent new spans."""
        tracer.enable()
        entered = threading.Event()
        release = threading.Event()

        def worker():
            with tracer.span("stale"):
                entered.set()
                release.wait(10.0)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        assert entered.wait(10.0)
        tracer.reset()  # bumps the epoch; worker's stack is now stale
        with tracer.span("fresh"):
            pass
        release.set()
        thread.join(10.0)
        fresh = [s for s in tracer.snapshot() if s["name"] == "fresh"]
        assert fresh and fresh[0]["parent"] is None

    def test_span_ids_stay_unique_across_resets(self):
        """Persistent workers reset once per task; restarting the id
        sequence would recycle span ids across tasks and collide when the
        coordinator assembles the merged trace."""
        tracer.enable()
        with tracer.span("task1"):
            pass
        first = tracer.snapshot()[0]["id"]
        tracer.reset()
        with tracer.span("task2"):
            pass
        assert tracer.snapshot()[0]["id"] != first

    def test_reset_clears_attached_context(self):
        tracer.enable()
        tracer.attach(TraceContext(tracer.new_trace_id(), "00000bee00000001"))
        tracer.reset()
        assert tracer.current_context() is None
        with tracer.span("fresh"):
            pass
        assert "trace_id" not in tracer.snapshot()[0]

    def test_open_span_survives_reset_without_corrupting_stack(self):
        tracer.enable()
        span = tracer.span("outer")
        span.__enter__()
        tracer.reset()
        span.__exit__(None, None, None)  # healed stack: must not raise
        with tracer.span("next"):
            pass
        nxt = [s for s in tracer.snapshot() if s["name"] == "next"]
        assert nxt and nxt[0]["parent"] is None

    def test_concurrent_spans_and_resets_stay_consistent(self):
        """Hammer span/reset from several threads: no exceptions, and the
        surviving records all carry well-formed ids."""
        tracer.enable()
        stop = threading.Event()
        errors = []

        def spinner():
            try:
                while not stop.is_set():
                    with tracer.span("spin"):
                        with tracer.span("inner"):
                            pass
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        threads = [threading.Thread(target=spinner) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(50):
            tracer.reset()
            time.sleep(0.001)
        stop.set()
        for t in threads:
            t.join(10.0)
        assert not errors
        for record in tracer.snapshot():
            assert len(record["id"]) == 16
            int(record["id"], 16)


# -- trace assembly and analysis (repro obs trace) ----------------------------


def _span(id, parent, name, dur, trace="t" * 32, wall=100.0, **extra):
    record = {
        "id": id, "parent": parent, "name": name, "trace_id": trace,
        "start": wall - 100.0, "end": wall - 100.0 + dur, "dur": dur,
        "wall": wall, "pid": 1,
    }
    record.update(extra)
    return record


class TestTraceview:
    def _tree(self):
        # root(1.0) -> solve(0.8) -> leaf_a(0.5), leaf_b(0.2); side(0.1)
        return [
            _span("a" * 16, None, "serve.request", 1.0),
            _span("b" * 16, "a" * 16, "serve.solve", 0.8, wall=100.1),
            _span("c" * 16, "b" * 16, "engine.leaf", 0.5, wall=100.2, pid=2),
            _span("d" * 16, "b" * 16, "engine.leaf", 0.2, wall=100.7, pid=3),
            _span("e" * 16, "a" * 16, "serve.side", 0.1, wall=100.9),
        ]

    def test_assemble_links_children_and_roots(self):
        traces = traceview.assemble(self._tree())
        trace = traces["t" * 32]
        assert trace.root["name"] == "serve.request"
        assert [c["name"] for c in trace.children["a" * 16]] == [
            "serve.solve", "serve.side"
        ]
        assert not trace.orphans
        assert not traceview.check(traces)

    def test_self_time_subtracts_direct_children(self):
        trace = traceview.assemble(self._tree())["t" * 32]
        assert trace.self_seconds(trace.root) == pytest.approx(0.1)  # 1-.8-.1
        solve = trace.by_id["b" * 16]
        assert trace.self_seconds(solve) == pytest.approx(0.1)  # .8-.5-.2

    def test_critical_path_descends_longest_child(self):
        trace = traceview.assemble(self._tree())["t" * 32]
        path = [s["name"] for s in traceview.critical_path(trace)]
        assert path == ["serve.request", "serve.solve", "engine.leaf"]
        rendered = traceview.render_critical(trace)
        assert "critical path" in rendered
        assert "self" in rendered and "pid" in rendered
        assert "leaf: engine.leaf on pid 2" in rendered

    def test_render_tree_marks_errors(self):
        spans = self._tree()
        spans[2]["error"] = True
        spans[2]["error_type"] = "ValueError"
        trace = traceview.assemble(spans)["t" * 32]
        rendered = traceview.render_tree(trace)
        assert "!ValueError" in rendered
        assert trace.errors and trace.errors[0]["id"] == "c" * 16

    def test_orphan_and_untraced_spans_fail_check(self):
        spans = self._tree()
        spans[3]["parent"] = "f" * 16  # dangling parent
        untraced = _span("9" * 16, None, "stray", 0.1)
        del untraced["trace_id"]
        spans.append(untraced)
        traces = traceview.assemble(spans)
        violations = traceview.check(traces)
        assert any("missing parent" in v for v in violations)
        assert any("no trace_id" in v for v in violations)

    def test_multiple_roots_fail_check(self):
        spans = self._tree()
        spans[1]["parent"] = None  # a second true root
        violations = traceview.check(traceview.assemble(spans))
        assert any("2 root spans" in v for v in violations)

    def test_select_trace_by_prefix_and_default_slowest(self):
        fast = [_span("1" * 16, None, "r", 0.1, trace="a" * 32)]
        slow = [_span("2" * 16, None, "r", 9.0, trace="b" * 32)]
        traces = traceview.assemble(fast + slow)
        assert traceview.select_trace(traces).trace_id == "b" * 32
        assert traceview.select_trace(traces, "a").trace_id == "a" * 32
        with pytest.raises(ValueError, match="no trace id"):
            traceview.select_trace(traces, "zz")

    def test_summary_aggregates_by_name(self):
        stats = traceview.summarize(traceview.assemble(self._tree()))
        assert stats["traces"] == 1 and stats["spans"] == 5
        by_name = {row["name"]: row for row in stats["by_name"]}
        assert by_name["engine.leaf"]["count"] == 2
        assert by_name["engine.leaf"]["total_ms"] == pytest.approx(700.0)
        rendered = traceview.render_summary(
            traceview.assemble(self._tree()), violations=[]
        )
        assert "connectivity check passed" in rendered

    def test_load_spans_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"id": "a"}\nnot json\n')
        with pytest.raises(ValueError, match="trace.jsonl:2"):
            traceview.load_spans(str(path))


# -- digest honesty: tracing must not change results --------------------------


class TestDigestHonesty:
    @pytest.mark.parametrize(
        "backend,workers",
        [("seq", 0), ("batch", 0), ("pool", 2)],
    )
    def test_tracing_does_not_perturb_digests(self, backend, workers):
        def run(traced: bool) -> str:
            obs.disable()
            if traced:
                tracer.enable()
                tracer.attach(TraceContext(tracer.new_trace_id()))
            bench = prepare(generate(tiny_spec()))
            from repro.core.engine import CPLAEngine

            config = fast_cpla(workers=workers, exec_backend=backend)
            with CPLAEngine(bench, config) as engine:
                engine.run()
            if traced:
                assert tracer.snapshot()  # it really did trace
            return assignment_digest(bench)

        assert run(traced=False) == run(traced=True)


# -- cross-process serve/dist assembly (the acceptance criterion) -------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def _post_assign(server: FrontThread, body, timeout=240.0,
                       path="/v1/assign"):
    return await http_request(
        server.config.host, server.port, "POST", path, body,
        timeout=timeout,
    )


def _connected_tree(trace: "traceview.Trace") -> bool:
    """True when the trace is one tree: a single root reaching every span."""
    if trace.orphans:
        return False
    roots = [s for s in trace.roots if s.get("parent") is None]
    if len(roots) != 1:
        return False
    reached = 0
    stack = [roots[0]]
    while stack:
        span = stack.pop()
        reached += 1
        stack.extend(trace.children.get(span["id"], ()))
    return reached == len(trace.spans)


class TestServeDistTracing:
    def test_remote_tcp_worker_joins_the_request_trace(self, tmp_path):
        """A traced serve request over --exec dist with a remote TCP worker
        forms one connected tree: root = HTTP span, leaves include solve
        spans from the worker subprocess's pid."""
        port = _free_port()
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = {
            **os.environ,
            "PYTHONPATH": str(src_dir),
            "REPRO_DIST_AUTHKEY": "trace-test-secret",
        }
        tracer.enable()  # before server start: fabrics snapshot obs flags
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "dist-worker",
                "--connect", f"127.0.0.1:{port}",
                "--retry-seconds", "240", "--id", "remote-trace-test",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        server = FrontThread(AssignServer, ServeConfig(
            port=0, max_queue=16, max_batch=4,
            dist_listen=("127.0.0.1", port),
            dist_authkey=b"trace-test-secret",
        )).start()
        body = {**BODY, "workers": 2, "exec": "dist"}
        remote_trace_id = None
        try:
            # The first assign runs the full solve; a solved resident runs
            # the engine again only for ECO edits, so the later requests
            # are release rounds.  Repeat until the remote worker, which
            # connects on its own schedule, has solved a leaf of one.
            deadline = time.monotonic() + 240.0
            epoch = None
            while time.monotonic() < deadline:
                if epoch is None:
                    status, payload = asyncio.run(_post_assign(server, body))
                else:
                    eco = {**body, "schema": "repro.eco_request/v1",
                           "edits": [{"op": "release_nets", "worst": 4}],
                           "state_epoch": epoch}
                    status, payload = asyncio.run(
                        _post_assign(server, eco, path="/v1/eco")
                    )
                assert status == 200, payload
                epoch = payload.get("state_epoch", 0)
                trace_id = payload["trace_id"]
                spans = [
                    s for s in tracer.snapshot()
                    if s.get("trace_id") == trace_id
                ]
                if any(s["pid"] == proc.pid for s in spans):
                    remote_trace_id = trace_id
                    break
            assert remote_trace_id is not None, (
                "no request was ever served by the remote TCP worker"
            )
        finally:
            server.stop()
            proc.terminate()
            proc.wait(timeout=30.0)
        # The serve.request span finishes after the response is written;
        # the server is stopped above, so the buffer is complete now.
        out = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(out))
        traces = traceview.assemble(traceview.load_spans(str(out)))
        trace = traces[remote_trace_id]
        assert _connected_tree(trace)
        assert trace.root["name"] == "serve.request"
        assert trace.root["pid"] == os.getpid()
        remote_spans = [s for s in trace.spans if s["pid"] == proc.pid]
        assert remote_spans  # worker-side solve spans, correctly parented
        names = {s["name"] for s in trace.spans}
        assert "serve.solve" in names
        # The analysis views accept the assembled trace end to end.
        assert "critical path" in traceview.render_critical(trace)
        assert not traceview.check({remote_trace_id: trace})

    def test_crash_retry_keeps_the_trace_connected(self, tmp_path, monkeypatch):
        """REPRO_DIST_FAULT crash/retry: the request still succeeds and its
        spans still assemble into a single connected tree."""
        monkeypatch.setenv("REPRO_DIST_FAULT", "crash:0:1")
        tracer.enable()
        server = FrontThread(AssignServer, ServeConfig(
            port=0, max_queue=16, max_batch=4
        )).start()
        body = {**BODY, "workers": 2, "exec": "dist"}
        try:
            status, payload = asyncio.run(_post_assign(server, body))
            assert status == 200, payload
            trace_id = payload["trace_id"]
        finally:
            server.stop()
        out = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(out))
        traces = traceview.assemble(traceview.load_spans(str(out)))
        trace = traces[trace_id]
        assert _connected_tree(trace)
        assert trace.root["name"] == "serve.request"
        # The solve ran in worker processes other than the server's.
        assert {s["pid"] for s in trace.spans} - {os.getpid()}


# -- every response carries the trace id --------------------------------------


class TestResponseTraceIds:
    def test_error_responses_carry_a_trace_id(self):
        tracer.enable()
        server = FrontThread(
            AssignServer, ServeConfig(port=0, max_queue=1)
        ).start()
        try:
            async def main():
                bad_status, bad = await _post_assign(
                    server, {**BODY, "benchmark": "nonesuch"}
                )
                missing_status, missing = await http_request(
                    server.config.host, server.port, "GET", "/nope"
                )
                return (bad_status, bad), (missing_status, missing)

            (bad_status, bad), (missing_status, missing) = asyncio.run(main())
        finally:
            server.stop()
        assert bad_status == 400 and len(bad["trace_id"]) == 32
        assert missing_status == 404 and len(missing["trace_id"]) == 32

    def test_incoming_traceparent_is_honored(self):
        tracer.enable()
        ctx = TraceContext(tracer.new_trace_id(), "00000bee00000001")
        server = FrontThread(AssignServer, ServeConfig(port=0)).start()
        try:
            status, payload = asyncio.run(http_request(
                server.config.host, server.port, "POST", "/v1/assign",
                dict(BODY), timeout=240.0,
                headers={"traceparent": ctx.to_traceparent()},
            ))
        finally:
            server.stop()
        assert status == 200
        assert payload["trace_id"] == ctx.trace_id
        # The request span parents under the caller's span id.
        roots = [
            s for s in tracer.snapshot()
            if s.get("trace_id") == ctx.trace_id
            and s["name"] == "serve.request"
        ]
        assert roots and roots[0]["parent"] == ctx.span_id
