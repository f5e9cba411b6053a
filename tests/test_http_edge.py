"""The HTTP edge's own replies, on the shard server and on the gateway.

Both fronts answer refusals before any request reaches a queue or a
shard: a malformed request line, an oversized body, an unknown path, a
wrong method.  Every reply — errors included — carries the request's
trace id in the JSON body and in ``X-Trace-Id``, and an incoming W3C
``traceparent`` is continued rather than replaced.  CI's trace and fleet
gates join the gateway hop and the shard hop into one trace tree, so the
two fronts must agree on all of it.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.fleet.gateway import Gateway, GatewayConfig
from repro.service import AssignServer, FrontThread, ServeConfig, http_request

_HEX32 = re.compile(r"^[0-9a-f]{32}$")
_CALLER_TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"
_CALLER_TRACEPARENT = f"00-{_CALLER_TRACE_ID}-00f067aa0ba902b7-01"


@pytest.fixture(scope="module", params=["shard", "gateway"])
def front_port(request):
    """The port of a shard server, or of a gateway in front of one."""
    shard = FrontThread(AssignServer, ServeConfig(port=0)).start()
    gateway = None
    try:
        if request.param == "gateway":
            gateway = FrontThread(Gateway, GatewayConfig(
                shards={"s0": (shard.config.host, shard.port)}, port=0,
            )).start()
            yield gateway.port
        else:
            yield shard.port
    finally:
        if gateway is not None:
            gateway.stop()
        shard.stop()


def _exchange(port: int, raw: bytes):
    """Send raw request bytes; returns (status, lower-cased headers, body)."""

    async def main():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(raw)
            await writer.drain()
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30
            )
            lines = head[:-4].decode("latin-1").split("\r\n")
            headers = {}
            for line in lines[1:]:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
            body = await asyncio.wait_for(
                reader.readexactly(int(headers.get("content-length", "0"))),
                timeout=30,
            )
        finally:
            writer.close()
        return int(lines[0].split(" ")[1]), headers, json.loads(body)

    return asyncio.run(main())


def _request(method: str, path: str, extra: str = "", body: bytes = b"") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Type: application/json\r\n{extra}"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1") + body


@pytest.mark.parametrize(
    "raw,status,error_type,trace_id",
    [
        (b"GARBAGE\r\nHost: x\r\n\r\n", 400, "bad_request", None),
        (
            _request("POST", "/v1/assign", "Content-Length: 2000000\r\n"),
            413, "bad_request", None,
        ),
        (_request("GET", "/no/such/route"), 404, "not_found", None),
        (_request("GET", "/v1/assign"), 405, "method_not_allowed", None),
        (
            _request("GET", "/no/such/route",
                     f"traceparent: {_CALLER_TRACEPARENT}\r\n"),
            404, "not_found", _CALLER_TRACE_ID,
        ),
    ],
    ids=["malformed-line", "body-too-large", "unknown-path",
         "wrong-method", "traceparent-continued"],
)
def test_edge_replies_carry_status_type_and_trace_id(
    front_port, raw, status, error_type, trace_id
):
    got_status, headers, body = _exchange(front_port, raw)
    assert got_status == status, body
    assert body["error"]["type"] == error_type
    assert _HEX32.match(body["trace_id"]), body
    assert headers["x-trace-id"] == body["trace_id"]
    if trace_id is not None:
        assert body["trace_id"] == trace_id


def _launch(args):
    """Start ``python -m repro <args> --port 0``; returns (process, port).

    The port is read from the front's "... on http://HOST:PORT" log line.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args, "--port", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
    )
    lines = queue.Queue()

    def pump():  # keeps draining stderr so the child never blocks on it
        for line in proc.stderr:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + 60
    seen = []
    while True:
        try:
            line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
        except queue.Empty:
            line = None
        if line is None:
            proc.kill()
            proc.wait()
            pytest.fail(f"repro {args[0]} did not come up:\n{''.join(seen)}")
        seen.append(line)
        match = re.search(r" on http://[^ ]+:(\d+) ", line)
        if match:
            return proc, int(match.group(1))


def _reap(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def test_command_line_fronts_serve_and_exit_cleanly():
    """``repro serve`` and ``repro gateway`` answer, then exit 0.

    The commands build their front inside the loop that serves it; on
    Python 3.9 a front built before ``asyncio.run`` crashes as soon as
    it waits for shutdown.  The gateway stops on SIGTERM, the shard on
    ``POST /v1/drain``.
    """
    shard, shard_port = _launch(["serve"])
    try:
        gateway, gateway_port = _launch(
            ["gateway", "--shard", f"s0=http://127.0.0.1:{shard_port}"]
        )
        try:
            status, body = asyncio.run(
                http_request("127.0.0.1", gateway_port, "GET", "/readyz",
                             timeout=30)
            )
            assert status == 200, body
            gateway.send_signal(signal.SIGTERM)
            assert gateway.wait(timeout=60) == 0
        finally:
            _reap(gateway)
        status, body = asyncio.run(
            http_request("127.0.0.1", shard_port, "POST", "/v1/drain",
                         timeout=30)
        )
        assert status == 202, body
        assert shard.wait(timeout=120) == 0
    finally:
        _reap(shard)
