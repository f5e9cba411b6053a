"""The serving tier's one HTTP edge: request lifecycle, serve loop, client.

One request per connection, ``Content-Length`` bodies, ``Connection:
close`` — deliberately minimal, because both ends of every hop are ours.
The shard server (:class:`~repro.service.server.AssignServer`) and the
fleet gateway (:class:`~repro.fleet.gateway.Gateway`) are both
:class:`HttpFront` subclasses that supply only a route table, a metric
prefix (``serve``/``fleet``) and a span name
(``serve.request``/``gateway.request``).  :class:`HttpFront` parses each
request, continues its ``traceparent`` under a detached request span,
answers 400/404/405 itself and a crashed handler with a 500, records
``<prefix>.request_seconds`` and ``<prefix>.http_<status>``, and stamps
the trace id into every JSON body and the ``X-Trace-Id``/``traceparent``
headers, whatever the status.  JSON, text and relayed shard bytes
(:class:`RawBody`) leave through one serializer, which is what makes the
gateway's error passthrough *byte*-compatible.

The module also holds the signal-aware serve loop (:func:`run_front`,
:meth:`HttpFront.serve_forever`), the thread host for in-process fronts
(:class:`FrontThread`) and the one HTTP/1.1 client (:func:`exchange`;
:func:`http_request` decodes JSON on top of it) used by the gateway's
shard hops and health probes and by ``bench-serve``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from typing import (
    Any, Awaitable, Callable, Dict, List, NamedTuple, Optional, Tuple, Type,
)

from repro.ispd.request import RequestError, error_body
from repro.obs import metrics, tracer
from repro.obs.tracer import TraceContext
from repro.utils import get_logger

REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

JSON_CONTENT_TYPE = "application/json"
TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# End-to-end request latency buckets (seconds).
_REQUEST_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0)

Address = Tuple[str, int]


class HttpError(Exception):
    """A request refused as malformed: a ``bad_request`` reply with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Request(NamedTuple):
    """One parsed request, as a route handler sees it."""

    method: str
    path: str
    body: bytes
    ctx: TraceContext  # the request span's context: the parent of any hop


class RawBody(NamedTuple):
    """Reply bytes relayed verbatim (the gateway's shard passthrough)."""

    blob: bytes
    content_type: str


# A handler's reply: (status, dict/list -> JSON | str -> text | RawBody,
# extra headers).
Reply = Tuple[int, Any, Dict[str, str]]
Handler = Callable[[Request], Awaitable[Reply]]


def _header_dict(lines: List[str]) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    return headers


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int,
    header_timeout_seconds: float,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request; returns ``(method, path, headers, body)``.

    Header names are lower-cased; the query string is stripped from the
    path.  Raises :class:`HttpError` for anything refusable (the caller
    answers with the error status) and lets connection-level exceptions
    (``IncompleteReadError``, ``TimeoutError``, ...) propagate — those
    mean there is no client left to answer.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=header_timeout_seconds
        )
    except asyncio.LimitOverrunError:
        raise HttpError(413, "headers too large")
    except asyncio.TimeoutError:
        raise HttpError(408, "timed out reading request head")
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line")
    headers = _header_dict(header_lines)
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length_text!r}")
    if length < 0 or length > max_body_bytes:
        raise HttpError(
            413, f"body of {length} bytes exceeds {max_body_bytes}"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path.split("?", 1)[0], headers, body


async def _respond(
    writer: asyncio.StreamWriter,
    ctx: TraceContext,
    status: int,
    payload: Any,
    headers: Dict[str, str],
) -> None:
    """Send one reply stamped with the request's trace id, then close.

    The trace id goes into a JSON body (``trace_id``) and into the
    ``X-Trace-Id``/``traceparent`` headers whatever the status —
    429/500/504 included — so a client can always hand a trace id to
    ``repro obs trace``, even when a proxy or a minimal client dropped
    the headers.  Headers the handler set (a relayed shard
    ``X-Trace-Id``) win.  A :class:`RawBody` goes out verbatim, a ``str``
    as text, anything else as one line of JSON.
    """
    headers = dict(headers)
    headers.setdefault("X-Trace-Id", ctx.trace_id or "")
    if ctx.span_id is not None:
        headers.setdefault("traceparent", ctx.to_traceparent())
    if isinstance(payload, RawBody):
        blob, content_type = payload
    elif isinstance(payload, str):
        blob, content_type = payload.encode("utf-8"), TEXT_CONTENT_TYPE
    else:
        if isinstance(payload, dict):
            payload.setdefault("trace_id", ctx.trace_id)
        blob = (json.dumps(payload) + "\n").encode("utf-8")
        content_type = JSON_CONTENT_TYPE
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(blob)}",
        "Connection: close",
    ]
    for key, value in headers.items():
        lines.append(f"{key}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + blob)
    try:
        await writer.drain()
    except ConnectionError:  # client went away mid-response
        pass
    writer.close()


class HttpFront:
    """An asyncio HTTP front end with the request lifecycle described above.

    A subclass sets :attr:`metric_prefix`, :attr:`span_name` and
    :attr:`crash_log`, passes its route table (``path -> {method:
    handler}``) to ``__init__``, implements ``start()`` (ending in
    :meth:`listen`) and ``initiate_shutdown(reason)`` (which eventually
    sets ``self._stopped``).  ``config`` carries ``host``, ``port``,
    ``max_body_bytes`` and ``header_timeout_seconds``.
    """

    metric_prefix = ""
    span_name = ""
    crash_log = ""  # warning logged, with method and path, when a handler raises

    def __init__(self, config: Any, routes: Dict[str, Dict[str, Handler]]) -> None:
        self.config = config
        self.routes = routes
        self.port: Optional[int] = None  # actual port (config.port may be 0)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped = asyncio.Event()
        self._started_at = time.monotonic()
        self._log = get_logger(type(self).__module__)

    async def start(self) -> None:
        raise NotImplementedError

    def initiate_shutdown(self, reason: str = "requested") -> None:
        raise NotImplementedError

    async def listen(self) -> None:
        """Bind the socket: the last step of a front's ``start()``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self, install_signals: bool = True) -> int:
        """Start if needed and run until shut down; returns the exit code.

        SIGTERM and SIGINT call :meth:`initiate_shutdown`; 0 means the
        shutdown was clean.
        """
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, self.initiate_shutdown, f"signal {sig.name}"
                    )
                except (NotImplementedError, RuntimeError, ValueError):
                    # Non-main thread or platform without signal support;
                    # the front's own routes and FrontThread.stop() still
                    # shut it down.
                    break
        await self._stopped.wait()
        assert self._server is not None
        await self._server.wait_closed()
        return 0

    def parse_body(self, body: bytes, parser: Callable[[Any], Any]) -> Any:
        """Decode a JSON request body with ``parser``; a refusal is a 400.

        ``parser`` raises :class:`~repro.ispd.request.RequestError` for
        anything it refuses; the refusal counts as
        ``<prefix>.bad_requests``.
        """
        try:
            return parser(json.loads(body.decode("utf-8") or "null"))
        except (RequestError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            metrics.inc(f"{self.metric_prefix}.bad_requests")
            raise HttpError(400, str(exc)) from None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.monotonic()
        try:
            method, path, headers, body = await read_request(
                reader, self.config.max_body_bytes,
                self.config.header_timeout_seconds,
            )
        except HttpError as exc:
            await _respond(
                writer, TraceContext(tracer.new_trace_id()), exc.status,
                error_body("bad_request", str(exc)), {},
            )
            return
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError, asyncio.LimitOverrunError):
            writer.close()
            return
        # Request-scoped trace context: continue an incoming W3C
        # ``traceparent`` if the caller sent one, else mint a fresh trace.
        # The request span is *detached* (never on the thread-local nesting
        # stack): the handler holds it across ``await`` points, where stack
        # discipline would interleave concurrent requests.
        ctx = (
            TraceContext.from_traceparent(headers.get("traceparent"))
            or TraceContext(tracer.new_trace_id())
        )
        span = tracer.start_span(
            self.span_name, ctx=ctx, method=method, path=path
        )
        ctx = TraceContext(
            ctx.trace_id, span.id if span is not None else ctx.span_id
        )
        error_type: Optional[str] = None
        try:
            status, payload, reply_headers = await self._route(
                Request(method, path, body, ctx)
            )
        except Exception as exc:  # crash isolation: never kill the front
            self._log.warning(self.crash_log, method, path, exc_info=True)
            metrics.inc(f"{self.metric_prefix}.internal_errors")
            error_type = type(exc).__name__
            status, payload, reply_headers = 500, error_body(
                "internal", f"{type(exc).__name__}: {exc}"
            ), {}
        metrics.observe(
            f"{self.metric_prefix}.request_seconds",
            time.monotonic() - started,
            _REQUEST_BUCKETS,
        )
        metrics.inc(f"{self.metric_prefix}.http_{status}")
        await _respond(writer, ctx, status, payload, reply_headers)
        if span is not None:
            span.set_attr("status", status)
            if error_type is None and status >= 500:
                error_type = f"http_{status}"
            span.finish(error_type)

    async def _route(self, req: Request) -> Reply:
        methods = self.routes.get(req.path)
        if methods is None:
            return 404, error_body("not_found", f"no route {req.path}"), {}
        handler = methods.get(req.method)
        if handler is None:
            return 405, error_body(
                "method_not_allowed",
                f"{req.method} not supported on {req.path}",
            ), {}
        try:
            return await handler(req)
        except HttpError as exc:
            return exc.status, error_body("bad_request", str(exc)), {}


async def run_front(front_class: Type[HttpFront], config: Any) -> int:
    """Build a front on the running loop and serve it; returns the exit code.

    Fronts are built inside the loop that serves them (here and in
    :class:`FrontThread`): on Python 3.9 an asyncio primitive (a front's
    stop event, the gateway's shard semaphores) binds to the loop current
    when it is made, so a front built before ``asyncio.run`` would crash
    once it waits for shutdown.
    """
    return await front_class(config).serve_forever()


class FrontThread:
    """An :class:`HttpFront` on a background thread with its own loop.

    Tests and ``bench-serve`` host in-process shards and gateways this
    way, e.g. ``FrontThread(AssignServer, ServeConfig(port=0))``.  The
    front is built inside the thread's loop and exposed as
    :attr:`front`; :meth:`stop` calls its ``initiate_shutdown`` (a shard
    drains first) and joins the thread.
    """

    def __init__(self, front_class: Type[HttpFront], config: Any) -> None:
        self.config = config
        self.port: Optional[int] = None
        self.front: Optional[HttpFront] = None
        self._front_class = front_class
        self._ready = threading.Event()
        self._failed: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name=f"http-{front_class.__name__}", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to the waiting starter
            self._failed = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.front = self._front_class(self.config)
        await self.front.start()
        self.port = self.front.port
        self._ready.set()
        await self.front.serve_forever(install_signals=False)

    def start(self, timeout: float = 60.0) -> "FrontThread":
        name = self._front_class.__name__
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"in-process {name} did not come up")
        if self._failed is not None:
            raise RuntimeError(f"in-process {name} failed: {self._failed!r}")
        return self

    def stop(self, timeout: float = 120.0) -> None:
        if self.front is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(  # type: ignore[union-attr]
                    self.front.initiate_shutdown, "stop()"
                )
            except RuntimeError:  # the loop closed in the meantime
                pass
        self._thread.join(timeout)

    def __enter__(self) -> "FrontThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def exchange(
    address: Address,
    method: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 300.0,
    connect_timeout: Optional[float] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP/1.1 exchange; returns ``(status, headers, raw body)``.

    Response header names are lower-cased.  ``connect_timeout`` bounds
    the connect (default: ``timeout``), ``timeout`` each read.  Reads the
    head, then exactly ``Content-Length`` body bytes and never to EOF:
    solver worker processes forked mid-request inherit the server's
    accepted socket, so the connection only sees FIN when those
    (long-lived) workers exit — read-to-EOF would hang forever.
    """
    host, port = address
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port),
        timeout=timeout if connect_timeout is None else connect_timeout,
    )
    try:
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + extra
            + "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        head_blob = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=timeout
        )
        lines = head_blob[:-4].decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        resp_headers = _header_dict(lines[1:])
        length = int(resp_headers.get("content-length", "0") or "0")
        blob = (
            await asyncio.wait_for(reader.readexactly(length), timeout=timeout)
            if length else b""
        )
        return status, resp_headers, blob
    finally:
        writer.close()


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    timeout: float = 300.0,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Any]:
    """One JSON exchange; returns ``(status, parsed JSON or text)``.

    ``headers`` adds extra request headers — e.g. ``traceparent`` to join
    the request to a caller-side trace.
    """
    blob = json.dumps(body).encode("utf-8") if body is not None else b""
    status, resp_headers, payload = await exchange(
        (host, port), method, path, blob, headers, timeout
    )
    text = payload.decode("utf-8", errors="replace")
    content_type = resp_headers.get("content-type", "")
    if content_type.startswith(JSON_CONTENT_TYPE) and text.strip():
        return status, json.loads(text)
    return status, text
