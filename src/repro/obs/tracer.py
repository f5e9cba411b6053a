"""Nestable tracing spans with trace contexts and JSON-lines export.

A span records ``(id, parent, trace_id, name, attrs, start, end, wall,
pid)``.  Nesting is tracked per thread: entering a span pushes it on a
thread-local stack, so a span opened while another is active records that
span as its parent.  Span ids are 16 hex characters embedding the process
id and a per-process sequence (``"%08x%08x" % (pid, seq)``), which makes
ids from fabric worker processes collision-free when their buffers
are merged back into the parent (:mod:`repro.obs.collect`) and keeps them
valid W3C ``traceparent`` parent-ids.

Cross-process propagation uses an explicit :class:`TraceContext` — a
W3C-style ``(trace_id, span_id)`` pair.  The serving tier derives one per
HTTP request (from an incoming ``traceparent`` header or freshly minted),
ships it over the dist wire protocol, and the worker
:func:`attach`-es it so its first span parents under the remote caller:

    ctx = tracer.current_context()          # coordinator, inside a span
    ... ship ctx.to_dict() across the process boundary ...
    tracer.attach(TraceContext.from_dict(d))  # worker
    with tracer.span("engine.leaf"):          # parents under the shipped span
        ...

``start``/``end`` are ``time.perf_counter()`` values (per-process epoch,
good for durations); ``wall`` is ``time.time()`` at span start so traces
from different processes can be aligned on one waterfall.

Tracing is disabled by default.  The disabled :func:`span` call is a single
module-global check returning a shared no-op context manager — no span
object is allocated — so call sites may stay in hot loops permanently.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

_enabled = False
_lock = threading.Lock()
_buffer: List[Dict[str, Any]] = []
_seq = itertools.count(1)
_local = threading.local()
# Bumped (under _lock) by reset().  Each thread lazily clears its nesting
# stack and attached context when it notices its recorded epoch is stale,
# so spans left behind by another thread cannot leak into new traces.
_epoch = 0

_ZERO_SPAN_ID = "0" * 16
_HEX_DIGITS = set("0123456789abcdef")


class TraceContext:
    """An explicit W3C-style ``(trace_id, span_id)`` propagation context.

    ``trace_id`` is 32 lowercase hex characters identifying one request (or
    one run); ``span_id`` is the id of the span the next child should
    parent under, or ``None`` when only the trace identity is known (e.g.
    tracing disabled on the emitting side).
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: Optional[str], span_id: Optional[str] = None):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
        )

    def to_dict(self) -> Dict[str, Optional[str]]:
        """Wire form for dist frames / pool payloads."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: Any) -> Optional["TraceContext"]:
        if not isinstance(data, dict) or not data.get("trace_id"):
            return None
        return cls(data["trace_id"], data.get("span_id"))

    def to_traceparent(self) -> str:
        """W3C ``traceparent`` header value (version 00, sampled)."""
        return f"00-{self.trace_id}-{self.span_id or _ZERO_SPAN_ID}-01"

    @classmethod
    def from_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` if absent or malformed."""
        if not header:
            return None
        parts = header.strip().lower().split("-")
        if len(parts) < 4:
            return None
        version, trace_id, span_id = parts[0], parts[1], parts[2]
        if version == "ff" or len(version) != 2:
            return None
        if len(trace_id) != 32 or not set(trace_id) <= _HEX_DIGITS:
            return None
        if len(span_id) != 16 or not set(span_id) <= _HEX_DIGITS:
            return None
        if trace_id == "0" * 32:
            return None
        if span_id == _ZERO_SPAN_ID:
            span_id = None
        return cls(trace_id, span_id)


def new_trace_id() -> str:
    """A fresh random 32-hex trace id (one per request or run)."""
    return os.urandom(16).hex()


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn tracing off and clear the buffer and nesting state."""
    global _enabled
    _enabled = False
    reset()


def is_enabled() -> bool:
    return _enabled


def reset() -> None:
    """Clear the span buffer and every thread's nesting state.

    Also the first thing a long-lived pool/dist worker does before each
    task: with the ``fork`` start method the child inherits the parent's
    buffer, and without a reset the parent's spans would be returned
    (duplicated) in the worker payload.

    The id sequence deliberately survives a reset.  Persistent workers
    reset once per task, and restarting the sequence would mint the same
    ``pid+seq`` span ids for every task — colliding when the coordinator
    assembles the merged trace.  Instead of touching only the calling
    thread's stack the global epoch is bumped under ``_lock``: other
    threads' stale stacks and attached contexts self-heal on their next
    tracer call.
    """
    global _epoch
    with _lock:
        _buffer.clear()
        _epoch += 1


def _state() -> threading.local:
    """The calling thread's tracer state, healed across :func:`reset`."""
    if getattr(_local, "epoch", None) != _epoch:
        _local.stack = []
        _local.ctx = None
        _local.epoch = _epoch
    return _local


def attach(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Attach a remote context to this thread; returns the previous one.

    While attached, the next root span opened on this thread records
    ``ctx.span_id`` as its parent and ``ctx.trace_id`` as its trace —
    this is how a worker span parents correctly under a span from another
    process.  Restore the returned token with :func:`detach`.
    """
    state = _state()
    previous = state.ctx
    state.ctx = ctx
    return previous


def detach(token: Optional[TraceContext]) -> None:
    """Restore the context previously returned by :func:`attach`."""
    _state().ctx = token


def current_context() -> Optional[TraceContext]:
    """The context a remote child should parent under, from this thread.

    Inside a span this is ``(that span's trace_id, that span's id)``;
    otherwise it is the attached context, if any.
    """
    state = _state()
    if state.stack:
        top = state.stack[-1]
        return TraceContext(top.trace_id, top.id)
    return state.ctx


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    id = None
    trace_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def finish(self, error_type: Optional[str] = None) -> None:
        pass


_NOOP = _NoopSpan()


class Span:
    """One live span; records itself into the buffer on exit/finish."""

    __slots__ = ("id", "parent", "trace_id", "name", "attrs", "start", "end",
                 "wall")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.id = f"{os.getpid() & 0xFFFFFFFF:08x}{next(_seq) & 0xFFFFFFFF:08x}"
        self.parent: Optional[str] = None
        self.trace_id: Optional[str] = None
        self.start = 0.0
        self.end = 0.0
        self.wall = 0.0

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def _inherit(self, state: threading.local) -> None:
        if state.stack:
            top = state.stack[-1]
            self.parent = top.id
            self.trace_id = top.trace_id
        elif state.ctx is not None:
            self.parent = state.ctx.span_id
            self.trace_id = state.ctx.trace_id

    def _record(self, error_type: Optional[str]) -> None:
        record = {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "dur": self.end - self.start,
            "wall": self.wall,
            "pid": os.getpid(),
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if error_type is not None:
            record["error"] = True
            record["error_type"] = error_type
        if self.attrs:
            record["attrs"] = self.attrs
        with _lock:
            _buffer.append(record)

    def __enter__(self) -> "Span":
        state = _state()
        self._inherit(state)
        state.stack.append(self)
        self.wall = time.time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        stack = _state().stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            # Self-heal: spans above ours were abandoned without exiting
            # (e.g. a generator dropped mid-span) — pop them with ours so
            # they cannot become parents of unrelated future spans.
            del stack[stack.index(self):]
        self._record(exc_type.__name__ if exc_type is not None else None)
        return False

    def finish(self, error_type: Optional[str] = None) -> None:
        """Close a detached span created by :func:`start_span`."""
        self.end = time.perf_counter()
        self._record(error_type)


def span(name: str, **attrs: Any):
    """Open a span (context manager); a shared no-op when disabled."""
    if not _enabled:
        return _NOOP
    return Span(name, attrs)


def start_span(name: str, ctx: Optional[TraceContext] = None,
               **attrs: Any) -> Optional[Span]:
    """Start a *detached* span: never touches the thread's nesting stack.

    For code that holds a span across ``await`` points (the asyncio serve
    handler), where with-statement nesting on a thread-local stack would
    interleave concurrent requests.  Parents under ``ctx`` when given,
    else under the thread's current span/context.  Close it with
    :meth:`Span.finish`.  Returns ``None`` while tracing is disabled.
    """
    if not _enabled:
        return None
    s = Span(name, attrs)
    if ctx is not None:
        s.parent = ctx.span_id
        s.trace_id = ctx.trace_id
    else:
        s._inherit(_state())
    s.wall = time.time()
    s.start = time.perf_counter()
    return s


def current_span_id() -> Optional[str]:
    """Id of the innermost active span on this thread, if any."""
    stack = _state().stack
    return stack[-1].id if stack else None


def snapshot() -> List[Dict[str, Any]]:
    """A copy of the recorded spans (completion order)."""
    with _lock:
        return list(_buffer)


def drain() -> List[Dict[str, Any]]:
    """Return the recorded spans and clear the buffer."""
    with _lock:
        out = list(_buffer)
        _buffer.clear()
    return out


def extend(spans: List[Dict[str, Any]]) -> None:
    """Append externally captured span records (worker merge)."""
    with _lock:
        _buffer.extend(spans)


def export_jsonl(path: str) -> int:
    """Write the buffer as JSON-lines; returns the number of spans."""
    spans = snapshot()
    with open(path, "w", encoding="utf-8") as fh:
        for record in spans:
            fh.write(json.dumps(record, sort_keys=True, default=str))
            fh.write("\n")
    return len(spans)
