"""The fabric's wire protocol: length-prefixed JSON frames.

One frame is::

    +----------------+---------------------------+
    | 4 bytes, BE    | ``length`` bytes of UTF-8 |
    | frame length   | JSON (one object)         |
    +----------------+---------------------------+

The JSON object always carries a ``"v"`` protocol version and a
``"type"`` discriminator; binary payloads (pickled
:class:`~repro.core.problem.PartitionProblem` instances, solver results,
telemetry) ride inside the envelope as a base64 string under
``"payload"`` — JSON stays the single framing/metadata format while the
numeric payloads keep their efficient native serialization.

Frames travel over :mod:`multiprocessing.connection` ``Connection``
objects — an OS pipe for the in-process workers the engine spawns, or an
authenticated TCP connection for ``repro dist-worker --connect`` — so
the coordinator code is transport-agnostic.  ``Connection.send_bytes``
is message-oriented and would frame for us on a pipe, but the explicit
length prefix makes frames self-describing on *any* byte stream and lets
the receiver reject truncated or oversized messages loudly.

Message types (all coordinator<->worker frames):

==============  ==========  ==================================================
type            direction   fields
==============  ==========  ==================================================
``init``        C -> W      ``payload`` = pickled ``(solver, capture_flags)``
``ready``       W -> C      ``worker``, ``pid``
``task``        C -> W      ``map``, ``task``, ``attempt``, ``cost``,
                            ``payload`` = pickled ``(problem, warm_state)``;
                            ``map`` is the coordinator's map serial (task
                            indices restart at 0 on every map); optional
                            ``trace`` = ``{"trace_id", "span_id"}`` — the
                            coordinator's trace context, carried in the
                            JSON envelope (not the cached pickled payload)
                            so retries and steals re-ship the live context
``result``      W -> C      ``map``, ``task``, ``attempt``,
                            ``solve_seconds``, ``payload`` = pickled
                            ``(result, telemetry, new_warm_state)``
``error``       W -> C      ``map``, ``task``, ``attempt``, ``message``
``heartbeat``   W -> C      ``worker``, ``tasks_done``
``shutdown``    C -> W      --
``bye``         W -> C      ``worker``
==============  ==========  ==================================================
"""

from __future__ import annotations

import base64
import json
import pickle
import struct
from typing import Any, Dict, Optional

PROTOCOL_VERSION = "repro.dist/v2"

# 64 MiB: far above any leaf problem, far below a runaway payload.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ValueError):
    """A malformed, truncated, oversized, or foreign-version frame."""


# -- frame codec -------------------------------------------------------------


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message object -> length-prefixed JSON frame bytes."""
    message = dict(message)
    message.setdefault("v", PROTOCOL_VERSION)
    blob = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(blob)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(blob)) + blob


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Length-prefixed frame bytes -> message object (validates hard)."""
    if len(data) < _LENGTH.size:
        raise ProtocolError(f"frame shorter than its length prefix ({len(data)}B)")
    (length,) = _LENGTH.unpack(data[: _LENGTH.size])
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    body = data[_LENGTH.size:]
    if len(body) != length:
        raise ProtocolError(
            f"frame body is {len(body)} bytes but the prefix declared {length}"
        )
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid UTF-8 JSON: {exc}")
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame must decode to an object with a 'type'")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"frame version {version!r} is not {PROTOCOL_VERSION!r}"
        )
    return message


# -- payload codec -----------------------------------------------------------


def pack_payload(obj: Any) -> str:
    """Arbitrary picklable object -> base64 payload string."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_payload(payload: str) -> Any:
    try:
        return pickle.loads(base64.b64decode(payload.encode("ascii")))
    except Exception as exc:  # corrupted payloads must not kill the peer loop
        raise ProtocolError(f"undecodable payload: {type(exc).__name__}: {exc}")


# -- connection helpers ------------------------------------------------------


def send_message(conn, message: Dict[str, Any]) -> None:
    """Encode and ship one frame over a ``Connection``."""
    conn.send_bytes(encode_frame(message))


def recv_message(conn, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
    """Receive one frame; ``None`` when ``timeout`` elapses with no data.

    Raises :class:`EOFError` on a closed connection and
    :class:`ProtocolError` on an undecodable frame.
    """
    if timeout is not None and not conn.poll(timeout):
        return None
    return decode_frame(conn.recv_bytes())
