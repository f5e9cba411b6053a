"""Wire format of the serving layer: assign requests, responses, digests.

One ``POST /v1/assign`` body describes a complete layer-assignment problem
by *reference* — a suite benchmark name plus the knobs that make runs
comparable (scale, critical ratio, method, workers).  The synthetic suite
is deterministic per ``(name, scale)``, so the reference fully determines
the problem instance; the server prepares (or reuses) it and the response
carries the optimized quality numbers plus a canonical digest of the full
layer assignment, so any client can check bit-identity against a local
``repro run`` without shipping megabytes of layers back.

Schemas: ``repro.assign_request/v1`` in, ``repro.assign_response/v1`` out.
Unknown request keys are rejected loudly (a typoed knob silently falling
back to a default would gate the wrong run).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.ispd.benchmark import Benchmark
from repro.ispd.suite import SUITE

REQUEST_SCHEMA = "repro.assign_request/v1"
RESPONSE_SCHEMA = "repro.assign_response/v1"
ECO_REQUEST_SCHEMA = "repro.eco_request/v1"
ECO_RESPONSE_SCHEMA = "repro.eco_response/v1"

METHODS = ("sdp", "ilp", "tila", "tila+flow")

EXEC_BACKENDS = ("pool", "dist", "batch", "seq")

_REQUEST_KEYS = {
    "schema", "benchmark", "scale", "ratio_percent", "method", "workers",
    "exec", "deadline_ms", "return_assignment", "router_rounds",
    "maze_expansion_limit",
}


class RequestError(ValueError):
    """A malformed or out-of-policy assign request (maps to HTTP 400)."""


@dataclass(frozen=True)
class AssignRequest:
    """One layer-assignment job, as posted to ``/v1/assign``.

    ``signature()`` identifies the *problem and solving mode*: requests
    with equal signatures are guaranteed the bit-identical assignment, so
    the engine host keys its resident, and the solved state that answers
    repeats, by it.  ``workers``
    is part of the signature because sequential (Gauss–Seidel) and
    worker-process (Jacobi) solves legitimately produce different — both
    valid — assignments.  ``exec_backend`` (JSON key ``"exec"``) is part of the
    signature too, even though pool, dist, batch, and seq are
    bit-identical on equal snapshots: the resident engine holds the
    backend's live resources, so two backends must never share one
    resident.
    """

    benchmark: str
    scale: float = 1.0
    ratio_percent: float = 0.5
    method: str = "sdp"
    workers: int = 0
    exec_backend: str = "pool"
    deadline_ms: Optional[float] = None
    return_assignment: bool = False
    # Global-router knobs (0 = RouterConfig default).  Part of the
    # signature: they change the prepared routing, hence the problem.
    router_rounds: int = 0
    maze_expansion_limit: int = 0

    @classmethod
    def from_json(cls, payload: Any) -> "AssignRequest":
        """Parse and validate one request body (raises :class:`RequestError`)."""
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        schema = payload.get("schema", REQUEST_SCHEMA)
        if schema != REQUEST_SCHEMA:
            raise RequestError(
                f"schema {schema!r} is not {REQUEST_SCHEMA!r}"
            )
        unknown = sorted(set(payload) - _REQUEST_KEYS)
        if unknown:
            raise RequestError(f"unknown request keys: {unknown}")
        benchmark = payload.get("benchmark")
        if not isinstance(benchmark, str) or benchmark not in SUITE:
            raise RequestError(
                f"benchmark {benchmark!r} is not in the suite "
                f"({', '.join(sorted(SUITE))})"
            )
        method = payload.get("method", "sdp")
        if method not in METHODS:
            raise RequestError(
                f"method {method!r} is not one of {METHODS}"
            )
        scale = _number(payload, "scale", 1.0)
        if not 0 < scale:
            raise RequestError("scale must be > 0")
        ratio = _number(payload, "ratio_percent", 0.5)
        if not 0 < ratio <= 100:
            raise RequestError("ratio_percent must be in (0, 100]")
        workers = payload.get("workers", 0)
        if not isinstance(workers, int) or workers < 0:
            raise RequestError("workers must be a non-negative integer")
        exec_backend = payload.get("exec", "pool")
        if exec_backend not in EXEC_BACKENDS:
            raise RequestError(
                f"exec {exec_backend!r} is not one of {EXEC_BACKENDS}"
            )
        if exec_backend == "batch" and method != "sdp":
            raise RequestError(
                "exec 'batch' requires method 'sdp' "
                "(the batched kernels only cover the SDP solver)"
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            deadline_ms = _number(payload, "deadline_ms", 0.0)
            if deadline_ms <= 0:
                raise RequestError("deadline_ms must be > 0")
        return_assignment = payload.get("return_assignment", False)
        if not isinstance(return_assignment, bool):
            raise RequestError("return_assignment must be a boolean")
        router_rounds = payload.get("router_rounds", 0)
        if not isinstance(router_rounds, int) or isinstance(router_rounds, bool) \
                or router_rounds < 0:
            raise RequestError("router_rounds must be a non-negative integer")
        maze_limit = payload.get("maze_expansion_limit", 0)
        if not isinstance(maze_limit, int) or isinstance(maze_limit, bool) \
                or maze_limit < 0:
            raise RequestError(
                "maze_expansion_limit must be a non-negative integer"
            )
        return cls(
            benchmark=benchmark,
            scale=scale,
            ratio_percent=ratio,
            method=method,
            workers=workers,
            exec_backend=exec_backend,
            deadline_ms=deadline_ms,
            return_assignment=return_assignment,
            router_rounds=router_rounds,
            maze_expansion_limit=maze_limit,
        )

    def signature(self) -> Tuple[str, float, float, str, int, str, int, int]:
        return (
            self.benchmark, self.scale, self.ratio_percent,
            self.method, self.workers, self.exec_backend,
            self.router_rounds, self.maze_expansion_limit,
        )

    def signature_key(self) -> str:
        b, s, r, m, w, x, rr, mel = self.signature()
        key = f"{b}|scale={s:g}|ratio={r:g}|{m}|workers={w}|exec={x}"
        if rr:
            key += f"|router_rounds={rr}"
        if mel:
            key += f"|maze_limit={mel}"
        return key

    def to_json(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "schema": REQUEST_SCHEMA,
            "benchmark": self.benchmark,
            "scale": self.scale,
            "ratio_percent": self.ratio_percent,
            "method": self.method,
            "workers": self.workers,
        }
        if self.exec_backend != "pool":
            body["exec"] = self.exec_backend
        if self.deadline_ms is not None:
            body["deadline_ms"] = self.deadline_ms
        if self.return_assignment:
            body["return_assignment"] = True
        if self.router_rounds:
            body["router_rounds"] = self.router_rounds
        if self.maze_expansion_limit:
            body["maze_expansion_limit"] = self.maze_expansion_limit
        return body


_ECO_ONLY_KEYS = {"edits", "state_epoch"}


@dataclass(frozen=True)
class EcoRequest(AssignRequest):
    """One ECO delta, as posted to ``/v1/eco``.

    The inherited assign fields name the *resident* the delta applies to:
    ``signature()`` is unchanged, so an ECO request routes to (and warms
    up) exactly the resident that a matching ``/v1/assign`` would.  On
    top of that it carries the typed edit set and the ``state_epoch`` the
    client believes the resident is at — a mismatch is a structured 409,
    because an edit computed against epoch N is meaningless against the
    state left behind by someone else's epoch N+1.
    """

    edits: Tuple[Any, ...] = ()
    state_epoch: int = 0

    @classmethod
    def from_json(cls, payload: Any) -> "EcoRequest":
        """Parse and validate one ``/v1/eco`` body (raises :class:`RequestError`)."""
        from repro.eco.edits import EditError, parse_edits

        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        schema = payload.get("schema", ECO_REQUEST_SCHEMA)
        if schema != ECO_REQUEST_SCHEMA:
            raise RequestError(
                f"schema {schema!r} is not {ECO_REQUEST_SCHEMA!r}"
            )
        unknown = sorted(set(payload) - _REQUEST_KEYS - _ECO_ONLY_KEYS)
        if unknown:
            raise RequestError(f"unknown request keys: {unknown}")
        state_epoch = payload.get("state_epoch", 0)
        if isinstance(state_epoch, bool) or not isinstance(state_epoch, int) \
                or state_epoch < 0:
            raise RequestError("state_epoch must be a non-negative integer")
        if "edits" not in payload:
            raise RequestError("eco request requires an 'edits' list")
        try:
            edits = tuple(parse_edits(payload["edits"]))
        except EditError as exc:
            raise RequestError(f"invalid edits: {exc}")
        base_payload = {
            k: v for k, v in payload.items() if k in _REQUEST_KEYS
        }
        base_payload["schema"] = REQUEST_SCHEMA
        base = AssignRequest.from_json(base_payload)
        if base.method not in ("sdp", "ilp"):
            raise RequestError(
                f"method {base.method!r} does not support eco_apply "
                "(the ECO engine re-solves through the CPLA iteration)"
            )
        return cls(
            benchmark=base.benchmark,
            scale=base.scale,
            ratio_percent=base.ratio_percent,
            method=base.method,
            workers=base.workers,
            exec_backend=base.exec_backend,
            deadline_ms=base.deadline_ms,
            return_assignment=base.return_assignment,
            router_rounds=base.router_rounds,
            maze_expansion_limit=base.maze_expansion_limit,
            edits=edits,
            state_epoch=state_epoch,
        )

    def to_json(self) -> Dict[str, Any]:
        from repro.eco.edits import edits_to_json

        body = super().to_json()
        body["schema"] = ECO_REQUEST_SCHEMA
        body["edits"] = edits_to_json(self.edits)
        body["state_epoch"] = self.state_epoch
        return body


def _number(payload: Dict[str, Any], key: str, default: float) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{key} must be a number")
    return float(value)


# -- assignment serialization ------------------------------------------------


def extract_assignment(bench: Benchmark) -> Dict[str, List[int]]:
    """Net id -> per-segment layer list, for every net of the benchmark."""
    return {
        str(net.id): [seg.layer for seg in net.topology.segments]
        for net in bench.nets
    }


def assignment_digest(bench: Benchmark) -> str:
    """Canonical digest of the complete layer assignment.

    Stable across processes: nets sorted by id, segments in topology
    order.  Two solves agree on this digest iff their assignments are
    bit-identical — it is the currency of the serve-vs-run equivalence
    checks.
    """
    h = hashlib.sha256()
    for net in sorted(bench.nets, key=lambda n: n.id):
        h.update(str(net.id).encode("ascii"))
        h.update(b":")
        h.update(
            ",".join(str(seg.layer) for seg in net.topology.segments).encode("ascii")
        )
        h.update(b";")
    return "sha256:" + h.hexdigest()


def build_response(
    request: AssignRequest,
    report: Any,
    digest: str,
    assignment: Optional[Dict[str, List[int]]] = None,
    serving: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``/v1/assign`` success body for one solved request."""
    body: Dict[str, Any] = {
        "schema": RESPONSE_SCHEMA,
        "benchmark": request.benchmark,
        "method": request.method,
        "scale": request.scale,
        "ratio_percent": request.ratio_percent,
        "workers": request.workers,
        "exec": request.exec_backend,
        "quality": {
            "initial_avg_tcp": report.initial_avg_tcp,
            "final_avg_tcp": report.final_avg_tcp,
            "initial_max_tcp": report.initial_max_tcp,
            "final_max_tcp": report.final_max_tcp,
            "initial_via_overflow": report.initial_via_overflow,
            "final_via_overflow": report.final_via_overflow,
            "initial_vias": report.initial_vias,
            "final_vias": report.final_vias,
        },
        "result_class": (
            "overflow" if report.final_via_overflow > 0 else "ok"
        ),
        "released_nets": len(report.critical_net_ids),
        "assignment_digest": digest,
        "runtime_seconds": round(report.runtime, 6),
        "phases": {
            k: round(v, 6) for k, v in sorted(report.clock.totals.items())
        },
    }
    router = getattr(report, "router", None)
    if router:
        body["router"] = router
    if assignment is not None:
        body["assignment"] = assignment
    if serving is not None:
        body["serving"] = serving
    return body


def build_eco_response(
    request: "EcoRequest",
    report: Any,
    assignment: Optional[Dict[str, List[int]]] = None,
    serving: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``/v1/eco`` success body for one applied edit set.

    ``report`` is an :class:`repro.eco.engine.EcoReport`; typed as Any so
    this module stays import-light.
    """
    body: Dict[str, Any] = {
        "schema": ECO_RESPONSE_SCHEMA,
        "benchmark": request.benchmark,
        "method": request.method,
        "scale": request.scale,
        "ratio_percent": request.ratio_percent,
        "workers": request.workers,
        "exec": request.exec_backend,
        "state_epoch": report.epoch,
        "edit_digest": report.edit_digest,
        "num_edits": report.num_edits,
        "edited_nets": report.edited_nets,
        "released_nets": report.released,
        "accepted": report.accepted,
        "dirty": dict(report.dirty),
        "quality": {
            "pre_avg_tcp": report.pre_avg_tcp,
            "pre_max_tcp": report.pre_max_tcp,
            "post_avg_tcp": report.post_avg_tcp,
            "post_max_tcp": report.post_max_tcp,
        },
        "assignment_digest": report.digest,
        "runtime_seconds": round(report.seconds, 6),
    }
    if assignment is not None:
        body["assignment"] = assignment
    if serving is not None:
        body["serving"] = serving
    return body


def error_body(kind: str, message: str, **extra: Any) -> Dict[str, Any]:
    """Structured error payload shared by every non-2xx response."""
    err: Dict[str, Any] = {"type": kind, "message": message}
    err.update(extra)
    return {"schema": RESPONSE_SCHEMA, "error": err}
