"""The fabric worker: one resident solver serving leaf tasks over a pipe.

A worker is a plain loop over :mod:`repro.dist.protocol` frames — it does
not care whether its connection is an OS pipe (the in-process workers the
coordinator spawns) or an authenticated TCP socket (``repro dist-worker
--connect host:port``).  The first frame must be ``init``: it carries the
pickled solver (shipped once per worker, not per task) plus the
observability capture flags; the solver stays resident across
tasks, while each task ships its own ADMM warm-start state from the
coordinator's authoritative store (see :func:`solve_task`) so results
never depend on which worker serves which task.

A daemon thread emits ``heartbeat`` frames so the coordinator can tell a
hung solve from a dead host even without a process sentinel (the remote
case).  All sends share one lock — ``Connection`` writes are not atomic
across threads.

Fault injection (tests + the CI ``dist-smoke`` job) is armed through the
``REPRO_DIST_FAULT`` env var, a comma-separated list of specs:

- ``crash:<worker>:<task>`` — SIGKILL ourselves upon receiving our
  ``<task>``-th task (1-based) — a mid-task hard crash;
- ``hang:<worker>:<task>``  — sleep far past any task timeout instead of
  solving — a straggler/hung worker;
- ``initfail:<worker>``     — raise from the init handshake — a worker
  whose initializer is poisoned.

``<worker>`` matches the numeric worker index; replacement workers
spawned after a fault get fresh indices, so an injected fault fires a
bounded number of times and the run still completes.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dist import protocol
from repro.obs import collect, tracer
from repro.utils import WallClock, get_logger

log = get_logger(__name__)

FAULT_ENV = "REPRO_DIST_FAULT"

# A "hang" must outlast any plausible task timeout without leaking a
# sleeping process forever if the coordinator never reaps it.
_HANG_SECONDS = 600.0


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``REPRO_DIST_FAULT`` entry."""

    kind: str  # "crash", "hang", or "initfail"
    worker_index: int
    task_serial: int = 0  # 1-based; 0 for init-time faults


def parse_fault_specs(text: Optional[str]) -> List[FaultSpec]:
    """Parse the env-var hook; malformed specs raise ``ValueError`` loudly."""
    specs: List[FaultSpec] = []
    for chunk in (text or "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        kind = parts[0]
        if kind == "initfail" and len(parts) == 2:
            specs.append(FaultSpec(kind, int(parts[1])))
        elif kind in ("crash", "hang") and len(parts) == 3:
            specs.append(FaultSpec(kind, int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"bad {FAULT_ENV} spec {chunk!r}")
    return specs


class _Heartbeat(threading.Thread):
    """Periodic heartbeat frames, sharing the connection's send lock."""

    def __init__(self, conn, lock, worker_id: str, interval: float) -> None:
        super().__init__(name=f"heartbeat-{worker_id}", daemon=True)
        self._conn = conn
        self._lock = lock
        self._worker_id = worker_id
        self._interval = interval
        self._stop = threading.Event()
        self.tasks_done = 0

    def run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    protocol.send_message(self._conn, {
                        "type": "heartbeat",
                        "worker": self._worker_id,
                        "tasks_done": self.tasks_done,
                    })
            except (OSError, ValueError):
                return  # connection gone; the main loop is exiting too

    def stop(self) -> None:
        self._stop.set()


def solve_task(solver, capture_flags: Tuple[bool, bool, bool], problem, warm=None,
               trace=None):
    """One leaf solve with its telemetry.

    ``warm`` is the coordinator-owned warm-start state shipped with the
    task; it overwrites this worker's resident state before solving, so
    every attempt of a task — on any worker, after any steal or retry —
    computes the identical result.  The post-solve state rides back in
    the result frame for the coordinator's authoritative store.

    ``trace`` is the coordinator's trace context (``TraceContext`` wire
    dict): attaching it after the observability reset makes the worker's
    ``engine.leaf`` span parent directly under the coordinator's
    ``dist.map`` span, across the process (and machine) boundary.
    """
    if any(capture_flags):
        collect.init_worker_observability(*capture_flags)
    if trace is not None and tracer.is_enabled():
        tracer.attach(tracer.TraceContext.from_dict(trace))
    managed = hasattr(solver, "import_warm") and hasattr(solver, "export_warm")
    if managed:
        solver.import_warm(problem, warm)
    clock = WallClock()
    with clock.phase("solve"):
        with tracer.span(
            "engine.leaf", segments=problem.num_vars, worker=True
        ):
            result = solver.solve(problem)
    new_warm = solver.export_warm(problem) if managed else None
    return result, collect.capture_worker_telemetry(clock), new_warm


def serve_connection(
    conn,
    worker_id: str,
    worker_index: int,
    heartbeat_interval: float = 1.0,
) -> None:
    """Run the worker loop until ``shutdown`` or connection loss."""
    faults = parse_fault_specs(os.environ.get(FAULT_ENV))
    mine = [f for f in faults if f.worker_index == worker_index]

    init = protocol.recv_message(conn)
    if init is None or init.get("type") != "init":
        raise protocol.ProtocolError(
            f"worker {worker_id} expected an init frame, got "
            f"{init and init.get('type')!r}"
        )
    if any(f.kind == "initfail" for f in mine):
        raise RuntimeError(
            f"injected initializer failure in worker {worker_id}"
        )
    solver, capture_flags = protocol.unpack_payload(init["payload"])

    send_lock = threading.Lock()
    with send_lock:
        protocol.send_message(conn, {
            "type": "ready", "worker": worker_id, "pid": os.getpid(),
        })
    heartbeat = _Heartbeat(conn, send_lock, worker_id, heartbeat_interval)
    heartbeat.start()
    serial = 0
    try:
        while True:
            try:
                message = protocol.recv_message(conn)
            except EOFError:
                return
            kind = message.get("type")
            if kind == "shutdown":
                with send_lock:
                    protocol.send_message(
                        conn, {"type": "bye", "worker": worker_id}
                    )
                return
            if kind != "task":
                log.warning("worker %s ignoring %r frame", worker_id, kind)
                continue
            serial += 1
            fault = next(
                (f for f in mine if f.task_serial == serial), None
            )
            if fault is not None and fault.kind == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            if fault is not None and fault.kind == "hang":
                time.sleep(_HANG_SECONDS)
            # Echoed in the reply so the coordinator can tell a late
            # duplicate of an earlier map from this map's task of the same
            # index.
            routing = {
                "map": message.get("map"),
                "task": message["task"],
                "attempt": message["attempt"],
                "worker": worker_id,
            }
            started = time.monotonic()
            try:
                problem, warm = protocol.unpack_payload(message["payload"])
                result = solve_task(solver, tuple(capture_flags), problem, warm,
                                    trace=message.get("trace"))
            except Exception as exc:
                with send_lock:
                    protocol.send_message(conn, {
                        "type": "error", **routing,
                        "message": f"{type(exc).__name__}: {exc}",
                    })
                continue
            heartbeat.tasks_done += 1
            with send_lock:
                protocol.send_message(conn, {
                    "type": "result", **routing,
                    "solve_seconds": time.monotonic() - started,
                    "payload": protocol.pack_payload(result),
                })
    finally:
        heartbeat.stop()


def worker_main(conn, worker_id: str, worker_index: int) -> None:
    """Entry point of a coordinator-spawned local worker process."""
    try:
        serve_connection(conn, worker_id, worker_index)
    except (EOFError, OSError):
        pass  # coordinator went away; nothing to report to
    except Exception:
        log.exception("worker %s crashed", worker_id)
        raise
    finally:
        try:
            conn.close()
        except OSError:
            pass


def connect_and_serve(
    host: str, port: int, authkey: bytes, worker_id: Optional[str] = None
) -> None:
    """``repro dist-worker`` body: join a remote coordinator and serve.

    Remote workers carry index ``-1`` so local fault-injection specs never
    match them; the coordinator tracks them purely via heartbeats/EOF.
    """
    from multiprocessing.connection import Client

    worker_id = worker_id or f"remote-{os.getpid()}"
    conn = Client((host, port), authkey=authkey)
    log.info("worker %s connected to %s:%d", worker_id, host, port)
    try:
        serve_connection(conn, worker_id, worker_index=-1)
    except EOFError:
        log.info("worker %s: coordinator hung up", worker_id)
    finally:
        try:
            conn.close()
        except OSError:
            pass
