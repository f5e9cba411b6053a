"""The coordinator: dynamic, fault-tolerant scheduling of leaf solves.

Every leaf backend answers one call, ``solve_many(problems, leaf_mask)``,
with one ``(x_values, info, seconds, telemetry)`` entry per solved leaf.
This module holds two of them: :class:`InlineLeafSolver`, the in-process
loop, and :class:`DistFabric`, which spreads the solves over worker
processes with a scheduler:

- **cost-ordered dispatch** — tasks are heaped by an estimated cost
  (segment count x candidate-layer count, see :func:`task_cost`) and
  dealt largest-first into per-worker queues, so the biggest leaves start
  earliest and cannot become end-of-run stragglers;
- **work stealing** — a worker that drains its own queue steals the
  smallest task from the back of the longest remaining queue, so one
  slow worker cannot strand its backlog;
- **liveness** — local workers are watched through their process
  sentinels, remote ones through heartbeats; a crashed worker's tasks
  are re-dispatched (``dist.retries``) with exponential backoff and the
  worker is replaced (``dist.worker_restarts``), up to configured caps;
- **straggler speculation** — an attempt running far past the median
  completed attempt is duplicated onto an idle worker
  (``dist.stragglers``); the first result wins and late duplicates are
  dropped, including those that finish after their map returned (every
  dispatch carries its map serial).  Leaf solves are deterministic
  functions of the problem (the warm-start caches provably do not change
  results — see tests/test_engine_reuse.py), so *which* attempt wins
  cannot change the assignment: output stays bit-identical to the
  single-attempt run.

Scheduling state lives entirely in the coordinator thread; worker I/O is
multiplexed with :func:`multiprocessing.connection.wait`, so there are
no coordinator-side locks to misorder results.  Results come back in task
order, which is what keeps the engine's post-mapping (and therefore the
final assignment digest) independent of scheduling.

Catastrophic failure (a task exhausting its attempts, every worker lost,
a protocol error) permanently downgrades the fabric: this and every later
``solve_many`` runs on :class:`InlineLeafSolver`, and the failure is
logged and counted (``engine.pool_failures`` plus ``dist.failures``).
"""

from __future__ import annotations

import atexit
import heapq
import itertools
import multiprocessing
import os
import statistics
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Listener, wait as mp_wait
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.dist import protocol
from repro.obs import convergence, metrics, tracer
from repro.utils import get_logger

log = get_logger(__name__)


def task_cost(problem) -> float:
    """Cost-model estimate of one leaf: segment count x layer count.

    The SDP matrix order (and hence ADMM eigendecomposition cost) grows
    with the total number of assignment variables, which is the sum of
    candidate-layer counts over the leaf's segments; pair terms add a
    little more work.  Objects without the :class:`PartitionProblem`
    shape (test doubles) may advertise a ``cost_hint`` instead.
    """
    seg_vars = getattr(problem, "vars", None)
    if seg_vars is None:
        return float(getattr(problem, "cost_hint", 1.0))
    return float(
        sum(len(var.layers) for var in seg_vars)
        + len(getattr(problem, "pairs", ()))
    )


class InlineLeafSolver:
    """The in-process leaf backend: one solve at a time in this process.

    Serves ``--exec seq``, the default Gauss-Seidel schedule (the engine
    hands it one leaf per call), and a broken :class:`DistFabric`.  It
    solves with the solver's own warm-start store, the store the fabric
    ships its state from, so its results equal the fabric's.
    """

    def __init__(self, solver) -> None:
        self._solver = solver

    def solve_many(self, problems, leaf_mask=None) -> list:
        """Solve ``problems`` (those ``leaf_mask`` indexes, if given).

        Returns one ``(x_values, info, seconds, None)`` per solved problem
        in input order; masked-out positions are ``None``.
        """
        results: list = [None] * len(problems)
        for index in range(len(problems)) if leaf_mask is None else leaf_mask:
            problem = problems[index]
            started = time.perf_counter()
            with tracer.span("engine.leaf", segments=problem.num_vars):
                x_values, info = self._solver.solve(problem)
            results[index] = (
                x_values, info, time.perf_counter() - started, None
            )
        return results

    def close(self) -> None:
        """Nothing to release — the backend is in-process."""


@dataclass
class DistFabricConfig:
    """Scheduler knobs (all tunable; defaults documented in
    docs/DISTRIBUTED.md)."""

    # Hard per-attempt ceiling: an attempt running longer is declared
    # hung, its worker is killed, and the task is re-dispatched.
    task_timeout: float = 300.0
    # Worker -> coordinator heartbeat cadence, and how long silence is
    # tolerated before a worker (remote ones have no sentinel) is lost.
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 15.0
    # Total attempts per task before the fabric gives up (and the engine
    # falls back to sequential solving).
    max_attempts: int = 4
    # Exponential backoff between re-dispatches of a failed task.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    # Speculative duplicates: an attempt running straggler_factor x the
    # median completed attempt (and at least straggler_min_seconds) is
    # duplicated onto an idle worker.
    straggler_factor: float = 4.0
    straggler_min_seconds: float = 1.0
    # Crashed local workers are replaced up to this many times per fabric.
    max_worker_restarts: int = 4
    # Optional TCP listener for remote `repro dist-worker --connect`
    # workers; authkey is required when listening.
    listen: Optional[Tuple[str, int]] = None
    authkey: Optional[bytes] = None
    # How long a solve waits for a first ready worker before giving up.
    worker_wait_timeout: float = 60.0


class FabricBroken(RuntimeError):
    """The fabric cannot finish the current map (see module docstring)."""


@dataclass
class _Task:
    index: int
    problem: Any
    cost: float
    # Warm-start state captured from the coordinator's solver when the map
    # began.  It ships inside the payload, so every attempt of this task —
    # any worker, any retry, any speculative duplicate — solves the exact
    # same (problem, warm) pair and returns the identical result.
    warm: Any = None
    new_warm: Any = None  # post-solve state from the accepted result
    payload: Optional[str] = None  # lazily packed, cached across retries
    failures: int = 0
    dispatches: int = 0
    done: bool = False
    result: Any = None
    not_before: float = 0.0
    speculated: bool = False
    running_on: set = field(default_factory=set)


class _Worker:
    """Coordinator-side handle of one worker (local child or remote)."""

    def __init__(self, worker_id, index, conn, process=None):
        self.id = worker_id
        # Display name: remote workers replace it with their self-chosen
        # ``--id`` when the ready frame arrives (self.id stays the stable
        # registry key).
        self.label = worker_id
        self.index = index
        self.conn = conn
        self.process = process
        self.remote = process is None
        self.ready = False
        self.dead = False
        self.queue: Deque[int] = deque()
        # The task index this worker is solving and the map it belongs to:
        # a speculative duplicate can outlive its map, and its index then
        # names a different task of the next one.
        self.inflight: Optional[int] = None
        self.inflight_map = 0
        self.dispatched_at = 0.0
        self.last_seen = time.monotonic()
        self.busy_seconds = 0.0
        self.tasks_done = 0

    @property
    def idle(self) -> bool:
        return self.ready and not self.dead and self.inflight is None


_LIVE_FABRICS: "weakref.WeakSet[DistFabric]" = weakref.WeakSet()


@atexit.register
def _close_leaked_fabrics() -> None:  # pragma: no cover - exit-time guard
    for fabric in list(_LIVE_FABRICS):
        fabric.close()


class DistFabric:
    """Coordinator for dynamic leaf-solve scheduling (see module docstring)."""

    def __init__(
        self,
        workers: int,
        solver,
        config: Optional[DistFabricConfig] = None,
    ) -> None:
        self.workers = workers
        self.config = config or DistFabricConfig()
        if self.config.listen is not None and self.config.authkey is None:
            raise ValueError("a TCP listener requires an authkey")
        if workers < 1 and self.config.listen is None:
            raise ValueError("need local workers or a listener")
        self._solver = solver
        self._broken = False
        self._started = False
        self._init_payload: Optional[str] = None
        self._workers: Dict[str, _Worker] = {}
        self._serial = itertools.count()
        self._map_serial = 0  # tags every dispatch with the map it serves
        self._restarts_left = self.config.max_worker_restarts
        self._listener: Optional[Listener] = None
        self._accepted: List[Any] = []
        self._accept_lock = threading.Lock()
        self._accept_thread: Optional[threading.Thread] = None
        self._durations: List[float] = []  # completed attempt seconds
        self.stats: Dict[str, Any] = {
            "tasks": 0, "retries": 0, "steals": 0, "stragglers": 0,
            "worker_restarts": 0, "late_results": 0, "failures": 0,
            "maps": 0, "utilization": {},
        }
        _LIVE_FABRICS.add(self)

    # -- public API (the leaf backend contract) ---------------------------

    def solve_many(self, problems, leaf_mask=None) -> list:
        """Solve ``problems`` (those ``leaf_mask`` indexes, if given).

        Returns one ``(x_values, info, seconds, telemetry)`` per solved
        problem in input order, ``seconds`` being the worker's solve time;
        masked-out positions are ``None``.  Only the solved problems are
        scheduled, and an empty selection spawns no worker.  If the
        fabric breaks, this call and every later one are solved by
        :class:`InlineLeafSolver` from the same warm-start store.
        """
        indices = (
            range(len(problems)) if leaf_mask is None else list(leaf_mask)
        )
        selected = [problems[i] for i in indices]
        if not selected:
            return [None] * len(problems)
        if not self._broken:
            try:
                self._ensure_started()
                with tracer.span("dist.map", tasks=len(selected)):
                    solved = self._run(selected)
            except Exception as exc:
                log.warning(
                    "dist fabric failed (%s: %s); continuing with "
                    "in-process solves", type(exc).__name__, exc,
                )
                metrics.inc("engine.pool_failures")
                metrics.inc("dist.failures")
                self.stats["failures"] += 1
                self._broken = True
                self.close()
        if self._broken:
            return InlineLeafSolver(self._solver).solve_many(
                problems, leaf_mask
            )
        results: list = [None] * len(problems)
        for index, result in zip(indices, solved):
            results[index] = result
        return results

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for worker in list(self._workers.values()):
            self._shutdown_worker(worker)
        self._workers.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        # Remote conns accepted but never adopted into a map would leave
        # their worker blocked on the init frame forever — hang up instead.
        with self._accept_lock:
            pending, self._accepted = self._accepted, []
        for conn in pending:
            try:
                conn.close()
            except OSError:
                pass
        self._started = False

    def __enter__(self) -> "DistFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats_snapshot(self) -> Dict[str, Any]:
        """Scheduler counters for the run ledger (plain JSON-able dict)."""
        snapshot = dict(self.stats)
        snapshot["utilization"] = dict(self.stats["utilization"])
        snapshot["backend"] = "dist"
        snapshot["workers"] = self.workers
        return snapshot

    # -- worker lifecycle -------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        capture = (
            tracer.is_enabled(), metrics.is_enabled(), convergence.is_enabled(),
        )
        self._init_payload = protocol.pack_payload((self._solver, capture))
        for _ in range(self.workers):
            self._spawn_worker()
        if self.config.listen is not None:
            self._listener = Listener(
                self.config.listen, authkey=self.config.authkey
            )
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="dist-accept", daemon=True
            )
            self._accept_thread.start()
        self._started = True

    @property
    def listen_address(self) -> Optional[Tuple[str, int]]:
        """Actual listener address (resolves a requested port of 0)."""
        if self._listener is None:
            return None
        return self._listener.address

    def _spawn_worker(self) -> _Worker:
        from repro.dist.worker import worker_main

        index = next(self._serial)
        worker_id = f"w{index}"
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, index),
            name=f"dist-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # our copy; the child holds the real end
        worker = _Worker(worker_id, index, parent_conn, process)
        protocol.send_message(parent_conn, {
            "type": "init", "payload": self._init_payload,
        })
        self._workers[worker_id] = worker
        return worker

    def _accept_loop(self) -> None:  # runs on the accept thread
        while self._listener is not None:
            try:
                conn = self._listener.accept()
            except (OSError, EOFError, multiprocessing.AuthenticationError):
                if self._listener is None:
                    return
                continue
            with self._accept_lock:
                self._accepted.append(conn)

    def _adopt_remote_workers(self) -> None:
        with self._accept_lock:
            conns, self._accepted = self._accepted, []
        for conn in conns:
            index = next(self._serial)
            worker = _Worker(f"r{index}", index, conn, process=None)
            try:
                protocol.send_message(conn, {
                    "type": "init", "payload": self._init_payload,
                })
            except (OSError, ValueError):
                continue
            self._workers[worker.id] = worker
            log.info("adopted remote worker %s", worker.id)

    def _shutdown_worker(self, worker: _Worker) -> None:
        if not worker.dead:
            try:
                protocol.send_message(worker.conn, {"type": "shutdown"})
            except (OSError, ValueError):
                pass
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process is not None:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():  # pragma: no cover - last resort
                    worker.process.kill()
                    worker.process.join(timeout=2.0)
        worker.dead = True

    # -- scheduling -------------------------------------------------------

    def _run(self, problems) -> list:
        cfg = self.config
        managed = hasattr(self._solver, "export_warm") and hasattr(
            self._solver, "import_warm"
        )
        tasks = [
            _Task(
                index=i, problem=p, cost=task_cost(p),
                warm=self._solver.export_warm(p) if managed else None,
            )
            for i, p in enumerate(problems)
        ]
        self._map_serial += 1
        self.stats["tasks"] += len(tasks)
        self.stats["maps"] += 1
        metrics.inc("dist.tasks", len(tasks))
        retry_heap: List[Tuple[float, float, int]] = []  # (not_before, -cost, idx)
        started = time.monotonic()
        for worker in self._workers.values():
            worker.queue.clear()
            worker.busy_seconds = 0.0
        self._deal_queues(tasks)

        completed = 0
        while completed < len(tasks):
            now = time.monotonic()
            self._adopt_remote_workers()
            self._dispatch_idle(tasks, retry_heap, now)
            self._await_first_worker(started, now)
            timeout = self._wait_timeout(tasks, retry_heap, now)
            for event in mp_wait(self._wait_handles(), timeout):
                worker = self._worker_for_event(event)
                if worker is None or worker.dead:
                    continue
                if event is worker.conn:
                    completed += self._drain_worker(worker, tasks, retry_heap)
                else:  # process sentinel: the child died
                    self._lose_worker(
                        worker, tasks, retry_heap, "process exited"
                    )
            completed += self._reap_timeouts(tasks, retry_heap)
        self._finish_map(started)
        # Advance the authoritative warm store in task order — the same
        # order InlineLeafSolver would.
        if managed:
            for task in tasks:
                self._solver.import_warm(task.problem, task.new_warm)
        return [t.result for t in tasks]

    def _deal_queues(self, tasks: List[_Task]) -> None:
        """Largest-first heap, dealt round-robin into per-worker queues."""
        heap = [(-t.cost, t.index) for t in tasks]
        heapq.heapify(heap)
        targets = [w for w in self._workers.values() if not w.dead]
        if not targets:
            return
        i = 0
        while heap:
            _, index = heapq.heappop(heap)
            targets[i % len(targets)].queue.append(index)
            i += 1

    def _wait_handles(self) -> list:
        handles = []
        for worker in self._workers.values():
            if worker.dead:
                continue
            handles.append(worker.conn)
            if worker.process is not None:
                handles.append(worker.process.sentinel)
        return handles

    def _worker_for_event(self, event) -> Optional[_Worker]:
        for worker in self._workers.values():
            if event is worker.conn or (
                worker.process is not None
                and event == worker.process.sentinel
            ):
                return worker
        return None

    def _wait_timeout(
        self, tasks: List[_Task], retry_heap, now: float
    ) -> float:
        deadline = now + min(1.0, self.config.heartbeat_timeout / 2)
        for worker in self._workers.values():
            if worker.dead or worker.inflight is None:
                continue
            deadline = min(
                deadline, worker.dispatched_at + self.config.task_timeout
            )
        if retry_heap:
            deadline = min(deadline, retry_heap[0][0])
        return max(0.05, deadline - now)

    def _await_first_worker(self, started: float, now: float) -> None:
        if any(w.ready and not w.dead for w in self._workers.values()):
            return
        if any(not w.dead for w in self._workers.values()):
            if now - started < self.config.worker_wait_timeout:
                return
        else:
            raise FabricBroken("no live workers and restarts exhausted")
        if now - started >= self.config.worker_wait_timeout:
            raise FabricBroken(
                f"no worker became ready within "
                f"{self.config.worker_wait_timeout:.0f}s"
            )

    # -- dispatch ---------------------------------------------------------

    def _dispatch_idle(self, tasks, retry_heap, now: float) -> None:
        for worker in list(self._workers.values()):
            if not worker.idle:
                continue
            index = self._pick_task(worker, tasks, retry_heap, now)
            if index is None:
                continue
            if not self._send_task(worker, tasks[index], now):
                # The send found the worker dead: redistribute its queue
                # and put the undelivered task back in front of everyone.
                heapq.heappush(
                    retry_heap, (0.0, -tasks[index].cost, index)
                )
                self._lose_worker(worker, tasks, retry_heap, "send failed")

    def _pick_task(self, worker, tasks, retry_heap, now) -> Optional[int]:
        # 1. a retried task whose backoff elapsed;
        while retry_heap and retry_heap[0][0] <= now:
            _, _, index = heapq.heappop(retry_heap)
            if not tasks[index].done:
                return index
        # 2. the worker's own queue, largest-first;
        while worker.queue:
            index = worker.queue.popleft()
            if not tasks[index].done:
                return index
        # 3. steal the smallest task off the back of the longest queue;
        victim = max(
            (w for w in self._workers.values() if not w.dead and w.queue),
            key=lambda w: len(w.queue),
            default=None,
        )
        if victim is not None and victim is not worker:
            while victim.queue:
                index = victim.queue.pop()
                if not tasks[index].done:
                    self.stats["steals"] += 1
                    metrics.inc("dist.steals")
                    return index
        # 4. speculatively duplicate the worst straggler.
        return self._pick_straggler(tasks, now)

    def _pick_straggler(self, tasks, now) -> Optional[int]:
        if not self._durations:
            return None
        median = statistics.median(self._durations)
        threshold = max(
            self.config.straggler_min_seconds,
            self.config.straggler_factor * median,
        )
        worst, worst_elapsed = None, threshold
        for worker in self._workers.values():
            task = None if worker.dead else self._inflight_task(worker, tasks)
            if task is None or task.done or task.speculated:
                continue
            elapsed = now - worker.dispatched_at
            if elapsed >= worst_elapsed:
                worst, worst_elapsed = task, elapsed
        if worst is None:
            return None
        worst.speculated = True
        self.stats["stragglers"] += 1
        metrics.inc("dist.stragglers")
        log.info(
            "speculatively re-dispatching straggler task %d "
            "(running %.1fs, median %.2fs)", worst.index, worst_elapsed, median,
        )
        return worst.index

    def _send_task(self, worker, task: _Task, now: float) -> bool:
        if task.payload is None:
            task.payload = protocol.pack_payload((task.problem, task.warm))
        task.dispatches += 1
        message = {
            "type": "task",
            "map": self._map_serial,
            "task": task.index,
            "attempt": task.dispatches,
            "cost": task.cost,
            "payload": task.payload,
        }
        # The trace context rides in the JSON envelope, not the cached
        # pickled payload, so retried/stolen dispatches re-ship it too.
        ctx = tracer.current_context()
        if ctx is not None:
            message["trace"] = ctx.to_dict()
        try:
            protocol.send_message(worker.conn, message)
        except (OSError, ValueError):
            task.dispatches -= 1
            return False
        worker.inflight = task.index
        worker.inflight_map = self._map_serial
        worker.dispatched_at = now
        task.running_on.add(worker.id)
        return True

    # -- event handling ---------------------------------------------------

    def _drain_worker(self, worker, tasks, retry_heap) -> int:
        """Process every buffered frame of one worker; returns completions."""
        completed = 0
        while True:
            try:
                if not worker.conn.poll(0):
                    return completed
                message = protocol.recv_message(worker.conn)
            except (EOFError, OSError):
                self._lose_worker(worker, tasks, retry_heap, "connection lost")
                return completed
            except protocol.ProtocolError as exc:
                self._lose_worker(
                    worker, tasks, retry_heap, f"protocol error: {exc}"
                )
                return completed
            worker.last_seen = time.monotonic()
            kind = message.get("type")
            if kind == "ready":
                worker.ready = True
                if worker.remote and message.get("worker"):
                    worker.label = str(message["worker"])
                    log.info(
                        "remote worker %s ready as %s", worker.id, worker.label
                    )
            elif kind == "heartbeat":
                pass  # last_seen already refreshed
            elif kind == "result":
                completed += self._on_result(worker, message, tasks)
            elif kind == "error":
                self._on_error(worker, message, tasks, retry_heap)
            elif kind == "bye":
                worker.dead = True
                return completed

    def _inflight_task(self, worker, tasks) -> Optional[_Task]:
        """The current map's task ``worker`` is solving, if any.

        A worker still finishing a duplicate dispatched by an earlier map
        is busy, but its ``inflight`` index does not name a task of this
        map.
        """
        if worker.inflight is None or worker.inflight_map != self._map_serial:
            return None
        return tasks[worker.inflight]

    def _frame_task(self, message, tasks) -> Optional[_Task]:
        """Task a result/error frame answers; None if from an earlier map."""
        if message.get("map") != self._map_serial:
            return None
        return tasks[message["task"]]

    def _on_result(self, worker, message, tasks) -> int:
        # A worker solves one dispatch at a time, so any result frees it.
        if worker.inflight is not None:
            worker.inflight = None
            worker.busy_seconds += time.monotonic() - worker.dispatched_at
            worker.tasks_done += 1
        task = self._frame_task(message, tasks)
        if task is None or task.done:
            # A speculative duplicate lost the race — possibly finishing
            # after its map returned.  Every attempt solves the same
            # (problem, warm) pair, so the dropped result is bit-identical
            # to the one already recorded — dropping it cannot change the
            # output.
            self.stats["late_results"] += 1
            metrics.inc("dist.late_results")
            return 0
        task.done = True
        (x_values, info), telemetry, task.new_warm = protocol.unpack_payload(
            message["payload"]
        )
        task.result = (
            x_values, info, telemetry.phases.get("solve", 0.0), telemetry
        )
        self._durations.append(float(message.get("solve_seconds", 0.0)))
        return 1

    def _on_error(self, worker, message, tasks, retry_heap) -> None:
        worker.inflight = None
        task = self._frame_task(message, tasks)
        if task is None or task.done:
            return
        self._requeue(
            task, retry_heap,
            f"worker {worker.id} error: {message.get('message')}",
        )

    def _lose_worker(self, worker, tasks, retry_heap, reason: str) -> None:
        if worker.dead:
            return
        log.warning("lost dist worker %s (%s)", worker.id, reason)
        worker.dead = True
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process is not None:
            worker.process.join(timeout=0.5)
        task = self._inflight_task(worker, tasks)
        worker.inflight = None
        if task is not None and not task.done:
            self._requeue(task, retry_heap, f"worker {worker.id} died")
        # Orphaned queue entries go back to the living.
        orphans = [i for i in worker.queue if not tasks[i].done]
        worker.queue.clear()
        survivors = [
            w for w in self._workers.values() if not w.dead
        ]
        for pos, index in enumerate(orphans):
            if survivors:
                survivors[pos % len(survivors)].queue.append(index)
            else:
                heapq.heappush(
                    retry_heap, (0.0, -tasks[index].cost, index)
                )
        if worker.process is not None and self._restarts_left > 0:
            self._restarts_left -= 1
            self.stats["worker_restarts"] += 1
            metrics.inc("dist.worker_restarts")
            replacement = self._spawn_worker()
            log.info(
                "respawned dist worker %s -> %s", worker.id, replacement.id
            )

    def _requeue(self, task: _Task, retry_heap, reason: str) -> None:
        task.failures += 1
        if task.failures >= self.config.max_attempts:
            raise FabricBroken(
                f"task {task.index} failed {task.failures} attempts "
                f"(last: {reason})"
            )
        backoff = self.config.backoff_base * (
            self.config.backoff_factor ** (task.failures - 1)
        )
        task.not_before = time.monotonic() + backoff
        heapq.heappush(retry_heap, (task.not_before, -task.cost, task.index))
        self.stats["retries"] += 1
        metrics.inc("dist.retries")
        log.warning(
            "re-dispatching task %d in %.2fs (attempt %d; %s)",
            task.index, backoff, task.failures + 1, reason,
        )

    def _reap_timeouts(self, tasks, retry_heap) -> int:
        """Kill hung workers; lose silent ones.  Returns 0 (completions
        only come from result frames) — kept as an int for symmetry."""
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.dead:
                continue
            if (
                worker.inflight is not None
                and now - worker.dispatched_at > self.config.task_timeout
            ):
                if worker.process is not None:
                    worker.process.terminate()
                self._lose_worker(
                    worker, tasks, retry_heap,
                    f"task {worker.inflight} exceeded the "
                    f"{self.config.task_timeout:.0f}s timeout",
                )
                continue
            if (
                worker.ready
                and now - worker.last_seen > self.config.heartbeat_timeout
            ):
                if worker.process is not None and worker.process.is_alive():
                    # A local child with a live process is observable via
                    # its sentinel; tolerate missing heartbeats (e.g. a
                    # fully loaded CPU starving the beat thread).
                    continue
                self._lose_worker(
                    worker, tasks, retry_heap, "heartbeat silence"
                )
        return 0

    def _finish_map(self, started: float) -> None:
        wall = max(time.monotonic() - started, 1e-9)
        utilization = {
            w.label: round(min(w.busy_seconds / wall, 1.0), 4)
            for w in self._workers.values()
            if w.tasks_done or not w.dead
        }
        self.stats["utilization"] = utilization
        for worker_id, value in utilization.items():
            metrics.set_gauge(f"dist.worker_utilization.{worker_id}", value)
        metrics.set_gauge(
            "dist.workers_live",
            sum(1 for w in self._workers.values() if not w.dead),
        )
