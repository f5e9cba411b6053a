"""``serve``: reads beside writes on resident engines, server in its own process.

Set-up starts ``repro serve`` with its defaults (``exec=pool`` with 0
workers, i.e. the Gauss-Seidel path; a 4-resident LRU) and sends one cold
``/v1/assign`` per design.  The timed phase runs two closed-loop clients,
one thread each and one connection at a time each.  Each client owns two of
the four designs and sends them a seeded sequence of ``/v1/assign`` reads
with one ``/v1/eco`` write in four, passing each response's
``state_epoch`` into its next request.  Because no design is shared, the
work per design is the same on every run: no dedup, no 409.

Gate, after the timed phase and with the server stopped: every response
must be 200; every ``/v1/assign`` digest must equal the in-process
one-shot digest of its design (``ResidentEngine.solve`` documents that);
every ``/v1/eco`` digest must equal a cold replay of the edit sets sent to
that design since its last full solve, applied to a copy of the fresh
one-shot state.  Failures of the known defects (a), (b) and (e) listed in
perfbench/README.md are attributed to them and still count as failed.
"""

from __future__ import annotations

import copy
import http.client
import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
import inputs
import tracing
from layers import per_layer_metrics

# (suite name, scale, critical ratio in %); client c owns designs c and c+2.
# A warm assign takes 0.5-0.8 s on each, so the two clients carry similar
# load and the latency distribution has no far-apart modes.  adaptec1 at
# scale 0.1 and ratio 2 is the configuration of defect (a).
DESIGNS: Tuple[Tuple[str, float, float], ...] = (
    ("adaptec1", 0.1, 2.0),
    ("bigblue1", 0.1, 1.0),
    ("adaptec4", 0.05, 1.0),
    ("adaptec2", 0.1, 1.0),
)
CLIENTS = 2
RELEASE_K = 4
# ECO edit kinds in the order each design receives them, design d starting
# at position d: every run sends reroutes, resizes, capacity changes and
# release rounds even though a design gets only a few writes per run.
ECO_KINDS = ("net_resize", "net_reroute", "capacity_change", "release_nets")
# One block per client: three reads and one write on one design; blocks
# alternate between the client's two designs.
BLOCK = ("assign", "assign", "assign", "eco")
# Requests per second of --seconds, rounded up to whole blocks (the server
# answers about two a second on a 2-core x86-64 VM); the request list,
# hence the work, is fixed by seed and seconds.
REQUESTS_PER_SECOND = 2.4
MIN_BLOCKS = 2
# Edits a full solve does not undo (defect (b)).
KEPT_BY_SOLVE = ("net_resize", "capacity_change")


@dataclass
class Op:
    client: int
    design: int
    kind: str  # "assign" or "eco"
    edit_kind: str = ""
    edits: list = field(default_factory=list)


@dataclass
class Reply:
    op: Op
    seconds: float
    status: int
    body: Dict


def request_plan(seed: int, seconds: int) -> List[List[Op]]:
    """Per client, its seeded request sequence."""
    blocks = max(MIN_BLOCKS,
                 math.ceil(seconds * REQUESTS_PER_SECOND / CLIENTS / len(BLOCK)))
    plan = []
    for client in range(CLIENTS):
        rng = random.Random(common.derive_seed("serve", seed, client))
        owned = [d for d in range(len(DESIGNS)) if d % CLIENTS == client]
        cycle_pos = {d: d for d in owned}
        ops: List[Op] = []
        for b in range(blocks):
            design = owned[b % len(owned)]
            name, scale, _ = DESIGNS[design]
            kinds = list(BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "assign":
                    ops.append(Op(client, design, "assign"))
                    continue
                edit_kind = ECO_KINDS[cycle_pos[design] % len(ECO_KINDS)]
                cycle_pos[design] += 1
                edits = inputs.edit_batch(
                    rng, edit_kind, inputs.design_of(name, scale), RELEASE_K
                )
                ops.append(Op(client, design, "eco", edit_kind, edits))
        plan.append(ops)
    return plan


# -- server process ----------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` process (traced through the launcher if asked)."""

    def __init__(self, workdir: Path, tag: str, spans_path: Optional[Path] = None):
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        serve_args = ["--port", str(self.port)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            cmd = [sys.executable, str(launcher), str(spans_path), *serve_args]
        self.log_path = workdir / f"server-{tag}.log"
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(common.ROOT), env=env,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.peak_rss_mb: Optional[float] = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}; see {self.log_path}"
                )
            try:
                status, _ = http_call(self.port, "GET", "/readyz", None, 2.0)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.05)
        raise RuntimeError("server not ready in time")

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait; records the peak RSS first."""
        self.peak_rss_mb = common.peak_rss_mb_of(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._log.close()
        return code


def http_call(port: int, method: str, path: str, body: Optional[Dict],
              timeout: float = 300.0) -> Tuple[int, Dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        blob = json.dumps(body).encode("utf-8") if body is not None else None
        conn.request(method, path, body=blob,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    try:
        payload = json.loads(data) if data else {}
    except ValueError:
        payload = {"raw": data[:200].decode("latin-1")}
    return response.status, payload


def _assign_body(design: int) -> Dict:
    name, scale, ratio = DESIGNS[design]
    return {"benchmark": name, "scale": scale, "ratio_percent": ratio}


def _eco_body(design: int, edits: list, epoch: int) -> Dict:
    from repro.eco.edits import edits_to_json

    return dict(_assign_body(design), schema="repro.eco_request/v1",
                edits=edits_to_json(edits), state_epoch=epoch)


def start_and_warm(workdir: Path, tag: str, spans_path: Optional[Path] = None):
    """Set-up: start a server and send one cold assign per design."""
    server = Server(workdir, tag, spans_path)
    try:
        server.wait_ready()
        for design in range(len(DESIGNS)):
            status, body = http_call(server.port, "POST", "/v1/assign",
                                     _assign_body(design))
            if status != 200:
                raise RuntimeError(f"cold assign of design {design}: {status} {body}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started


def drive(port: int, plan: List[List[Op]], limit: Optional[int] = None):
    """Run every client's closed loop; returns (replies, wall seconds)."""
    replies: List[List[Reply]] = [[] for _ in plan]
    errors: List[Exception] = []

    def client(index: int) -> None:
        epoch: Dict[int, int] = {}
        try:
            for op in plan[index][:limit]:
                body = _assign_body(op.design) if op.kind == "assign" else \
                    _eco_body(op.design, op.edits, epoch.get(op.design, 0))
                path = "/v1/assign" if op.kind == "assign" else "/v1/eco"
                start = time.perf_counter()
                status, payload = http_call(port, "POST", path, body)
                replies[index].append(
                    Reply(op, time.perf_counter() - start, status, payload)
                )
                # A full solve resets the epoch; a 500 discards the resident,
                # whose replacement starts from epoch 0 as well.
                epoch[op.design] = payload.get("state_epoch", 0) \
                    if op.kind == "eco" and status == 200 else 0
        except Exception as exc:  # re-raised by the caller after the join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(plan))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return [r for per_client in replies for r in per_client], wall


# -- gate ----------------------------------------------------------------------


def one_shot_states():
    """Per design: the in-process one-shot engine state and its digest."""
    from repro.core.engine import CPLAConfig, CPLAEngine
    from repro.ispd.request import assignment_digest
    from repro.pipeline import prepare

    states = []
    for name, scale, ratio in DESIGNS:
        bench = prepare(name, scale=scale)
        engine = CPLAEngine(bench, CPLAConfig(critical_ratio=ratio / 100.0))
        engine.run()
        states.append((engine, assignment_digest(bench)))
    return states


def _kept_edit_defect(edited: bool, rerouted: bool) -> Optional[str]:
    """The known defect that explains a digest drift after kept edits."""
    if edited:
        return "b"
    return "e" if rerouted else None


def check(log: common.OpLog, replies: List[Reply], indices: List[int]) -> Dict[str, int]:
    """Check every reply in send order per design; returns gate counts."""
    from repro.eco.engine import EcoEngine

    states = one_shot_states()
    by_design: Dict[int, List[Tuple[int, Reply]]] = {}
    for index, reply in zip(indices, replies):
        by_design.setdefault(reply.op.design, []).append((index, reply))
    counts = {"replays": 0, "assign_checked": 0, "eco_checked": 0}
    for design, items in sorted(by_design.items()):
        fresh_engine, fresh_digest = states[design]
        # What the resident carries: resizes and capacity changes (b) and
        # reroutes (a, e) since it was built, which a full solve does not
        # undo, and the edit sets since its last full solve.
        edited_since_build = rerouted_since_build = False
        edited_before_solve = rerouted_before_solve = False
        chain_engine = None
        chain_eco = None
        for index, reply in items:
            op = reply.op
            if reply.status != 200:
                message = json.dumps(reply.body)[:300]
                known = reply.status == 500 and "cannot host edge" in message \
                    and rerouted_since_build
                log.fail(index, common.HTTP_ERROR,
                         f"{op.kind} design {design}: {reply.status} {message}",
                         "a" if known else None)
                # The server discards the resident; the next request builds
                # a fresh one (and an ECO on it solves in full first).
                edited_since_build = rerouted_since_build = False
                edited_before_solve = rerouted_before_solve = False
                chain_engine = chain_eco = None
                continue
            if op.kind == "assign":
                counts["assign_checked"] += 1
                digest = reply.body.get("assignment_digest")
                if digest != fresh_digest:
                    log.fail(index, common.DIGEST_MISMATCH,
                             f"assign design {design}: {digest} != one-shot "
                             f"{fresh_digest}",
                             _kept_edit_defect(edited_since_build,
                                               rerouted_since_build))
                edited_before_solve = edited_since_build
                rerouted_before_solve = rerouted_since_build
                chain_engine = chain_eco = None
                continue
            counts["eco_checked"] += 1
            if chain_engine is None:
                chain_engine = copy.deepcopy(fresh_engine)
                chain_eco = EcoEngine(chain_engine)
                counts["replays"] += 1
            expected = chain_eco.apply(list(op.edits)).digest
            digest = reply.body.get("assignment_digest")
            if digest != expected:
                log.fail(index, common.DIGEST_MISMATCH,
                         f"eco design {design}: {digest} != cold replay "
                         f"{expected}",
                         _kept_edit_defect(edited_before_solve,
                                           rerouted_before_solve))
            if op.edit_kind in KEPT_BY_SOLVE:
                edited_since_build = True
            if op.edit_kind == "net_reroute":
                rerouted_since_build = True
    for engine, _ in states:
        engine.close()
    return counts


# -- the workload ----------------------------------------------------------------


def _client_figures(replies: List[Reply]) -> Dict[str, float]:
    ok = [r for r in replies if r.status == 200 and "serving" in r.body]
    if not ok:
        return {}
    queued = [r.body["serving"]["queued_ms"] for r in ok]
    service = [r.body["serving"]["service_ms"] for r in ok]
    http_ms = [1000.0 * r.seconds - q - s for r, q, s in zip(ok, queued, service)]
    return {
        "queue_wait_ms": statistics.fmean(queued),
        "service_ms": statistics.fmean(service),
        "http_ms": statistics.fmean(http_ms),
        "service_s_total": sum(service) / 1000.0,
    }


def run(seed: int, seconds: int, trace: bool, workdir: Path, record: Dict):
    plan = request_plan(seed, seconds)
    record["params"].update(
        designs=[list(d) for d in DESIGNS], clients=CLIENTS,
        requests=sum(len(p) for p in plan), block=list(BLOCK),
        release_k=RELEASE_K, setups=3,
        server="repro serve defaults (exec pool, 0 workers, engine cache 4)",
    )
    # Set-up is sampled on three servers: a plain one before the timed one,
    # the timed one, and a plain one after the timed phase, so that the
    # median sees the host at both ends of the run, as the requests did.  A
    # traced run also drives the first third of the plan on the first
    # server: its untraced reference.
    reference: List[Reply] = []
    notes: Dict[str, object] = {}
    server, first_setup_s = start_and_warm(workdir, "first")
    try:
        if trace:
            reference, _ = drive(server.port, plan,
                                 limit=max(1, len(plan[0]) // 3))
    finally:
        server.stop()

    spans_path = workdir / "server-spans.json" if trace else None
    server, setup_s = start_and_warm(workdir, "timed", spans_path)
    setups = [first_setup_s, setup_s]
    try:
        timed_start = time.perf_counter()
        replies, wall = drive(server.port, plan)
        timed_end = time.perf_counter()
    finally:
        exit_code = server.stop()
    last, last_setup_s = start_and_warm(workdir, "last")
    last.stop()
    setups.append(last_setup_s)
    notes.update(setup_samples_s=setups, timed_phase_s=wall,
                 server_exit_code=exit_code)

    log = common.OpLog()
    indices = [log.record(r.seconds) for r in replies]
    notes["gate"] = check(log, replies, indices)
    # Tracing must not change any answer: compare with the reference pass.
    by_op = {id(r.op): (i, r) for i, r in zip(indices, replies)}
    for ref in reference:
        index, reply = by_op[id(ref.op)]
        if (ref.status, ref.body.get("assignment_digest")) != \
                (reply.status, reply.body.get("assignment_digest")):
            log.fail(index, common.DIGEST_MISMATCH,
                     "traced reply differs from the untraced reference")

    figures = _client_figures(replies)
    if not trace:
        latency, sample = common.latency_metrics(log.latencies)
        notes.update(sample)
        notes["by_kind_p50_ms"] = {
            kind: 1000.0 * statistics.median(
                [r.seconds for r in replies if r.op.kind == kind])
            for kind in ("assign", "eco")
        }
        ratios = [
            (r.body["quality"]["final_avg_tcp"] / r.body["quality"]["initial_avg_tcp"],
             r.body["quality"]["final_max_tcp"] / r.body["quality"]["initial_max_tcp"])
            if r.op.kind == "assign" else
            (r.body["quality"]["post_avg_tcp"] / r.body["quality"]["pre_avg_tcp"],
             r.body["quality"]["post_max_tcp"] / r.body["quality"]["pre_max_tcp"])
            for r in replies if r.status == 200
        ]
        last_assign: Dict[int, Dict] = {}
        for r in replies:
            if r.op.kind == "assign" and r.status == 200:
                last_assign[r.op.design] = r.body["quality"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "p50_ms": (latency["p50_ms"], "ms"),
            "tail_ms": (latency["tail_ms"], "ms"),
            "ops_per_s": (len(replies) / wall, "1/s"),
            "ok_share": (1.0 - log.failed / log.attempted, "ratio"),
            "avg_tcp_ratio": (statistics.fmean(a for a, _ in ratios), "ratio"),
            "max_tcp_ratio": (statistics.fmean(m for _, m in ratios), "ratio"),
            "via_overflow": (sum(q["final_via_overflow"]
                                 for q in last_assign.values()), "count"),
            "vias": (sum(q["final_vias"] for q in last_assign.values()), "count"),
            "peak_rss_mb": (server.peak_rss_mb, "MB"),
        }
        return log, metrics, notes

    recorder = tracing.load(str(spans_path))
    window = tracing.Window(recorder, [(timed_start, timed_end)])
    # Overhead: engine time of the same requests, traced vs untraced.
    pairs = [(by_op[id(ref.op)][1], ref) for ref in reference
             if ref.status == 200 and by_op[id(ref.op)][1].status == 200]
    figures["overhead_share"] = statistics.median(
        r.body["serving"]["service_ms"] / ref.body["serving"]["service_ms"]
        for r, ref in pairs
    ) - 1.0 if pairs else 0.0
    notes["overhead_requests"] = len(pairs)
    metrics = per_layer_metrics(
        window, len(replies), figures.get("service_s_total", 0.0), serve=True,
        client=figures,
    )
    return log, metrics, notes
