"""Append-only JSON-lines run ledger with diff and regression gating.

Every ``repro run --ledger PATH`` appends one self-describing entry — an
environment/config fingerprint, the quality numbers (Tcp, overflow, vias),
the phase wall-clocks, and the convergence summary percentiles from
:mod:`repro.obs.convergence` — so runs accumulate into a durable,
greppable history instead of scrollback.  The ``repro obs`` subcommands
consume the same file:

- ``repro obs show PATH``   — render one entry (convergence table, the
  worst-converging partitions);
- ``repro obs diff A B``    — field-by-field comparison of two entries;
- ``repro obs check PATH --baseline BASE`` — compare the latest entry
  against the matching baseline entry and exit non-zero past the
  regression thresholds (the CI perf-smoke gate).

Entries are plain dicts (schema ``repro.run_ledger/v1``); unknown keys are
preserved by readers so the format can grow.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import convergence

SCHEMA = "repro.run_ledger/v1"


def git_commit() -> str:
    """Short commit hash of the repo this module lives in ("unknown" off-git)."""
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            text=True,
            stderr=subprocess.DEVNULL,
        ).strip()
    except Exception:
        return "unknown"


def fingerprint(config: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Environment + configuration identity of one run.

    ``config`` holds the knobs that make runs comparable (scale, ratio,
    workers, ...); its stable hash lets ``check`` refuse to gate a run
    against a baseline produced under different settings.
    """
    config = dict(config or {})
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:12]
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "config": config,
        "config_digest": digest,
    }


def build_entry(
    report: Any,
    config: Optional[Dict[str, Any]] = None,
    label: Optional[str] = None,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One ledger entry from a :class:`~repro.analysis.runreport.RunReport`.

    ``trace`` links the entry to its exported trace (``{"trace_id": ...,
    "file": ...}``) so an ``obs check`` failure points straight at the
    span tree of the offending run.
    """
    entry: Dict[str, Any] = {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "benchmark": report.benchmark,
        "method": report.method,
        "critical_ratio": report.critical_ratio,
        "fingerprint": fingerprint(config),
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
        "runtime": {
            "total_seconds": round(report.runtime, 4),
            "phases": {
                k: round(v, 4) for k, v in sorted(report.clock.totals.items())
            },
            "worker_phases": {
                k: round(v, 4)
                for k, v in sorted(report.worker_clock.totals.items())
            },
        },
        "convergence": convergence.summarize(report.convergence),
    }
    scheduler = getattr(report, "scheduler", None)
    if scheduler:
        entry["scheduler"] = scheduler
    router = getattr(report, "router", None)
    if router:
        entry["router"] = router
    if label:
        entry["label"] = label
    if trace:
        entry["trace"] = trace
    return entry


def append_entry(path: str, entry: Dict[str, Any]) -> None:
    """Append one entry as a JSON line (creates the file and parents)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=False, default=str))
        fh.write("\n")


def read_entries(path: str) -> List[Dict[str, Any]]:
    """All entries of a ledger file, in append order.

    Raises :class:`ValueError` on malformed lines or foreign schemas — a
    corrupt ledger should fail the gate, not silently pass it.
    """
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON ({exc})")
            if entry.get("schema") != SCHEMA:
                raise ValueError(
                    f"{path}:{lineno}: schema {entry.get('schema')!r} "
                    f"is not {SCHEMA!r}"
                )
            entries.append(entry)
    if not entries:
        raise ValueError(f"{path}: ledger holds no entries")
    return entries


def select_entry(entries: List[Dict[str, Any]], index: int = -1) -> Dict[str, Any]:
    try:
        return entries[index]
    except IndexError:
        raise ValueError(
            f"entry index {index} out of range (ledger holds {len(entries)})"
        )


def match_baseline(
    entries: List[Dict[str, Any]], current: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """Latest baseline entry with the current run's benchmark + method.

    ECO entries also match on their edit size and closure round: one
    ledger holds a chain per edit size and one entry per round, and each
    is gated against its own counterpart.
    """
    def key(entry: Dict[str, Any]) -> Tuple[Any, ...]:
        eco = entry.get("eco") or {}
        return (
            entry.get("benchmark"), entry.get("method"),
            eco.get("edit_size"), eco.get("round"),
        )

    wanted = key(current)
    for entry in reversed(entries):
        if key(entry) == wanted:
            return entry
    return None


# -- rendering --------------------------------------------------------------


def _pct(initial: float, final: float) -> str:
    if not initial:
        return "n/a"
    return f"{(final / initial - 1.0) * 100:+.2f}%"


def render_entry(entry: Dict[str, Any]) -> str:
    """Human-readable report of one ledger entry (``repro obs show``)."""
    fp = entry.get("fingerprint", {})
    q = entry.get("quality", {})
    rt = entry.get("runtime", {})
    lines = [
        "run {created}  {benchmark}/{method}  ratio={critical_ratio:g}".format(
            created=entry.get("created", "?"),
            benchmark=entry.get("benchmark", "?"),
            method=entry.get("method", "?"),
            critical_ratio=entry.get("critical_ratio", 0.0),
        ),
        f"  commit {fp.get('commit', '?')}  python {fp.get('python', '?')}"
        f"  config {fp.get('config_digest', '?')}",
        "quality:",
        f"  Avg(Tcp)      {q.get('initial_avg_tcp', 0.0):>12.2f} -> "
        f"{q.get('final_avg_tcp', 0.0):>12.2f}  "
        f"({_pct(q.get('initial_avg_tcp', 0.0), q.get('final_avg_tcp', 0.0))})",
        f"  Max(Tcp)      {q.get('initial_max_tcp', 0.0):>12.2f} -> "
        f"{q.get('final_max_tcp', 0.0):>12.2f}  "
        f"({_pct(q.get('initial_max_tcp', 0.0), q.get('final_max_tcp', 0.0))})",
        f"  via overflow  {q.get('initial_via_overflow', 0):>12} -> "
        f"{q.get('final_via_overflow', 0):>12}",
        f"  via count     {q.get('initial_vias', 0):>12} -> "
        f"{q.get('final_vias', 0):>12}",
        f"runtime: {rt.get('total_seconds', 0.0):.2f}s",
    ]
    phases = rt.get("phases", {})
    if phases:
        lines.append(
            "  phases: "
            + "  ".join(f"{k}={v:.2f}s" for k, v in sorted(phases.items()))
        )
    worker_phases = rt.get("worker_phases", {})
    if worker_phases:
        lines.append(
            "  worker phases: "
            + "  ".join(f"{k}={v:.2f}s" for k, v in sorted(worker_phases.items()))
        )
    scheduler = entry.get("scheduler")
    if scheduler and scheduler.get("backend") == "batch":
        lines.extend([
            "batch backend:",
            f"  kernel calls {scheduler.get('bucket_solves', 0)}  "
            f"members {scheduler.get('members', 0)}  "
            f"largest bucket {scheduler.get('max_bucket', 0)}",
            f"  lockstep iterations {scheduler.get('batched_iterations', 0)}  "
            f"member iterations {scheduler.get('member_iterations', 0)}  "
            f"frozen {scheduler.get('frozen_fraction', 0.0):.1%}",
        ])
    elif scheduler:
        util = scheduler.get("utilization", {}) or {}
        util_text = (
            "  ".join(f"{k}={v:.0%}" for k, v in sorted(util.items()))
            if util else "n/a"
        )
        lines.extend([
            "dist scheduler:",
            f"  tasks {scheduler.get('tasks', 0)}  "
            f"retries {scheduler.get('retries', 0)}  "
            f"steals {scheduler.get('steals', 0)}  "
            f"stragglers {scheduler.get('stragglers', 0)}  "
            f"worker restarts {scheduler.get('worker_restarts', 0)}",
            f"  worker utilization (last map): {util_text}",
        ])
    router = entry.get("router")
    if router:
        lines.extend([
            "router:",
            f"  nets routed {router.get('nets_routed', 0)}  "
            f"rerouted {router.get('nets_rerouted', 0)}  "
            f"reroute rounds {router.get('reroute_rounds', 0)}",
            f"  maze aborts {router.get('maze_aborts', 0)}  "
            f"final 2-D overflow {router.get('final_overflow', 0)}",
        ])
    serving = entry.get("serving")
    if serving:
        lat = serving.get("latency_ms", {})
        req = serving.get("requests", {})
        depth = serving.get("queue_depth", {})
        lines.extend([
            "serving:",
            f"  latency p50/p95/p99  {lat.get('p50', 0.0):.0f}/"
            f"{lat.get('p95', 0.0):.0f}/{lat.get('p99', 0.0):.0f} ms",
            f"  cold -> warm         {serving.get('first_request_ms', 0.0):.0f}"
            f" -> {serving.get('warm_request_ms', 0.0):.0f} ms  "
            f"(speedup {serving.get('warm_speedup', 0.0):.2f}x)",
            f"  throughput           {serving.get('throughput_qps', 0.0):.2f} "
            f"qps (target {serving.get('target_qps', 0.0):g})",
            f"  requests             {req.get('ok', 0)} ok, "
            f"{req.get('rejected_429', 0)} rejected, "
            f"{req.get('errors', 0)} errors, {req.get('deduped', 0)} deduped",
            f"  queue depth p50/p95/max  {depth.get('p50', 0):g}/"
            f"{depth.get('p95', 0):g}/{depth.get('max', 0):g}",
        ])
        if "engine_runs" in serving:
            lines.append(f"  engine runs          {serving['engine_runs']}")
        fleet = serving.get("fleet")
        if fleet:
            lines.extend([
                "fleet:",
                f"  shards {fleet.get('shards', 0)}  cache hit rate "
                f"{fleet.get('cache_hit_rate', 0.0):.0%}  "
                f"({fleet.get('cache_hits', 0)} hits / "
                f"{fleet.get('cache_misses', 0)} misses, "
                f"{fleet.get('cache_invalidations', 0)} invalidations)",
                f"  failovers {fleet.get('failovers', 0)}  "
                f"cold starts {fleet.get('failover_cold_starts', 0)}  "
                f"replica seeds {fleet.get('replica_seeds', 0)}  "
                f"pushes {fleet.get('replica_pushes', 0)}  "
                f"engine runs {fleet.get('engine_runs', 0)}",
            ])
    eco = entry.get("eco")
    if eco:
        lines.extend([
            "eco:",
            f"  epoch {eco.get('epoch', 0)}  round {eco.get('round', 0)}  "
            f"released {eco.get('released', 0)}  "
            f"edits {eco.get('num_edits', 0)}",
            f"  dirty leaves  {eco.get('dirty_leaves', 0)}/"
            f"{eco.get('num_leaves', 0)}  "
            f"(fraction {eco.get('dirty_fraction', 0.0):.1%})  "
            + ("accepted" if eco.get("accepted") else "rolled back"),
        ])
    sweep = entry.get("sweep")
    if sweep:
        knobs = sweep.get("knobs", {})
        knob_text = "  ".join(
            f"{k}={v:g}" for k, v in sorted(knobs.items())
        ) or "n/a"
        lines.extend([
            "sweep:",
            f"  point {sweep.get('point', 0)}/{sweep.get('points', 0)}  "
            + ("PARETO" if sweep.get("pareto") else "dominated"),
            f"  knobs: {knob_text}",
        ])
    trace = entry.get("trace")
    if trace:
        lines.append(
            f"trace: {trace.get('trace_id', '?')}"
            + (f"  ({trace['file']})" if trace.get("file") else "")
            + (
                f"  [{trace['spans']} spans]"
                if trace.get("spans") is not None else ""
            )
        )
    lines.append(convergence.summary_text(entry.get("convergence", {})))
    return "\n".join(lines)


_DIFF_FIELDS = (
    ("final Avg(Tcp)", ("quality", "final_avg_tcp")),
    ("final Max(Tcp)", ("quality", "final_max_tcp")),
    ("final via overflow", ("quality", "final_via_overflow")),
    ("final via count", ("quality", "final_vias")),
    ("runtime seconds", ("runtime", "total_seconds")),
    ("solver iterations p50", ("convergence", "solves", "iterations", "p50")),
    ("solver iterations p90", ("convergence", "solves", "iterations", "p90")),
    ("non-converged partitions", ("convergence", "partitions", "nonconverged")),
    ("overflow events", ("convergence", "partitions", "overflow_events")),
    # Dist-fabric runs (``--exec dist``): absent from pool/sequential runs.
    ("dist retries", ("scheduler", "retries")),
    ("dist steals", ("scheduler", "steals")),
    ("dist stragglers", ("scheduler", "stragglers")),
    # Batched runs (``--exec batch``): absent from every other backend.
    ("batch bucket solves", ("scheduler", "bucket_solves")),
    ("batch lockstep iters", ("scheduler", "batched_iterations")),
    ("batch frozen fraction", ("scheduler", "frozen_fraction")),
    # Router observability (filled by pipeline.prepare): regressions here
    # mean the 2-D routing phase itself got worse, not the optimizer.
    ("router maze aborts", ("router", "maze_aborts")),
    ("router reroute rounds", ("router", "reroute_rounds")),
    ("router final overflow", ("router", "final_overflow")),
    # Serving entries (``repro bench-serve``): absent from solve runs, and
    # _lookup simply skips missing paths.
    ("serve p50 latency ms", ("serving", "latency_ms", "p50")),
    ("serve p95 latency ms", ("serving", "latency_ms", "p95")),
    ("serve throughput qps", ("serving", "throughput_qps")),
    ("serve warm speedup", ("serving", "warm_speedup")),
    ("serve engine runs", ("serving", "engine_runs")),
    # Fleet entries (``repro bench-serve --gateway``): gateway-level
    # behaviour of the sharded topology.
    ("fleet cache hit rate", ("serving", "fleet", "cache_hit_rate")),
    ("fleet failovers", ("serving", "fleet", "failovers")),
    ("fleet cold starts", ("serving", "fleet", "failover_cold_starts")),
    ("fleet replica seeds", ("serving", "fleet", "replica_seeds")),
    ("fleet engine runs", ("serving", "fleet", "engine_runs")),
    # ECO entries (``repro closure`` rounds / eco_apply campaigns): the
    # dirty fraction is the cost of a round; rising means the dirtiness
    # propagation got blunter.
    ("eco dirty fraction", ("eco", "dirty_fraction")),
    ("eco dirty leaves", ("eco", "dirty_leaves")),
    ("eco released nets", ("eco", "released")),
)


def _lookup(entry: Dict[str, Any], path) -> Optional[float]:
    node: Any = entry
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def diff_entries(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Field-by-field comparison of two entries (``repro obs diff A B``)."""
    header = (
        f"A: {a.get('created', '?')} {a.get('benchmark', '?')}/"
        f"{a.get('method', '?')} commit {a.get('fingerprint', {}).get('commit', '?')}\n"
        f"B: {b.get('created', '?')} {b.get('benchmark', '?')}/"
        f"{b.get('method', '?')} commit {b.get('fingerprint', {}).get('commit', '?')}"
    )
    rows = [f"{'metric':<26} {'A':>12} {'B':>12} {'delta':>10}"]
    for label, path in _DIFF_FIELDS:
        va, vb = _lookup(a, path), _lookup(b, path)
        if va is None and vb is None:
            continue
        sa = f"{va:g}" if va is not None else "-"
        sb = f"{vb:g}" if vb is not None else "-"
        if va and vb is not None:
            delta = f"{(vb / va - 1.0) * 100:+.1f}%"
        else:
            delta = "n/a"
        rows.append(f"{label:<26} {sa:>12} {sb:>12} {delta:>10}")
    return header + "\n" + "\n".join(rows)


def trace_pointer(entry: Dict[str, Any]) -> Optional[str]:
    """Actionable pointer at an entry's exported trace, if it has one.

    ``repro obs check`` prints this under the violation list so a failing
    gate leads straight to the span tree of the offending run.
    """
    trace = entry.get("trace") or {}
    trace_id = trace.get("trace_id")
    if not trace_id:
        return None
    where = trace.get("file") or "<trace file>"
    return (
        f"trace {trace_id} — inspect with: "
        f"repro obs trace critical {where} {trace_id[:12]}"
    )


# -- regression gating ------------------------------------------------------


@dataclass
class CheckThresholds:
    """Relative regression limits for ``repro obs check``.

    ``None`` disables a dimension.  Runtime gating is off by default —
    wall-clock is not comparable across machines; CI opts in with a
    generous ``--max-runtime-regression``.
    """

    avg_tcp: Optional[float] = 0.02
    max_tcp: Optional[float] = 0.05
    iterations_p90: Optional[float] = 0.5
    nonconverged_fraction: Optional[float] = 0.10  # absolute increase
    runtime: Optional[float] = None
    # Serving entries only (``repro bench-serve``).  p95 latency shares
    # runtime's caveat (machine-dependent; CI opts in generously);
    # ``min_warm_speedup`` is an absolute floor on the current entry's
    # cold/warm latency ratio — it needs no baseline and proves resident
    # warm state is actually being reused.
    serve_p95_latency: Optional[float] = None
    min_warm_speedup: Optional[float] = None
    # Absolute increase limit on final via overflow (None = not gated).
    # Gated absolutely because healthy runs sit at exactly 0, where a
    # relative threshold can never fire.
    via_overflow_increase: Optional[float] = None
    # ECO entries only: absolute ceiling on the current entry's
    # eco.dirty_fraction — the share of partitions an edit re-solved.  An
    # incremental engine whose small edits dirty most of the design has
    # lost its reason to exist, so CI pins the fraction directly rather
    # than relative to a baseline.
    max_dirty_fraction: Optional[float] = None
    # Fleet entries only (``repro bench-serve --gateway``), both absolute:
    # a floor on the gateway's cache hit rate (a fleet whose idempotent
    # repeats reach solvers has a broken cache), and a ceiling on failover
    # cold starts (a failover that cannot seed from the replica stream
    # lost the warm-failover property the tier exists for).
    min_cache_hit_rate: Optional[float] = None
    max_failover_cold_starts: Optional[float] = None


def check_entries(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    thresholds: Optional[CheckThresholds] = None,
) -> List[str]:
    """Regressions of ``current`` vs ``baseline`` past the thresholds.

    Returns human-readable violation strings (empty == gate passes).
    Benchmark/method identity is the caller's concern (see
    :func:`match_baseline`).
    """
    thr = thresholds or CheckThresholds()
    violations: List[str] = []

    def gate(label: str, path, limit: Optional[float]) -> None:
        if limit is None:
            return
        base, cur = _lookup(baseline, path), _lookup(current, path)
        if base is None or cur is None or base <= 0:
            return
        rel = cur / base - 1.0
        if rel > limit:
            violations.append(
                f"{label} regressed {rel:+.1%} (limit {limit:+.1%}): "
                f"{base:g} -> {cur:g}"
            )

    gate("final Avg(Tcp)", ("quality", "final_avg_tcp"), thr.avg_tcp)
    gate("final Max(Tcp)", ("quality", "final_max_tcp"), thr.max_tcp)
    gate("runtime", ("runtime", "total_seconds"), thr.runtime)
    gate(
        "solver iterations p90",
        ("convergence", "solves", "iterations", "p90"),
        thr.iterations_p90,
    )
    gate(
        "serving p95 latency",
        ("serving", "latency_ms", "p95"),
        thr.serve_p95_latency,
    )

    if thr.min_warm_speedup is not None:
        speedup = _lookup(current, ("serving", "warm_speedup"))
        if speedup is None:
            violations.append(
                "warm-speedup gate requested but the current entry has no "
                "serving.warm_speedup (not a bench-serve entry?)"
            )
        elif speedup < thr.min_warm_speedup:
            violations.append(
                f"serving warm speedup {speedup:.2f}x is below the "
                f"{thr.min_warm_speedup:.2f}x floor (resident warm state "
                "not being reused?)"
            )

    if thr.max_dirty_fraction is not None:
        fraction = _lookup(current, ("eco", "dirty_fraction"))
        if fraction is None:
            violations.append(
                "dirty-fraction gate requested but the current entry has no "
                "eco.dirty_fraction (not an ECO entry?)"
            )
        elif fraction > thr.max_dirty_fraction:
            violations.append(
                f"eco dirty fraction {fraction:.1%} exceeds the "
                f"{thr.max_dirty_fraction:.1%} ceiling (edits are dirtying "
                "most of the design)"
            )

    if thr.min_cache_hit_rate is not None:
        rate = _lookup(current, ("serving", "fleet", "cache_hit_rate"))
        if rate is None:
            violations.append(
                "cache-hit-rate gate requested but the current entry has no "
                "serving.fleet.cache_hit_rate (not a fleet entry?)"
            )
        elif rate < thr.min_cache_hit_rate:
            violations.append(
                f"fleet cache hit rate {rate:.1%} is below the "
                f"{thr.min_cache_hit_rate:.1%} floor (idempotent repeats "
                "are reaching solvers)"
            )

    if thr.max_failover_cold_starts is not None:
        cold = _lookup(current, ("serving", "fleet", "failover_cold_starts"))
        if cold is None:
            violations.append(
                "failover-cold-start gate requested but the current entry "
                "has no serving.fleet.failover_cold_starts (not a fleet "
                "entry?)"
            )
        elif cold > thr.max_failover_cold_starts:
            violations.append(
                f"fleet failover cold starts {cold:g} exceed the "
                f"{thr.max_failover_cold_starts:g} ceiling (replica "
                "seeding is not keeping failover warm)"
            )

    if thr.via_overflow_increase is not None:
        base_v = _lookup(baseline, ("quality", "final_via_overflow"))
        cur_v = _lookup(current, ("quality", "final_via_overflow"))
        if (
            base_v is not None
            and cur_v is not None
            and cur_v - base_v > thr.via_overflow_increase
        ):
            violations.append(
                f"final via overflow rose {base_v:g} -> {cur_v:g} "
                f"(limit +{thr.via_overflow_increase:g})"
            )

    if thr.nonconverged_fraction is not None:
        def frac(entry: Dict[str, Any]) -> Optional[float]:
            count = _lookup(entry, ("convergence", "partitions", "count"))
            bad = _lookup(entry, ("convergence", "partitions", "nonconverged"))
            if not count or bad is None:
                return None
            return bad / count

        base_f, cur_f = frac(baseline), frac(current)
        if base_f is not None and cur_f is not None:
            if cur_f - base_f > thr.nonconverged_fraction:
                violations.append(
                    "non-converged partition fraction rose "
                    f"{base_f:.1%} -> {cur_f:.1%} "
                    f"(limit +{thr.nonconverged_fraction:.0%})"
                )
    return violations
