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
from typing import Any, Dict, List, Mapping, Optional, Tuple

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


def make_entry(
    benchmark: str,
    method: str,
    critical_ratio: float,
    config: Optional[Dict[str, Any]],
    quality: Dict[str, Any],
    seconds: float,
    phases: Mapping[str, float] = {},
    worker_phases: Optional[Mapping[str, float]] = {},
    **sections: Any,
) -> Dict[str, Any]:
    """One ledger entry: the envelope every writer shares, then its sections.

    The envelope is the run's identity (``benchmark``, ``method``,
    ``critical_ratio``, the :func:`fingerprint` of ``config``), its
    quality block and its runtime block (``seconds`` and the phase clocks,
    rounded to 0.1 ms; ``worker_phases=None`` leaves that key out).  Each
    keyword in ``sections`` becomes one more top-level key, in order;
    sections given as ``None`` are left out.
    """
    runtime: Dict[str, Any] = {
        "total_seconds": round(seconds, 4),
        "phases": _rounded(phases),
    }
    if worker_phases is not None:
        runtime["worker_phases"] = _rounded(worker_phases)
    entry: Dict[str, Any] = {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "benchmark": benchmark,
        "method": method,
        "critical_ratio": critical_ratio,
        "fingerprint": fingerprint(config),
        "quality": quality,
        "runtime": runtime,
    }
    entry.update(
        (name, section) for name, section in sections.items()
        if section is not None
    )
    return entry


def _rounded(phases: Mapping[str, float]) -> Dict[str, float]:
    return {k: round(float(v), 4) for k, v in sorted(phases.items())}


QUALITY = (
    "initial_avg_tcp", "final_avg_tcp", "initial_max_tcp", "final_max_tcp",
    "initial_via_overflow", "final_via_overflow", "initial_vias", "final_vias",
)


def run_quality(report: Any) -> Dict[str, Any]:
    """The quality block of a :class:`~repro.analysis.runreport.RunReport`,
    whose attributes carry the block's key names."""
    return {key: getattr(report, key) for key in QUALITY}


def eco_quality(report: Any) -> Dict[str, Any]:
    """Avg/Max(Tcp) before and after an :class:`~repro.eco.engine.EcoReport`
    apply, as the Tcp half of a quality block."""
    return {
        "initial_avg_tcp": report.pre_avg_tcp,
        "final_avg_tcp": report.post_avg_tcp,
        "initial_max_tcp": report.pre_max_tcp,
        "final_max_tcp": report.post_max_tcp,
    }


def eco_section(report: Any, **extra: Any) -> Dict[str, Any]:
    """The ``eco`` section of an entry for one ECO apply, plus ``extra``."""
    return {
        **extra,
        "epoch": report.epoch,
        "num_edits": report.num_edits,
        "edit_digest": report.edit_digest,
        "released": report.released,
        "dirty_leaves": report.dirty.get("dirty_leaves", 0),
        "num_leaves": report.dirty.get("num_leaves", 0),
        "dirty_fraction": report.dirty_fraction,
        "accepted": report.accepted,
        "digest": report.digest,
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
    return make_entry(
        report.benchmark, report.method, report.critical_ratio, config,
        run_quality(report), report.runtime,
        phases=report.clock.totals,
        worker_phases=report.worker_clock.totals,
        convergence=convergence.summarize(report.convergence),
        scheduler=getattr(report, "scheduler", None) or None,
        router=getattr(report, "router", None) or None,
        label=label or None,
        trace=trace or None,
    )


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
            f"  requests             {req.get('ok', 0)}/{req.get('sent', 0)} "
            f"ok, {req.get('rejected_429', 0)} rejected, "
            f"{req.get('errors', 0)} errors",
            f"  queue depth p50/p95/max  {depth.get('p50', 0):g}/"
            f"{depth.get('p95', 0):g}/{depth.get('max', 0):g}",
        ])
        eco_rounds = serving.get("eco")
        if eco_rounds:
            lines.append(
                f"  eco rounds           {eco_rounds.get('ok', 0)}/"
                f"{eco_rounds.get('rounds', 0)} ok "
                f"({eco_rounds.get('accepted', 0)} accepted), final epoch "
                f"{eco_rounds.get('final_epoch', 0)}, p50 "
                f"{eco_rounds.get('latency_ms', {}).get('p50', 0.0):.0f} ms"
            )
        verified = serving.get("verified_against_run")
        lines.append(
            f"  digests consistent   {serving.get('digest_consistent')}"
            + (f", verified vs repro run: {verified}"
               if verified is not None else "")
        )
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
            failover = fleet.get("failover")
            if failover:
                lines.append(
                    f"  failover probes {failover.get('ok', 0)}/"
                    f"{failover.get('probes', 0)} ok after shard "
                    f"{failover.get('victim', '?')!r} stopped  (max "
                    f"{failover.get('latency_ms', {}).get('max', 0.0):.0f} ms)"
                )
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


# Gate kinds.  A relative gate bounds ``current / baseline - 1`` and an
# increase gate ``current - baseline``; both skip a field that either
# entry lacks.  A floor or a ceiling bounds the current entry's value
# alone and needs no baseline, so a current entry without the field
# violates it.
RELATIVE, INCREASE, FLOOR, CEILING = "relative", "increase", "floor", "ceiling"


@dataclass(frozen=True)
class Field:
    """One numeric entry field: ``obs diff`` shows it, and ``obs check``
    bounds it when the row names a ``flag``.

    ``flag`` is the option that sets the bound, ``kind`` what it bounds,
    and ``default`` the bound without the option (``None``: not gated).
    A relative gate's violation calls the field ``gate`` (default:
    ``label``); any other gate's violation is its ``says`` template, filled
    with ``cur``, ``base`` and ``bound``.  ``missing`` is the violation of
    a floor or ceiling when the current entry lacks the field.  A row with
    ``per`` is derived, the share ``path / per``; only its gate reads it.
    """

    label: str
    path: Tuple[str, ...]
    flag: Optional[str] = None
    kind: str = RELATIVE
    default: Optional[float] = None
    gate: str = ""
    says: str = ""
    missing: str = ""
    per: Optional[Tuple[str, ...]] = None

    @property
    def dest(self) -> str:
        """The key of the row's bound: its flag's argparse destination."""
        return self.flag.lstrip("-").replace("-", "_")

    @property
    def where(self) -> str:
        """The row's path in an entry, dotted."""
        where = ".".join(self.path)
        return where if self.per is None else f"{where} / {'.'.join(self.per)}"

    @property
    def help(self) -> str:
        """The ``obs check --help`` text of the row's gate."""
        where = f"{self.label} ({self.where})"
        what = {
            RELATIVE: f"max tolerated relative increase of {where}",
            INCREASE: f"max tolerated absolute increase of {where}",
            FLOOR: f"fail unless the current entry's {where} is at least BOUND",
            CEILING: f"fail when the current entry's {where} exceeds BOUND",
        }[self.kind]
        default = "not gated" if self.default is None else self.default
        return f"{what} (default: {default})"

    def value(self, entry: Dict[str, Any]) -> Optional[float]:
        value = _lookup(entry, self.path)
        if self.per is None or value is None:
            return value
        whole = _lookup(entry, self.per)
        return value / whole if whole else None


FIELDS = (
    Field("final Avg(Tcp)", ("quality", "final_avg_tcp"),
          "--max-avg-tcp-regression", RELATIVE, 0.02),
    Field("final Max(Tcp)", ("quality", "final_max_tcp"),
          "--max-max-tcp-regression", RELATIVE, 0.05),
    # An increase, not a ratio: healthy runs sit at exactly 0, where a
    # relative bound can never fire.
    Field("final via overflow", ("quality", "final_via_overflow"),
          "--max-via-overflow-increase", INCREASE,
          says="final via overflow rose {base:g} -> {cur:g} "
               "(limit +{bound:g})"),
    Field("final via count", ("quality", "final_vias")),
    # Wall-clock is not comparable across machines; CI opts in generously.
    Field("runtime seconds", ("runtime", "total_seconds"),
          "--max-runtime-regression", RELATIVE, gate="runtime"),
    Field("solver iterations p50", ("convergence", "solves", "iterations", "p50")),
    Field("solver iterations p90", ("convergence", "solves", "iterations", "p90"),
          "--max-iterations-regression", RELATIVE, 0.5),
    Field("non-converged partitions", ("convergence", "partitions", "nonconverged")),
    Field("non-converged partition fraction",
          ("convergence", "partitions", "nonconverged"),
          "--max-nonconverged-increase", INCREASE, 0.10,
          says="non-converged partition fraction rose {base:.1%} -> "
               "{cur:.1%} (limit +{bound:.0%})",
          per=("convergence", "partitions", "count")),
    Field("overflow events", ("convergence", "partitions", "overflow_events")),
    # Dist-fabric runs (``--exec dist``): absent from pool/sequential runs.
    Field("dist retries", ("scheduler", "retries")),
    Field("dist steals", ("scheduler", "steals")),
    Field("dist stragglers", ("scheduler", "stragglers")),
    # Batched runs (``--exec batch``): absent from every other backend.
    Field("batch bucket solves", ("scheduler", "bucket_solves")),
    Field("batch lockstep iters", ("scheduler", "batched_iterations")),
    Field("batch frozen fraction", ("scheduler", "frozen_fraction")),
    # Router observability (filled by pipeline.prepare): regressions here
    # mean the 2-D routing phase itself got worse, not the optimizer.
    Field("router maze aborts", ("router", "maze_aborts")),
    Field("router reroute rounds", ("router", "reroute_rounds")),
    Field("router final overflow", ("router", "final_overflow")),
    # Serving entries (``repro bench-serve``): absent from solve runs, and
    # _lookup simply skips missing paths.  p95 latency shares runtime's
    # caveat; the warm speedup (cold / warm latency) proves resident warm
    # state is being reused.
    Field("serve p50 latency ms", ("serving", "latency_ms", "p50")),
    Field("serve p95 latency ms", ("serving", "latency_ms", "p95"),
          "--max-serve-p95-regression", RELATIVE,
          gate="serving p95 latency"),
    Field("serve throughput qps", ("serving", "throughput_qps")),
    Field("serve warm speedup", ("serving", "warm_speedup"),
          "--min-warm-speedup", FLOOR,
          says="serving warm speedup {cur:.2f}x is below the {bound:.2f}x "
               "floor (resident warm state not being reused?)",
          missing="warm-speedup gate requested but the current entry has "
                  "no serving.warm_speedup (not a bench-serve entry?)"),
    Field("serve engine runs", ("serving", "engine_runs")),
    # Fleet entries (``repro bench-serve --gateway``): gateway-level
    # behaviour of the sharded topology.  Idempotent repeats that reach
    # solvers mean a broken cache; a failover that cannot seed from the
    # replica stream starts cold.
    Field("fleet cache hit rate", ("serving", "fleet", "cache_hit_rate"),
          "--min-cache-hit-rate", FLOOR,
          says="fleet cache hit rate {cur:.1%} is below the {bound:.1%} "
               "floor (idempotent repeats are reaching solvers)",
          missing="cache-hit-rate gate requested but the current entry "
                  "has no serving.fleet.cache_hit_rate (not a fleet "
                  "entry?)"),
    Field("fleet failovers", ("serving", "fleet", "failovers")),
    Field("fleet cold starts", ("serving", "fleet", "failover_cold_starts"),
          "--max-failover-cold-starts", CEILING,
          says="fleet failover cold starts {cur:g} exceed the {bound:g} "
               "ceiling (replica seeding is not keeping failover warm)",
          missing="failover-cold-start gate requested but the current "
                  "entry has no serving.fleet.failover_cold_starts (not a "
                  "fleet entry?)"),
    Field("fleet replica seeds", ("serving", "fleet", "replica_seeds")),
    Field("fleet engine runs", ("serving", "fleet", "engine_runs")),
    # ECO entries (``repro closure`` rounds / eco_apply campaigns): the
    # dirty fraction is the cost of a round; rising means the dirtiness
    # propagation got blunter, and an engine whose small edits dirty most
    # of the design has lost its reason to exist.
    Field("eco dirty fraction", ("eco", "dirty_fraction"),
          "--max-dirty-fraction", CEILING,
          says="eco dirty fraction {cur:.1%} exceeds the {bound:.1%} "
               "ceiling (edits are dirtying most of the design)",
          missing="dirty-fraction gate requested but the current entry "
                  "has no eco.dirty_fraction (not an ECO entry?)"),
    Field("eco dirty leaves", ("eco", "dirty_leaves")),
    Field("eco released nets", ("eco", "released")),
)
GATED = tuple(field for field in FIELDS if field.flag is not None)


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
    for field in FIELDS:
        if field.per is not None:  # derived shares are gate-only
            continue
        va, vb = field.value(a), field.value(b)
        if va is None and vb is None:
            continue
        sa = f"{va:g}" if va is not None else "-"
        sb = f"{vb:g}" if vb is not None else "-"
        if va and vb is not None:
            delta = f"{(vb / va - 1.0) * 100:+.1f}%"
        else:
            delta = "n/a"
        rows.append(f"{field.label:<26} {sa:>12} {sb:>12} {delta:>10}")
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


def check_entries(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    bounds: Optional[Mapping[str, Optional[float]]] = None,
) -> List[str]:
    """Violations of ``current`` against ``baseline`` past the gates' bounds.

    ``bounds`` maps a gate's :attr:`Field.dest` (``max_avg_tcp_regression``
    ...) to its bound, ``None`` turning the gate off; a gate it does not
    name keeps its default.  Returns human-readable violation strings
    (empty == gate passes).  Benchmark/method identity is the caller's
    concern (see :func:`match_baseline`).
    """
    bounds = bounds or {}
    violations: List[str] = []
    for field in GATED:
        bound = bounds.get(field.dest, field.default)
        if bound is None:
            continue
        cur = field.value(current)
        if field.kind in (FLOOR, CEILING):
            if cur is None:
                violations.append(field.missing)
            elif cur < bound if field.kind == FLOOR else cur > bound:
                violations.append(field.says.format(cur=cur, bound=bound))
            continue
        base = field.value(baseline)
        if base is None or cur is None:
            continue
        if field.kind == INCREASE and cur - base > bound:
            violations.append(
                field.says.format(base=base, cur=cur, bound=bound)
            )
        elif field.kind == RELATIVE and base > 0 and cur / base - 1.0 > bound:
            violations.append(
                f"{field.gate or field.label} regressed "
                f"{cur / base - 1.0:+.1%} (limit {bound:+.1%}): "
                f"{base:g} -> {cur:g}"
            )
    return violations
