"""Convergence diagnostics: per-solve ADMM curves and per-partition attribution.

The recorder answers "why did this run converge slowly?" at two levels:

- **solve records** (:class:`SolveRecord`) — written by the ADMM SDP solver
  itself: one record per :meth:`~repro.solver.sdp.ADMMSDPSolver.solve` with
  the residual/objective samples taken at each ``check_every`` boundary,
  the projection wall-clock, and the warm/cold start disposition.  Records
  made inside fabric workers ride home in the
  :class:`~repro.obs.collect.WorkerTelemetry` payload;
- **partition records** (:class:`PartitionRecord`) — written by the engine
  in the parent process: one record per partition leaf per engine
  iteration, attributing solver behaviour (iterations, convergence, solve
  seconds) to a concrete leaf together with its post-mapping overflow
  events and the worst critical-path delay (Tcp) among the nets it touches.

Like the tracer and metrics, the subsystem is OFF by default and the
disabled path is a single module-global flag check — the engine and solver
call sites stay unconditional in the hot loops.  Enabled-state buffers are
process-wide and cleared by :func:`disable`/:func:`reset`.

The :func:`summarize` helper turns a :func:`snapshot` into the compact
percentile summary stored in run-ledger entries (:mod:`repro.obs.ledger`).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

_enabled = False
_lock = threading.Lock()
_solves: List["SolveRecord"] = []
_partitions: List["PartitionRecord"] = []
_buckets: List["BucketRecord"] = []


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the recorder off and clear both buffers."""
    global _enabled
    _enabled = False
    reset()


def is_enabled() -> bool:
    return _enabled


def reset() -> None:
    """Clear the solve, partition, and bucket buffers (worker-task prologue)."""
    with _lock:
        _solves.clear()
        _partitions.clear()
        _buckets.clear()


@dataclass
class SolveRecord:
    """One numerical solve, with its convergence curve.

    ``samples`` holds one dict per residual check —
    ``{"iteration", "objective", "primal", "dual", "rho"}`` — cheap enough
    to keep whole (a few hundred iterations / ``check_every`` entries).
    """

    solver: str
    matrix_order: int
    num_constraints: int
    warm_start: bool
    iterations: int
    converged: bool
    objective: float
    primal_residual: float
    dual_residual: float
    solve_seconds: float
    projection_seconds: float
    psd_identity_fraction: float
    samples: List[Dict[str, float]] = field(default_factory=list)


@dataclass
class PartitionRecord:
    """Solver behaviour attributed to one partition leaf (parent-side)."""

    engine_iteration: int
    leaf_index: int
    num_segments: int
    matrix_order: int
    num_constraints: int
    iterations: int
    converged: bool
    warm_start: bool
    mode: str
    objective: float
    solve_seconds: float
    overflow_events: int
    tcp_contribution: float


@dataclass
class BucketRecord:
    """One batched-backend kernel call (parent-side).

    Written by :class:`repro.batchsolve.solver.BatchLeafSolver`: how many
    members the call laid end to end, the largest member's matrix order,
    how many ``eigh`` size groups (distinct PSD block sizes >= 2) each
    iteration stacked and the largest block, how long the lockstep loop
    ran, how much member-iteration work freezing early convergers saved,
    and the kernel time per projection (PSD, affine, box).  The "where
    does batched kernel time go?" walkthrough in docs/OBSERVABILITY.md
    reads these records.
    """

    members: int
    max_order: int
    size_groups: int
    max_block: int
    iterations: int
    member_iterations: int
    converged: int
    frozen_fraction: float
    solve_seconds: float
    psd_seconds: float
    affine_seconds: float
    box_seconds: float


def record_solve(record: SolveRecord) -> None:
    if _enabled:
        with _lock:
            _solves.append(record)


def record_partition(record: PartitionRecord) -> None:
    if _enabled:
        with _lock:
            _partitions.append(record)


def record_bucket(record: BucketRecord) -> None:
    if _enabled:
        with _lock:
            _buckets.append(record)


def snapshot() -> Dict[str, List[Dict[str, Any]]]:
    """Plain-dict copy of the buffers (the ``RunReport.convergence`` form).

    The ``buckets`` key appears only when the batched backend recorded
    kernel calls, so pool/dist/sequential snapshots keep their shape.
    """
    with _lock:
        out = {
            "solves": [asdict(r) for r in _solves],
            "partitions": [asdict(r) for r in _partitions],
        }
        if _buckets:
            out["buckets"] = [asdict(r) for r in _buckets]
        return out


def drain_solves() -> List[Dict[str, Any]]:
    """Return and clear the solve records (worker-payload capture).

    Partition records are parent-side only, so the worker payload carries
    just the solves.
    """
    with _lock:
        out = [asdict(r) for r in _solves]
        _solves.clear()
    return out


def extend_solves(records: List[Dict[str, Any]]) -> None:
    """Fold solve records captured in a worker back into this process."""
    if not records:
        return
    with _lock:
        _solves.extend(SolveRecord(**r) for r in records)


# -- summarization ----------------------------------------------------------


def _percentile(values: List[float], q: float) -> float:
    """Percentile at index ``round(q * (n - 1))`` of an unsorted list.

    0 for empty input.  Not :func:`repro.obs.traceview.percentile`'s
    ``ceil(q * n) - 1`` nearest rank on purpose: the p50/p90 computed
    here are stored in the checked-in ledger baselines, and ``repro obs
    check`` gates the solver-iteration p90 against them, so changing the
    index rule would move gated numbers without a change in the solver.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return float(ordered[idx])


def _dist(values: List[float]) -> Dict[str, float]:
    return {
        "p50": round(_percentile(values, 0.50), 4),
        "p90": round(_percentile(values, 0.90), 4),
        "max": round(max(values), 4) if values else 0.0,
    }


def summarize(
    data: Optional[Dict[str, List[Dict[str, Any]]]], worst: int = 8
) -> Dict[str, Any]:
    """Compact percentile summary of a :func:`snapshot` (ledger-entry form).

    ``worst`` bounds the per-partition attribution kept verbatim: the
    leaves ranked worst-converging first (non-converged, then by iteration
    count and solve seconds) — the "which leaf is slow" answer without
    storing every record in the ledger.
    """
    out: Dict[str, Any] = {}
    if not data:
        return out
    solves = data.get("solves", [])
    partitions = data.get("partitions", [])
    buckets = data.get("buckets", [])
    if solves:
        out["solves"] = {
            "count": len(solves),
            "converged": sum(1 for s in solves if s["converged"]),
            "warm_started": sum(1 for s in solves if s["warm_start"]),
            "iterations": _dist([s["iterations"] for s in solves]),
            "primal_residual_max": max(s["primal_residual"] for s in solves),
            "projection_seconds": round(
                sum(s["projection_seconds"] for s in solves), 4
            ),
            "psd_identity_fraction": round(
                sum(s["psd_identity_fraction"] for s in solves) / len(solves), 4
            ),
        }
    if partitions:
        seconds = [p["solve_seconds"] for p in partitions]
        ranked = sorted(
            partitions,
            key=lambda p: (p["converged"], -p["iterations"], -p["solve_seconds"]),
        )
        out["partitions"] = {
            "count": len(partitions),
            "nonconverged": sum(1 for p in partitions if not p["converged"]),
            "iterations": _dist([p["iterations"] for p in partitions]),
            "solve_seconds": {
                "total": round(sum(seconds), 4),
                "p90": round(_percentile(seconds, 0.90), 4),
                "max": round(max(seconds), 4),
            },
            "overflow_events": sum(p["overflow_events"] for p in partitions),
            "worst": [
                {
                    "engine_iteration": p["engine_iteration"],
                    "leaf_index": p["leaf_index"],
                    "num_segments": p["num_segments"],
                    "iterations": p["iterations"],
                    "converged": p["converged"],
                    "solve_seconds": round(p["solve_seconds"], 4),
                    "overflow_events": p["overflow_events"],
                    "tcp_contribution": round(p["tcp_contribution"], 4),
                }
                for p in ranked[:worst]
            ],
        }
    if buckets:
        members = [b["members"] for b in buckets]
        potential = sum(b["members"] * b["iterations"] for b in buckets)
        actual = sum(b["member_iterations"] for b in buckets)
        out["buckets"] = {
            "count": len(buckets),
            "members": sum(members),
            "singletons": sum(1 for m in members if m == 1),
            "largest": max(members),
            "median_members": _percentile([float(m) for m in members], 0.50),
            "max_block": max(b["max_block"] for b in buckets),
            "lockstep_iterations": sum(b["iterations"] for b in buckets),
            "member_iterations": actual,
            "frozen_fraction": round(
                1.0 - actual / potential if potential else 0.0, 4
            ),
            "solve_seconds": round(sum(b["solve_seconds"] for b in buckets), 4),
            "psd_seconds": round(sum(b["psd_seconds"] for b in buckets), 4),
            "affine_seconds": round(
                sum(b["affine_seconds"] for b in buckets), 4
            ),
            "box_seconds": round(sum(b["box_seconds"] for b in buckets), 4),
            # The largest calls verbatim — which leaves actually stacked.
            "largest_buckets": [
                {
                    "members": b["members"],
                    "max_order": b["max_order"],
                    "size_groups": b["size_groups"],
                    "max_block": b["max_block"],
                    "iterations": b["iterations"],
                    "frozen_fraction": b["frozen_fraction"],
                }
                for b in sorted(buckets, key=lambda b: -b["members"])[:worst]
            ],
        }
    return out


def summary_text(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`summarize` result."""
    if not summary:
        return "convergence: (no records)"
    lines = ["convergence:"]
    solves = summary.get("solves")
    if solves:
        it = solves["iterations"]
        lines.append(
            "  solves: {count} ({converged} converged, {warm_started} warm-started)"
            .format(**solves)
        )
        lines.append(
            f"  solver iterations: p50={it['p50']:g} p90={it['p90']:g} "
            f"max={it['max']:g}"
        )
        lines.append(
            f"  projection time: {solves['projection_seconds']:.3f}s, "
            f"PSD identity fraction {solves['psd_identity_fraction']:.2f}"
        )
    buckets = summary.get("buckets")
    if buckets:
        lines.append(
            "  batch buckets: {count} kernel calls over {members} members "
            "({singletons} singletons, largest {largest})".format(**buckets)
        )
        lines.append(
            f"  batch freezing saved {buckets['frozen_fraction']:.0%} of "
            f"member-iterations ({buckets['member_iterations']} run, "
            f"{buckets['lockstep_iterations']} lockstep)"
        )
        # Entries written before the kernel split its projections lack
        # these keys.
        if "psd_seconds" in buckets:
            lines.append(
                f"  batch kernel {buckets['solve_seconds']:.3f}s, largest PSD "
                f"block {buckets['max_block']}: PSD "
                f"{buckets['psd_seconds']:.3f}s, affine "
                f"{buckets['affine_seconds']:.3f}s, box "
                f"{buckets['box_seconds']:.3f}s"
            )
    parts = summary.get("partitions")
    if parts:
        lines.append(
            f"  partitions: {parts['count']} ({parts['nonconverged']} not "
            f"converged), {parts['overflow_events']} overflow events"
        )
        worst = parts.get("worst", [])
        if worst:
            lines.append("  worst-converging partitions:")
            lines.append(
                "    iter  leaf  segs  solver-its  conv  seconds  overflow      Tcp"
            )
            for p in worst:
                lines.append(
                    "    {engine_iteration:>4}  {leaf_index:>4}  {num_segments:>4}"
                    "  {iterations:>10}  {conv:>4}  {solve_seconds:>7.3f}"
                    "  {overflow_events:>8}  {tcp_contribution:>7.1f}".format(
                        conv="yes" if p["converged"] else "NO", **p
                    )
                )
    return "\n".join(lines)
