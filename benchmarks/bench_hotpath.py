"""Hot-path benchmark: end-to-end ``repro run`` wall-clock with phase breakdown.

Records one labelled snapshot (``--label baseline`` / ``--label current``)
per invocation into ``BENCH_hotpath.json``; when both labels are present the
file also carries an ``improvement`` section comparing them.  CI's perf-smoke
step runs the same harness with ``--check`` to assert the suite completes
and the snapshot is well-formed.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --label current \
        --out BENCH_hotpath.json --benchmarks adaptec1,bigblue1,newblue1

The harness goes through the public pipeline API only (prepare +
run_method), so the identical command measures any revision of the repo.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.engine import CPLAConfig
from repro.obs import harness, metrics
from repro.pipeline import prepare, run_method

SCHEMA = "repro.bench_hotpath/v1"
DEFAULT_BENCHMARKS = "adaptec1,bigblue1,newblue1"

# Counters worth keeping in the snapshot (all optional: older revisions of
# the repo simply don't emit them and the harness records what exists).
_COUNTERS_OF_INTEREST = (
    "elmore.cache_hits",
    "elmore.cache_misses",
    "elmore.nets_analyzed",
    "sdp.solves",
    "sdp.warm_starts",
    "sdp.iterations",
    "engine.leaves",
    "engine.pool_failures",
    "batch.buckets",
    "batch.iters",
    "batch.member_iters",
)


def run_one(name: str, args: argparse.Namespace) -> dict:
    """Prepare and optimize one benchmark; return its record."""
    metrics.enable()
    metrics.registry().reset()
    cfg = CPLAConfig(workers=args.workers, exec_backend=args.exec_backend)
    start = time.perf_counter()
    bench = prepare(name, scale=args.scale)
    prepare_seconds = time.perf_counter() - start
    report = run_method(
        bench, args.method, critical_ratio=args.ratio / 100.0, cpla_config=cfg
    )
    wall = time.perf_counter() - start
    counters = metrics.registry().as_dict()["counters"]
    metrics.disable()
    phases = dict(report.clock.totals)
    phases["prepare"] = prepare_seconds
    print(
        f"{name}: {wall:.2f}s wall ({report.runtime:.2f}s optimize), "
        f"Avg(Tcp) {report.initial_avg_tcp:.1f} -> {report.final_avg_tcp:.1f}",
        flush=True,
    )
    return {
        "scale": args.scale,
        "nets": bench.num_nets,
        "segments": sum(len(n.topology.segments) for n in bench.nets),
        "wall_seconds": round(wall, 4),
        "run_seconds": round(report.runtime, 4),
        "phases": {k: round(v, 4) for k, v in sorted(phases.items())},
        "worker_phases": {
            k: round(v, 4) for k, v in sorted(report.worker_clock.totals.items())
        },
        "initial_avg_tcp": report.initial_avg_tcp,
        "final_avg_tcp": report.final_avg_tcp,
        "initial_max_tcp": report.initial_max_tcp,
        "final_max_tcp": report.final_max_tcp,
        "counters": {
            k: counters[k] for k in _COUNTERS_OF_INTEREST if k in counters
        },
    }


def _aggregate_phases(records: Dict[str, dict]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for rec in records.values():
        for phase, seconds in rec["phases"].items():
            totals[phase] = round(totals.get(phase, 0.0) + seconds, 4)
    return dict(sorted(totals.items()))


# A change that moves digests, such as an ADMM stop setting, can move each
# benchmark's final Tcp either way (moving the stop from 2e-4 to 1e-2
# left all three default benchmarks unchanged at scale 0.3).  Quality
# counts as preserved when no final metric *worsens* beyond this.
QUALITY_TOLERANCE = 0.005


def _improvement(baseline: dict, current: dict) -> dict:
    """Baseline-vs-current speedup summary (positive = current faster)."""
    out: Dict[str, object] = {}
    base_total = baseline["total_wall_seconds"]
    cur_total = current["total_wall_seconds"]
    if base_total > 0:
        out["wall_clock_improvement"] = round(1.0 - cur_total / base_total, 4)
    per_bench = {}
    quality_preserved = True
    for name, base_rec in baseline["benchmarks"].items():
        cur_rec = current["benchmarks"].get(name)
        if cur_rec is None:
            continue
        entry = {}
        if base_rec["wall_seconds"] > 0:
            entry["wall_clock_improvement"] = round(
                1.0 - cur_rec["wall_seconds"] / base_rec["wall_seconds"], 4
            )
        for metric in ("final_avg_tcp", "final_max_tcp"):
            base_v, cur_v = base_rec[metric], cur_rec[metric]
            change = (cur_v - base_v) / base_v if base_v else cur_v
            entry[f"{metric}_change"] = round(change, 8)
            if change > QUALITY_TOLERANCE:
                quality_preserved = False
        per_bench[name] = entry
    out["per_benchmark"] = per_bench
    out["quality_preserved"] = quality_preserved
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = harness.parser(
        __doc__.splitlines()[0], out="BENCH_hotpath.json", scale=0.3,
        exec_backend="pool",
        repeat="run the suite N times and keep each benchmark's fastest run "
               "(noise robustness on shared machines)",
        check="CI smoke mode: fail unless every benchmark completed and "
              "improved timing",
    )
    parser.add_argument("--benchmarks", default=DEFAULT_BENCHMARKS)
    args = parser.parse_args(argv)
    names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]

    records = harness.best_of(
        args.repeat, names, lambda name: run_one(name, args),
        lambda record: record["wall_seconds"],
    )
    harness.write_snapshot(
        args, SCHEMA,
        {"benchmarks": names, "repeat": args.repeat},
        {
            "total_wall_seconds": round(
                sum(r["wall_seconds"] for r in records.values()), 4
            ),
            "phases_total": _aggregate_phases(records),
            "benchmarks": records,
        },
        improvement=_improvement,
    )

    if args.check:
        bad = [
            name for name, rec in records.items()
            if not rec["final_avg_tcp"] <= rec["initial_avg_tcp"] * (1 + 1e-9)
        ]
        if bad:
            print(f"perf-smoke failed: Avg(Tcp) regressed on {bad}", file=sys.stderr)
            return 1
        print(f"perf-smoke ok: {len(records)} benchmarks completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
