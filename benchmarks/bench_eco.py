"""ECO-tier benchmark: incremental re-solve vs cold full re-solve.

The ECO engine's pitch is that a small edit against a committed
assignment should cost a small fraction of a cold solve: only the dirty
partition leaves are re-solved, everything else keeps its committed
layers.  This harness measures exactly that, per edit size:

- commit a baseline solve (fresh prepare + full ``CPLAEngine.run``);
- apply one ``net_resize`` edit touching ``k`` nets through
  :class:`~repro.eco.engine.EcoEngine` and time the **incremental**
  apply (dirty timing + restricted re-solve + post-map + commit);
- replay the same edit history cold via
  :func:`~repro.eco.engine.cold_replay_digest` (fresh state, full
  re-solve) and time the **cold** path;
- assert the two digests are bit-identical (the equivalence guarantee —
  a speedup that changes the answer is not a speedup).

The headline number is the single-net speedup ``cold/incremental``;
``--check`` fails unless it clears ``--min-speedup`` (default 3x) and
every edit size replayed bit-identically.  Snapshots land in
``BENCH_eco.json`` keyed by ``--label``; ``--ledger`` appends one
``eco:<method>`` run-ledger entry per edit size (``tier: eco``, with an
``eco`` section) so ``repro obs check --max-dirty-fraction`` gates the
dirtiness blast radius in CI against ``benchmarks/results/
eco_baseline.jsonl``.

Usage::

    PYTHONPATH=src python benchmarks/bench_eco.py --label current \
        --scale 3 --edit-sizes 1,5,25 --out BENCH_eco.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.engine import CPLAConfig, CPLAEngine
from repro.eco.edits import EcoEdit
from repro.eco.engine import EcoEngine, EcoReport, cold_replay_digest
from repro.ispd.request import assignment_digest
from repro.obs import harness
from repro.obs.ledger import append_entry, eco_quality, eco_section, make_entry
from repro.pipeline import prepare

BENCH_SCHEMA = "repro.bench_eco/v1"
DEFAULT_EDIT_SIZES = "1,5,25"

METHODOLOGY = (
    "Per edit size k: prepare the benchmark fresh, commit a full baseline "
    "solve, then apply one net_resize edit touching k nets spread evenly "
    "across the net-id space through EcoEngine (incremental wall), and "
    "replay the identical edit history cold from fresh state via "
    "cold_replay_digest (cold wall = prepare + full solve + replay). The "
    "digests must match bit-for-bit; speedup = cold/incremental. The "
    "harness only touches public APIs, so the identical command measures "
    "any revision: 'baseline' is recorded on the pre-change commit, "
    "'current' on this one, same machine, same inputs."
)


def _edit_for(num_nets: int, size: int, factor: float) -> EcoEdit:
    """One resize edit touching ``size`` nets, spread over the id space."""
    if size >= num_nets:
        nets = tuple(range(num_nets))
    else:
        stride = num_nets / size
        nets = tuple(sorted({int(i * stride) for i in range(size)}))
    return EcoEdit(op="net_resize", nets=nets, factor=factor)


def run_one(size: int, args: argparse.Namespace) -> tuple:
    """Measure one edit size; returns (record, report)."""
    bench = prepare(args.benchmark, scale=args.scale)
    config = CPLAConfig(
        method=args.method, critical_ratio=args.ratio / 100.0,
        workers=args.workers, exec_backend=args.exec_backend,
    )
    edit = _edit_for(bench.num_nets, size, args.factor)
    with CPLAEngine(bench, config) as engine:
        baseline_start = time.perf_counter()
        engine.run()
        baseline_seconds = time.perf_counter() - baseline_start
        eco = EcoEngine(engine)
        incremental_start = time.perf_counter()
        report = eco.apply([edit])
        incremental_seconds = time.perf_counter() - incremental_start
        incremental_digest = assignment_digest(engine.bench)

    cold_start = time.perf_counter()
    cold_digest = cold_replay_digest(
        args.benchmark, ((edit,),), scale=args.scale,
        critical_ratio=args.ratio / 100.0,
        workers=args.workers, exec_backend=args.exec_backend,
    )
    cold_seconds = time.perf_counter() - cold_start

    speedup = cold_seconds / incremental_seconds if incremental_seconds else 0.0
    record = {
        "edit_size": size,
        "nets_edited": len(edit.nets),
        "num_nets": bench.num_nets,
        "baseline_solve_seconds": round(baseline_seconds, 4),
        "incremental_seconds": round(incremental_seconds, 4),
        "cold_seconds": round(cold_seconds, 4),
        "speedup": round(speedup, 3),
        "dirty_leaves": report.dirty.get("dirty_leaves", 0),
        "num_leaves": report.dirty.get("num_leaves", 0),
        "dirty_fraction": round(report.dirty_fraction, 4),
        "accepted": report.accepted,
        "digest": incremental_digest,
        "digest_match": incremental_digest == cold_digest,
    }
    print(
        f"edit size {size:>3}: incremental {incremental_seconds:.2f}s vs "
        f"cold {cold_seconds:.2f}s = {speedup:.1f}x | dirty "
        f"{record['dirty_leaves']}/{record['num_leaves']} leaves | "
        f"digests {'match' if record['digest_match'] else 'DIVERGE'}",
        flush=True,
    )
    return record, report


def _ledger_entry(
    args: argparse.Namespace, record: Dict[str, Any], report: EcoReport
) -> Dict[str, Any]:
    """One ``eco:<method>`` run-ledger entry for one edit size."""
    return make_entry(
        report.benchmark, f"eco:{args.method}", args.ratio / 100.0,
        {
            "scale": args.scale,
            "critical_ratio": args.ratio / 100.0,
            "workers": args.workers,
            "exec_backend": args.exec_backend,
            "tier": "eco",
            "edit_size": record["edit_size"],
            "resize_factor": args.factor,
        },
        eco_quality(report),
        record["incremental_seconds"],
        phases={
            "eco:incremental": record["incremental_seconds"],
            "eco:cold_replay": record["cold_seconds"],
        },
        convergence={},
        eco=eco_section(
            report, edit_size=record["edit_size"], speedup=record["speedup"]
        ),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = harness.parser(
        __doc__.splitlines()[0], out="BENCH_eco.json", scale=3.0,
        exec_backend="seq",
        check="CI smoke mode: fail on any digest divergence or if the "
              "smallest edit's incremental speedup misses --min-speedup",
    )
    parser.add_argument("--benchmark", default="adaptec1")
    parser.add_argument("--edit-sizes", default=DEFAULT_EDIT_SIZES)
    parser.add_argument(
        "--factor", type=float, default=1.25,
        help="net_resize RC perturbation factor",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append one eco-tier run-ledger entry per edit size",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0, metavar="X",
        help="--check fails unless the smallest edit clears this speedup",
    )
    args = parser.parse_args(argv)
    try:
        sizes = sorted({int(s) for s in args.edit_sizes.split(",") if s.strip()})
    except ValueError:
        parser.error("--edit-sizes must be a comma list of integers")
    if not sizes or min(sizes) < 1:
        parser.error("--edit-sizes must be positive integers")

    records: List[Dict[str, Any]] = []
    for size in sizes:
        record, report = run_one(size, args)
        records.append(record)
        if args.ledger:
            append_entry(args.ledger, _ledger_entry(args, record, report))

    harness.write_snapshot(
        args, BENCH_SCHEMA,
        {
            "benchmark": args.benchmark,
            "edit_sizes": sizes,
            "resize_factor": args.factor,
        },
        {
            "single_net_speedup": next(
                (r["speedup"] for r in records if r["edit_size"] == min(sizes)),
                0.0,
            ),
            "edits": records,
        },
        methodology=METHODOLOGY,
    )

    if args.check:
        bad = []
        for record in records:
            if not record["digest_match"]:
                bad.append(
                    f"edit size {record['edit_size']}: incremental and cold "
                    f"digests diverge"
                )
        smallest = records[0]
        if smallest["speedup"] < args.min_speedup:
            bad.append(
                f"edit size {smallest['edit_size']}: speedup "
                f"{smallest['speedup']:.2f}x below --min-speedup "
                f"{args.min_speedup:g}x"
            )
        if bad:
            print(f"eco-smoke failed: {bad}", file=sys.stderr)
            return 1
        print(
            f"eco-smoke ok: {len(records)} edit sizes, single-net speedup "
            f"{smallest['speedup']:.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
