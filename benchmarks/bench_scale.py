"""Scale-tier benchmark: ingest + routing + solve at real-magnitude net counts.

The tier-1 suite runs at python-toy scale (``--scale 1`` is a few thousand
nets); this harness drives the same pipeline at ``--scale`` >= 10 so the
big-input trajectory — streaming parse, structured-array net storage, the
vectorized router — is measured and regression-gated like the pool/dist/
batch tiers already are.

Per benchmark the harness times every stage a cold start pays:

- ``scale:generate`` — synthesize the suite instance at ``--scale``;
- ``scale:write``    — serialize it to a real ISPD'08 ``.gr`` file;
- ``scale:parse``    — re-read that file through the parser (the streaming
  ingest hot path; the parsed instance is what gets routed, exactly as a
  real benchmark file would be);
- ``scale:route``    — 2-D global routing (pattern + negotiated maze);
- ``scale:topology`` / ``scale:assign`` — segment trees + initial DP layers;
- ``solve``          — the optimizer via the public ``run_method``.

"Ingest" is generate+write+parse; the headline number is **ingest+route**,
the pre-solve wall time that bounds how close the suite can get to the real
ISPD'08 magnitudes.  Snapshots land in ``BENCH_scale.json`` keyed by
``--label`` (baseline = pre-change revision, current = this revision; the
harness only uses public APIs so the identical command measures either).
``--ledger`` appends one run-ledger entry per benchmark whose phase clocks
include the stage timings above, giving ``repro obs check`` a scale-tier
regression gate against ``benchmarks/results/scale_baseline.jsonl``.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py --label current \
        --scale 10 --benchmarks adaptec1,newblue1 --out BENCH_scale.json
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.engine import CPLAConfig
from repro.ispd.parser import parse_ispd08
from repro.ispd.suite import load_benchmark
from repro.ispd.writer import write_ispd08
from repro.obs import harness, metrics
from repro.obs import ledger as run_ledger
from repro.pipeline import run_method
from repro.route.assignment import InitialAssigner
from repro.route.router import GlobalRouter, RouterConfig
from repro.route.tree import build_topology

SCHEMA = "repro.bench_scale/v1"
DEFAULT_BENCHMARKS = "adaptec1,newblue1"

METHODOLOGY = (
    "Per benchmark: generate the deterministic synthetic suite instance at "
    "--scale, write it as an ISPD'08 .gr file, re-parse that file (ingest "
    "hot path), then route/segment/assign the parsed instance and run the "
    "optimizer through the public pipeline API. ingest = generate+write+"
    "parse; the gated quantity is ingest+route wall seconds. The harness "
    "only touches public APIs, so the identical command measures any "
    "revision: 'baseline' is recorded on the pre-change commit, 'current' "
    "on this one, same machine, same inputs."
)

_ROUTER_COUNTERS = (
    "router.nets_routed",
    "router.nets_rerouted",
    "router.negotiation_rounds",
    "router.reroute_rounds",
    "router.maze_aborts",
)


def run_one(name: str, args: argparse.Namespace) -> tuple:
    """Time every stage for one benchmark; returns (record, report)."""
    scale, keep_dir = args.scale, args.keep_files
    metrics.enable()
    metrics.registry().reset()
    phases: Dict[str, float] = {}

    def timed(phase: str, fn):
        start = time.perf_counter()
        result = fn()
        phases[phase] = time.perf_counter() - start
        return result

    generated = timed("scale:generate", lambda: load_benchmark(name, scale=scale))
    if keep_dir:
        os.makedirs(keep_dir, exist_ok=True)
        path = os.path.join(keep_dir, f"{name}-x{scale:g}.gr")
    else:
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".gr", prefix=f"scale-{name}-", delete=False
        )
        handle.close()
        path = handle.name
    try:
        timed("scale:write", lambda: write_ispd08(generated, path))
        size_mb = os.path.getsize(path) / 1e6
        bench = timed("scale:parse", lambda: parse_ispd08(path, name=name))
    finally:
        if not keep_dir:
            os.unlink(path)

    router_config = (
        RouterConfig(rounds=args.router_rounds) if args.router_rounds else None
    )
    router = GlobalRouter(bench.grid, router_config)
    timed("scale:route", lambda: router.route(bench.nets))
    timed(
        "scale:topology",
        lambda: [build_topology(net) for net in bench.nets],
    )
    timed("scale:assign", lambda: InitialAssigner(bench.grid).assign(bench.nets))
    stats = getattr(router, "stats", None)
    if stats is not None:
        bench.router_stats = stats.as_dict()

    cfg = CPLAConfig(workers=args.workers, exec_backend=args.exec_backend)
    solve_start = time.perf_counter()
    report = run_method(
        bench, args.method, critical_ratio=args.ratio / 100.0, cpla_config=cfg
    )
    phases["solve_wall"] = time.perf_counter() - solve_start

    counters = metrics.registry().as_dict()["counters"]
    metrics.disable()
    num_segments = sum(len(n.topology.segments) for n in bench.nets)
    ingest = phases["scale:generate"] + phases["scale:write"] + phases["scale:parse"]
    record = {
        "scale": scale,
        "nets": bench.num_nets,
        "segments": num_segments,
        "grid": [bench.grid.nx_tiles, bench.grid.ny_tiles, bench.stack.num_layers],
        "file_mb": round(size_mb, 3),
        "ingest_seconds": round(ingest, 4),
        "route_seconds": round(phases["scale:route"], 4),
        "ingest_route_seconds": round(ingest + phases["scale:route"], 4),
        "solve_seconds": round(phases["solve_wall"], 4),
        "phases": {k: round(v, 4) for k, v in sorted(phases.items())},
        "final_avg_tcp": report.final_avg_tcp,
        "final_max_tcp": report.final_max_tcp,
        "final_via_overflow": report.final_via_overflow,
        "wire_overflow": bench.grid.total_wire_overflow(),
        "counters": {k: counters[k] for k in _ROUTER_COUNTERS if k in counters},
    }
    # Fold the stage timings into the report clock so the run-ledger entry
    # carries ingest/route/solve phases next to the optimizer's own.
    for phase, seconds in phases.items():
        if phase != "solve_wall":
            report.clock.add(phase, seconds)
    print(
        f"{name} x{scale:g}: {bench.num_nets} nets, {num_segments} segments | "
        f"ingest {ingest:.2f}s route {phases['scale:route']:.2f}s "
        f"solve {phases['solve_wall']:.2f}s",
        flush=True,
    )
    return record, report


def _improvement(baseline: dict, current: dict) -> dict:
    out: Dict[str, object] = {"per_benchmark": {}}
    speedups = []
    for name, base_rec in baseline["benchmarks"].items():
        cur_rec = current["benchmarks"].get(name)
        if cur_rec is None:
            continue
        entry: Dict[str, object] = {}
        for key in ("ingest_seconds", "route_seconds", "ingest_route_seconds"):
            if cur_rec.get(key):
                entry[key.replace("_seconds", "_speedup")] = round(
                    base_rec[key] / cur_rec[key], 3
                )
        entry["same_inputs"] = (
            base_rec.get("nets") == cur_rec.get("nets")
            and base_rec.get("grid") == cur_rec.get("grid")
        )
        out["per_benchmark"][name] = entry
        if cur_rec.get("ingest_route_seconds"):
            speedups.append(
                base_rec["ingest_route_seconds"] / cur_rec["ingest_route_seconds"]
            )
    if speedups:
        out["ingest_route_speedup_min"] = round(min(speedups), 3)
        out["ingest_route_speedup_geomean"] = round(
            math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 3
        )
    out["methodology"] = METHODOLOGY
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = harness.parser(
        __doc__.splitlines()[0], out="BENCH_scale.json", scale=10.0,
        exec_backend="pool",
        repeat="run the suite N times and keep each benchmark's fastest "
               "ingest+route pass (noise robustness on shared machines)",
        check="CI smoke mode: fail unless every benchmark completed with all "
              "stages recorded and Avg(Tcp) not regressing its own initial",
    )
    parser.add_argument("--benchmarks", default=DEFAULT_BENCHMARKS)
    parser.add_argument(
        "--router-rounds", type=int, default=0, metavar="N",
        help="override RouterConfig.rounds (0 = default)",
    )
    parser.add_argument(
        "--keep-files", default=None, metavar="DIR",
        help="keep the generated .gr files in DIR instead of a temp file",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append one run-ledger entry per benchmark (phases include the "
             "scale:* stage timings)",
    )
    args = parser.parse_args(argv)
    names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]

    measured = harness.best_of(
        args.repeat, names, lambda name: run_one(name, args),
        lambda measurement: measurement[0]["ingest_route_seconds"],
    )
    records = {name: record for name, (record, _) in measured.items()}
    if args.ledger:
        for name, (_, report) in measured.items():
            run_ledger.append_entry(args.ledger, run_ledger.build_entry(
                report,
                config={
                    "benchmark": name,
                    "method": args.method,
                    "scale": args.scale,
                    "ratio_percent": args.ratio,
                    "workers": args.workers,
                    "exec": args.exec_backend,
                    "tier": "scale",
                },
                label="scale",
            ))

    harness.write_snapshot(
        args, SCHEMA,
        {"benchmarks": names, "repeat": args.repeat},
        {
            "total_ingest_route_seconds": round(
                sum(r["ingest_route_seconds"] for r in records.values()), 4
            ),
            "benchmarks": records,
        },
        methodology=METHODOLOGY,
        improvement=_improvement,
    )

    if args.check:
        bad = []
        for name, rec in records.items():
            stages = {"scale:generate", "scale:write", "scale:parse",
                      "scale:route", "scale:topology", "scale:assign"}
            if not stages <= set(rec["phases"]):
                bad.append(f"{name}: missing stages")
            if not rec["final_avg_tcp"] <= rec["final_max_tcp"] + 1e-9:
                bad.append(f"{name}: inconsistent Tcp stats")
        if bad:
            print(f"scale-smoke failed: {bad}", file=sys.stderr)
            return 1
        print(f"scale-smoke ok: {len(records)} benchmarks completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
