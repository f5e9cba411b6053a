"""Command-line interface.

Subcommands mirror the repo's workflow::

    repro gen adaptec1 --out bench/            # write ISPD'08 files
    repro run --benchmark adaptec1 --method sdp # one optimizer run
    repro compare --benchmark adaptec1          # TILA vs SDP (Table 2 row)
    repro table2 --scale 0.3                    # the full Table 2
    repro density --benchmark adaptec1          # Fig. 3(b)-style map
    repro run --benchmark adaptec1 --ledger runs.jsonl   # ledgered run
    repro obs show runs.jsonl                  # convergence diagnostics
    repro obs diff old.jsonl new.jsonl         # compare two ledger entries
    repro obs check runs.jsonl --baseline base.jsonl  # regression gate
    repro serve --port 8181                    # resident batch job server
    repro bench-serve --benchmark adaptec1 --qps 8 --verify  # load replay
    repro run ... --workers 4 --exec dist      # work-stealing solve fabric
    repro dist-worker --connect host:9123      # join a remote coordinator
    repro closure --benchmark adaptec1 --release-k 4  # ECO closure loop
    repro sweep --benchmark adaptec1 --alphas 1,2,3   # knob Pareto sweep
    repro bench-serve ... --eco-rounds 3       # serve-path ECO deltas
    repro bench-serve ... --trace-out spans.jsonl  # traced campaign
    repro obs trace show spans.jsonl           # one trace as a waterfall
    repro obs trace critical spans.jsonl       # where the wall clock went
    repro obs trace summary spans.jsonl --check  # aggregate + connectivity

Percentages follow the paper: ``--ratio 0.5`` means 0.5% of nets released.

``repro run`` exit codes (documented in README):

- **0** — clean success: the optimizer finished and the final solution
  carries no via-capacity overflow;
- **2** — usage error (bad arguments, unwritable output path);
- **3** — capacity-overflow result: the optimizer finished but the final
  solution still overflows via capacity (legal for the incremental
  problem, but a downstream flow should know);
- **4** — infeasible or invalid input: preparation or the optimizer
  rejected the instance.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.analysis.histogram import delay_histogram, render_histogram
from repro.analysis.metrics import MethodMetrics, ratio_row
from repro.analysis.report import Table, density_map_text
from repro.experiments import run_table2
from repro.ispd.request import EXEC_BACKENDS
from repro.ispd.suite import SUITE, spec_for
from repro.ispd.synthetic import generate
from repro.ispd.writer import write_ispd08
from repro.pipeline import compare, prepare, run_method
from repro.utils.logging import configure_cli_logging

# ``repro run`` exit codes — see the module docstring and README.
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_INFEASIBLE = 4


def _parse_hostport(text: str):
    """``HOST:PORT`` -> ``(host, port)``, or ``None`` when malformed."""
    host, _, port_text = text.rpartition(":")
    if host and port_text.isdigit():
        return host, int(port_text)
    return None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0, help="net-count scale factor")
    parser.add_argument("--ratio", type=float, default=0.5, help="critical ratio in percent (paper: 0.5)")
    parser.add_argument("-v", "--verbose", action="store_true")


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable tracing and write spans as JSON-lines to PATH",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable metrics and write a Prometheus-style dump to PATH",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="enable convergence diagnostics and append a run-ledger entry "
             "(JSON-lines) to PATH; inspect with 'repro obs show PATH'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Critical-path incremental layer assignment (DAC'16 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate synthetic ISPD'08 benchmark files")
    p_gen.add_argument("names", nargs="+", help="benchmark names, or 'all'")
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("-v", "--verbose", action="store_true")

    p_run = sub.add_parser("run", help="run one optimizer on one benchmark")
    p_run.add_argument("--benchmark", required=True, choices=sorted(SUITE))
    p_run.add_argument(
        "--method", default="sdp", choices=["sdp", "ilp", "tila", "tila+flow"]
    )
    p_run.add_argument(
        "--routes-out", default=None,
        help="write the optimized solution in ISPD'08 routing format",
    )
    p_run.add_argument(
        "--workers", type=int, default=0,
        help="solve partition leaves in this many worker processes (with "
             "--exec pool/dist, from 2 up); only the sdp/ilp methods "
             "parallelize — ignored (with a warning) for tila/tila+flow",
    )
    p_run.add_argument(
        "--exec", dest="exec_backend", default="pool",
        choices=EXEC_BACKENDS,
        help="leaf-solve execution backend: 'pool' or 'dist' (the "
             "fault-tolerant work-stealing worker fabric; with --workers "
             "<= 1 both solve leaf by leaf in-process, Gauss-Seidel), "
             "'batch' (in-process vectorized ADMM, one kernel call "
             "per pass; sdp method only), or 'seq' (single-threaded "
             "reference); seq, batch, and pool/dist with --workers >= 2 "
             "produce bit-identical assignments",
    )
    p_run.add_argument(
        "--dist-listen", default=None, metavar="HOST:PORT",
        help="with --exec dist: also accept remote workers on this address "
             "(authkey read from the REPRO_DIST_AUTHKEY env var; join with "
             "'repro dist-worker --connect HOST:PORT')",
    )
    p_run.add_argument(
        "--router-rounds", type=int, default=0, metavar="N",
        help="global-router negotiation rounds (0 = RouterConfig default)",
    )
    p_run.add_argument(
        "--maze-expansion-limit", type=int, default=0, metavar="N",
        help="abort a maze reroute search after N expansions and keep the "
             "net's previous route (0 = RouterConfig default)",
    )
    _add_observability(p_run)
    _add_common(p_run)

    p_cmp = sub.add_parser("compare", help="TILA vs SDP on one benchmark")
    p_cmp.add_argument("--benchmark", required=True, choices=sorted(SUITE))
    p_cmp.add_argument("--histogram", action="store_true", help="print Fig.1-style pin-delay histograms")
    _add_common(p_cmp)

    p_t2 = sub.add_parser("table2", help="regenerate Table 2 (all 15 benchmarks)")
    p_t2.add_argument("--benchmarks", default="", help="comma-separated subset")
    _add_common(p_t2)

    p_den = sub.add_parser("density", help="routing density map (Fig. 3(b))")
    p_den.add_argument("--benchmark", required=True, choices=sorted(SUITE))
    p_den.add_argument("--scale", type=float, default=1.0)
    p_den.add_argument("-v", "--verbose", action="store_true")

    p_eval = sub.add_parser(
        "evaluate", help="score a routing solution (contest-evaluator style)"
    )
    p_eval.add_argument("--benchmark", required=True, choices=sorted(SUITE))
    p_eval.add_argument("--routes", required=True, help="solution file to score")
    p_eval.add_argument("--via-cost", type=float, default=1.0)
    p_eval.add_argument("--scale", type=float, default=1.0)
    p_eval.add_argument("-v", "--verbose", action="store_true")

    p_srv = sub.add_parser(
        "serve",
        help="resident batch job server (POST /v1/assign, GET /metrics)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8181,
                       help="listen port (0 picks an ephemeral port)")
    p_srv.add_argument("--max-queue", type=int, default=32,
                       help="bounded queue depth; beyond it requests get 429")
    p_srv.add_argument("--max-batch", type=int, default=8,
                       help="max same-signature jobs served by one engine run")
    p_srv.add_argument("--engine-cache", type=int, default=4,
                       help="resident warm engines kept (LRU)")
    p_srv.add_argument("--default-deadline-ms", type=float, default=120000.0,
                       help="deadline applied to jobs that do not set one")
    p_srv.add_argument("--max-scale", type=float, default=1.0,
                       help="largest per-request benchmark scale admitted")
    p_srv.add_argument("--max-workers", type=int, default=4,
                       help="largest per-request worker count admitted")
    p_srv.add_argument(
        "--dist-listen", default=None, metavar="HOST:PORT",
        help="accept remote dist workers for '--exec dist' requests on "
             "this address (authkey from REPRO_DIST_AUTHKEY; join with "
             "'repro dist-worker --connect HOST:PORT')",
    )
    p_srv.add_argument(
        "--fleet-shard-id", default=None, metavar="ID",
        help="this server's shard id in a fleet (e.g. s0); required with "
             "--replica-listen / --replica-peer",
    )
    p_srv.add_argument(
        "--replica-listen", default=None, metavar="HOST:PORT",
        help="accept warm-state replicas from fleet peers on this address "
             "(authkey from REPRO_FLEET_AUTHKEY)",
    )
    p_srv.add_argument(
        "--replica-peer", action="append", default=None,
        metavar="ID=HOST:PORT",
        help="a fleet peer's shard id and replica address; repeat for "
             "every shard INCLUDING this one (all shards must name the "
             "identical membership so their hash rings agree)",
    )
    p_srv.add_argument("--fleet-vnodes", type=int, default=64,
                       help="virtual nodes per shard on the hash ring")
    p_srv.add_argument("-v", "--verbose", action="store_true")

    p_gw = sub.add_parser(
        "gateway",
        help="fleet gateway: shard /v1/assign and /v1/eco over resident "
             "servers by consistent hash, with a digest result cache and "
             "failover to the ring's next live shard",
    )
    p_gw.add_argument("--host", default="127.0.0.1")
    p_gw.add_argument("--port", type=int, default=8282,
                      help="listen port (0 picks an ephemeral port)")
    p_gw.add_argument(
        "--shard", action="append", default=None, metavar="ID=URL",
        dest="shards", required=True,
        help="a backend shard, e.g. s0=http://127.0.0.1:8181; repeat per "
             "shard — ids (sorted) define the hash ring",
    )
    p_gw.add_argument("--vnodes", type=int, default=64,
                      help="virtual nodes per shard on the hash ring")
    p_gw.add_argument("--cache-capacity", type=int, default=256,
                      help="result-cache entries kept (LRU); 0 disables")
    p_gw.add_argument("--max-inflight", type=int, default=8,
                      help="per-shard in-flight request cap; beyond it "
                           "requests queue, then get 429")
    p_gw.add_argument("--max-waiting", type=int, default=32,
                      help="per-shard queued-waiter cap behind "
                           "--max-inflight")
    p_gw.add_argument("--health-interval", type=float, default=1.0,
                      help="seconds between /readyz health sweeps")
    p_gw.add_argument("--timeout", type=float, default=300.0,
                      help="per-request upstream timeout in seconds")
    p_gw.add_argument("-v", "--verbose", action="store_true")

    p_bsv = sub.add_parser(
        "bench-serve",
        help="replay assignment requests against a server at a target QPS "
             "and append a run-ledger entry with latency percentiles",
    )
    p_bsv.add_argument("--benchmark", default="adaptec1", choices=sorted(SUITE))
    p_bsv.add_argument("--method", default="sdp",
                       choices=["sdp", "ilp", "tila", "tila+flow"])
    p_bsv.add_argument("--workers", type=int, default=0)
    p_bsv.add_argument(
        "--exec", dest="exec_backend", default="pool",
        choices=EXEC_BACKENDS,
        help="execution backend requested from the server (and used by "
             "--verify's local run)",
    )
    p_bsv.add_argument("--qps", type=float, default=8.0,
                       help="open-loop request rate of the load phase")
    p_bsv.add_argument("--requests", type=int, default=24,
                       help="requests sent in the load phase")
    p_bsv.add_argument("--concurrency", type=int, default=8,
                       help="max in-flight requests in the load phase")
    p_bsv.add_argument("--warmup", type=int, default=3,
                       help="sequential warm requests measured before load")
    p_bsv.add_argument("--url", default=None,
                       help="existing server (http://host:port); default "
                            "spins up an in-process server")
    p_bsv.add_argument("--verify", action="store_true",
                       help="also solve the problem in-process via the run "
                            "path and require bit-identical assignments")
    p_bsv.add_argument("--ledger", default=None, metavar="PATH",
                       help="append the campaign as a run-ledger entry")
    p_bsv.add_argument("--timeout", type=float, default=300.0,
                       help="per-request client timeout in seconds")
    p_bsv.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable tracing for the campaign and export every span "
             "(client, server, engine, workers) as JSON-lines to PATH; "
             "inspect with 'repro obs trace show PATH'",
    )
    p_bsv.add_argument(
        "--dist-listen", default=None, metavar="HOST:PORT",
        help="with --exec dist: the in-process server also accepts remote "
             "workers on this address (authkey from REPRO_DIST_AUTHKEY)",
    )
    p_bsv.add_argument(
        "--eco-rounds", type=int, default=0, metavar="N",
        help="after warm-up, apply N chained ECO deltas (worst-k releases) "
             "through POST /v1/eco with correctly advancing state epochs",
    )
    p_bsv.add_argument(
        "--eco-release-k", type=int, default=4, metavar="K",
        help="worst-k nets released per --eco-rounds delta (default 4)",
    )
    p_bsv.add_argument(
        "--gateway", action="store_true",
        help="fleet mode: front the campaign with an in-process repro "
             "gateway sharding over --shards resident servers, and write "
             "a fleet:<method> ledger entry with cache/failover stats",
    )
    p_bsv.add_argument("--shards", type=int, default=2, metavar="N",
                       help="shard servers behind the --gateway (default 2)")
    p_bsv.add_argument(
        "--failover-requests", type=int, default=2, metavar="N",
        help="with --gateway: after the load phase, drain the signature's "
             "owning shard and send N cache-bypassing probes that must "
             "fail over bit-identically (default 2; 0 disables)",
    )
    p_bsv.add_argument("--cache-capacity", type=int, default=256,
                       help="gateway result-cache entries (fleet mode)")
    _add_common(p_bsv)

    p_clo = sub.add_parser(
        "closure",
        help="timing-closure loop: baseline solve, then worst-k release "
             "ECO rounds until the Max(Tcp) gain dries up",
    )
    p_clo.add_argument("--benchmark", required=True, choices=sorted(SUITE))
    p_clo.add_argument("--method", default="sdp", choices=["sdp", "ilp"])
    p_clo.add_argument("--workers", type=int, default=0)
    p_clo.add_argument(
        "--exec", dest="exec_backend", default="seq",
        choices=EXEC_BACKENDS,
        help="leaf-solve backend of the baseline and every ECO round",
    )
    p_clo.add_argument(
        "--release-k", type=int, default=4, metavar="K",
        help="worst-k nets released per round (default 4)",
    )
    p_clo.add_argument(
        "--max-rounds", type=int, default=5, metavar="N",
        help="round budget (default 5)",
    )
    p_clo.add_argument(
        "--min-gain", type=float, default=0.001, metavar="FRAC",
        help="stop once a round's relative Max(Tcp) gain drops below this "
             "(default 0.001)",
    )
    p_clo.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append one closure:<method> run-ledger entry per round",
    )
    p_clo.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable tracing and export the closure span tree "
             "(closure.baseline + one closure.round per round) to PATH",
    )
    _add_common(p_clo)

    p_swp = sub.add_parser(
        "sweep",
        help="knob-grid sweep (partition size x alpha x rho x ratio) with "
             "a quality-vs-runtime Pareto frontier in the run ledger",
    )
    p_swp.add_argument("--benchmark", required=True, choices=sorted(SUITE))
    p_swp.add_argument("--method", default="sdp", choices=["sdp", "ilp"])
    p_swp.add_argument("--workers", type=int, default=0)
    p_swp.add_argument(
        "--exec", dest="exec_backend", default="seq",
        choices=EXEC_BACKENDS,
    )
    p_swp.add_argument(
        "--partition-sizes", default="10", metavar="N[,N...]",
        help="max segments per partition leaf (comma-separated)",
    )
    p_swp.add_argument(
        "--alphas", default="2.0", metavar="A[,A...]",
        help="criticality exponents (the paper's timing-weight alpha)",
    )
    p_swp.add_argument(
        "--rhos", default="1.0", metavar="R[,R...]",
        help="ADMM rho values",
    )
    p_swp.add_argument(
        "--ratios", default="0.5", metavar="PCT[,PCT...]",
        help="release ratios in percent, like --ratio (default 0.5)",
    )
    p_swp.add_argument("--scale", type=float, default=1.0,
                       help="net-count scale factor")
    p_swp.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append one sweep:<method> run-ledger entry per grid point",
    )
    p_swp.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable tracing and export one sweep.point span per grid "
             "point to PATH",
    )
    p_swp.add_argument("-v", "--verbose", action="store_true")

    p_dw = sub.add_parser(
        "dist-worker",
        help="join a coordinator started with --exec dist --dist-listen "
             "and serve leaf solves until it shuts the fabric down",
    )
    p_dw.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator listen address (its --dist-listen value)",
    )
    p_dw.add_argument(
        "--id", default=None,
        help="worker id shown in coordinator logs/metrics "
             "(default: remote-<pid>)",
    )
    p_dw.add_argument(
        "--retry-seconds", type=float, default=60.0, metavar="S",
        help="keep retrying a refused connection for this long — the "
             "coordinator only listens once its first parallel solve "
             "starts (default: 60, 0 = one attempt)",
    )
    p_dw.add_argument("-v", "--verbose", action="store_true")

    p_obs = sub.add_parser(
        "obs", help="run-ledger diagnostics (show / diff / check)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_show = obs_sub.add_parser(
        "show", help="render one ledger entry (convergence attribution)"
    )
    p_show.add_argument("ledger", help="run-ledger file (JSON-lines)")
    p_show.add_argument(
        "--entry", type=int, default=-1,
        help="entry index, python-style (default: -1, the latest)",
    )
    p_show.add_argument("-v", "--verbose", action="store_true")

    p_diff = obs_sub.add_parser("diff", help="compare two ledger entries")
    p_diff.add_argument("ledger_a", help="baseline ledger file")
    p_diff.add_argument("ledger_b", help="comparison ledger file")
    p_diff.add_argument("--entry-a", type=int, default=-1)
    p_diff.add_argument("--entry-b", type=int, default=-1)
    p_diff.add_argument("-v", "--verbose", action="store_true")

    p_check = obs_sub.add_parser(
        "check",
        help="regression gate: exit non-zero when the latest entry regresses "
             "past the thresholds versus the baseline ledger",
    )
    p_check.add_argument("ledger", help="current run-ledger file")
    p_check.add_argument(
        "--baseline", required=True,
        help="baseline ledger; the latest entry matching the current "
             "benchmark+method is compared",
    )
    p_check.add_argument("--entry", type=int, default=-1)
    p_check.add_argument(
        "--max-avg-tcp-regression", type=float, default=0.02, metavar="FRAC",
        help="max tolerated relative final Avg(Tcp) increase (default 0.02)",
    )
    p_check.add_argument(
        "--max-max-tcp-regression", type=float, default=0.05, metavar="FRAC",
        help="max tolerated relative final Max(Tcp) increase (default 0.05)",
    )
    p_check.add_argument(
        "--max-iterations-regression", type=float, default=0.5, metavar="FRAC",
        help="max tolerated relative solver-iterations-p90 increase (default 0.5)",
    )
    p_check.add_argument(
        "--max-nonconverged-increase", type=float, default=0.10, metavar="FRAC",
        help="max tolerated absolute increase of the non-converged partition "
             "fraction (default 0.10)",
    )
    p_check.add_argument(
        "--max-runtime-regression", type=float, default=None, metavar="FRAC",
        help="max tolerated relative runtime increase (default: not gated — "
             "wall-clock is machine-dependent)",
    )
    p_check.add_argument(
        "--max-serve-p95-regression", type=float, default=None, metavar="FRAC",
        help="max tolerated relative serving p95 latency increase for "
             "bench-serve entries (default: not gated)",
    )
    p_check.add_argument(
        "--min-warm-speedup", type=float, default=None, metavar="X",
        help="fail unless the current bench-serve entry's cold/warm "
             "latency ratio is at least X (default: not gated)",
    )
    p_check.add_argument(
        "--max-via-overflow-increase", type=float, default=None, metavar="N",
        help="max tolerated absolute increase of final via overflow "
             "(default: not gated; 0 means 'no worse than baseline')",
    )
    p_check.add_argument(
        "--max-dirty-fraction", type=float, default=None, metavar="FRAC",
        help="fail when the current ECO entry re-solved more than this "
             "fraction of its partition leaves (absolute ceiling on "
             "eco.dirty_fraction; default: not gated)",
    )
    p_check.add_argument(
        "--min-cache-hit-rate", type=float, default=None, metavar="FRAC",
        help="fail unless the current fleet entry's gateway cache hit "
             "rate is at least FRAC (absolute floor on "
             "serving.fleet.cache_hit_rate; default: not gated)",
    )
    p_check.add_argument(
        "--max-failover-cold-starts", type=float, default=None, metavar="N",
        help="fail when the current fleet entry counts more than N "
             "failover cold starts (absolute ceiling on "
             "serving.fleet.failover_cold_starts; 0 means every failover "
             "must seed warm from a replica; default: not gated)",
    )
    p_check.add_argument("-v", "--verbose", action="store_true")

    p_trace = obs_sub.add_parser(
        "trace",
        help="analyze exported trace files (show / critical / summary)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_tshow = trace_sub.add_parser(
        "show", help="waterfall of one trace's span tree"
    )
    p_tshow.add_argument("trace_file", help="span file (JSON-lines)")
    p_tshow.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id (prefix ok); default: the slowest trace in the file",
    )
    p_tshow.add_argument("-v", "--verbose", action="store_true")

    p_tcrit = trace_sub.add_parser(
        "critical",
        help="critical path of one trace: longest child chain from the "
             "root, with per-span self-time vs child-time",
    )
    p_tcrit.add_argument("trace_file", help="span file (JSON-lines)")
    p_tcrit.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id (prefix ok); default: the slowest trace in the file",
    )
    p_tcrit.add_argument("-v", "--verbose", action="store_true")

    p_tsum = trace_sub.add_parser(
        "summary",
        help="aggregate spans by name across every trace in the file",
    )
    p_tsum.add_argument("trace_file", help="span file (JSON-lines)")
    p_tsum.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless every span carries a trace_id, every "
             "parent resolves, and each trace forms a single tree",
    )
    p_tsum.add_argument("-v", "--verbose", action="store_true")

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    names = sorted(SUITE) if args.names == ["all"] else args.names
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        if name not in SUITE:
            print(f"unknown benchmark {name!r}", file=sys.stderr)
            return 2
        bench = generate(spec_for(name, scale=args.scale))
        path = os.path.join(args.out, f"{name}.gr")
        write_ispd08(bench, path)
        print(f"wrote {path} ({bench.num_nets} nets, "
              f"{bench.grid.nx_tiles}x{bench.grid.ny_tiles}x{bench.stack.num_layers})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.engine import CPLAConfig

    # Fail on an unwritable output path now, not after the optimizer ran.
    for path in (args.trace_out, args.metrics_out, args.ledger):
        if path:
            try:
                with open(path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                print(f"cannot write {path}: {exc}", file=sys.stderr)
                return 2
    run_trace_id = None
    run_root_span = None
    if args.trace_out:
        obs.tracer.enable()
        # One trace per run: every span of this process (and, via context
        # propagation, of its pool/dist workers) shares this trace id and
        # parents under a single root span — so the exported file passes
        # the `repro obs trace summary --check` connectivity gate.
        run_trace_id = obs.tracer.new_trace_id()
        run_root_span = obs.tracer.start_span(
            "run",
            ctx=obs.tracer.TraceContext(run_trace_id),
            benchmark=args.benchmark,
            method=args.method,
        )
        obs.tracer.attach(
            obs.tracer.TraceContext(run_trace_id, run_root_span.id)
        )
    if args.metrics_out:
        obs.metrics.enable()
    if args.ledger:
        obs.convergence.enable()
    cpla_config = None
    if args.exec_backend == "batch" and args.method != "sdp":
        print(
            f"--exec batch requires --method sdp (the batched kernels only "
            f"cover the SDP solver), got method {args.method!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.method in ("sdp", "ilp"):
        dist_config = None
        if args.exec_backend in ("batch", "seq"):
            if args.workers:
                print(
                    f"warning: --workers has no effect with --exec "
                    f"{args.exec_backend}; the backend runs in-process",
                    file=sys.stderr,
                )
            if args.dist_listen:
                print(
                    "warning: --dist-listen only applies with --exec dist; "
                    "ignored",
                    file=sys.stderr,
                )
        elif args.exec_backend == "dist":
            if args.workers <= 1:
                print(
                    "warning: --exec dist parallelizes nothing without "
                    "--workers >= 2; solving leaf by leaf in-process",
                    file=sys.stderr,
                )
            address, authkey, code = _dist_listen_args(args, "run")
            if code is not None:
                return code
            if address is not None:
                from repro.dist.fabric import DistFabricConfig

                dist_config = DistFabricConfig(listen=address, authkey=authkey)
        elif args.dist_listen:
            print(
                "warning: --dist-listen only applies with --exec dist; ignored",
                file=sys.stderr,
            )
        if args.workers or args.exec_backend != "pool":
            cpla_config = CPLAConfig(
                workers=args.workers,
                exec_backend=args.exec_backend,
                dist=dist_config,
            )
    elif args.workers or args.exec_backend != "pool":
        print(
            f"warning: --workers only parallelizes the sdp/ilp methods "
            f"(likewise --exec); ignored for method {args.method!r}",
            file=sys.stderr,
        )
    router_config = None
    if args.router_rounds or args.maze_expansion_limit:
        from repro.route.router import RouterConfig

        kwargs = {}
        if args.router_rounds:
            kwargs["rounds"] = args.router_rounds
        if args.maze_expansion_limit:
            kwargs["maze_expansion_limit"] = args.maze_expansion_limit
        try:
            router_config = RouterConfig(**kwargs)
        except ValueError as exc:
            print(f"bad router configuration: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        bench = prepare(
            args.benchmark, scale=args.scale, router_config=router_config
        )
        report = run_method(
            bench, args.method, critical_ratio=args.ratio / 100.0,
            cpla_config=cpla_config,
        )
    except (ValueError, KeyError) as exc:
        print(f"infeasible or invalid input: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    table = Table(["metric", "initial", "final"])
    table.add_row("Avg(Tcp)", report.initial_avg_tcp, report.final_avg_tcp)
    table.add_row("Max(Tcp)", report.initial_max_tcp, report.final_max_tcp)
    table.add_row("via overflow", report.initial_via_overflow, report.final_via_overflow)
    table.add_row("via count", report.initial_vias, report.final_vias)
    print(f"{args.benchmark} / {report.method} "
          f"({len(report.critical_net_ids)} nets released)")
    print(table.render())
    print(f"runtime: {report.runtime:.2f}s")
    from repro.ispd.request import assignment_digest

    print(f"assignment digest: {assignment_digest(bench)}")
    if args.trace_out or args.metrics_out or args.ledger:
        print()
        print(report.observability_summary())
    trace_info = None
    if args.trace_out:
        run_root_span.finish()
        count = obs.tracer.export_jsonl(args.trace_out)
        trace_info = {
            "trace_id": run_trace_id,
            "file": args.trace_out,
            "spans": count,
        }
        print(f"wrote {count} spans to {args.trace_out} "
              f"(trace {run_trace_id})")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(obs.metrics.registry().render_prometheus())
        print(f"wrote metrics to {args.metrics_out}")
    if args.ledger:
        entry = obs.ledger.build_entry(
            report,
            config={
                "benchmark": args.benchmark,
                "method": args.method,
                "scale": args.scale,
                "ratio_percent": args.ratio,
                "workers": args.workers,
                "exec": args.exec_backend,
                "router_rounds": args.router_rounds,
                "maze_expansion_limit": args.maze_expansion_limit,
            },
            trace=trace_info,
        )
        obs.ledger.append_entry(args.ledger, entry)
        print(f"appended run-ledger entry to {args.ledger}")
    if args.routes_out:
        from repro.ispd.routes import write_routes

        write_routes(bench, args.routes_out)
        print(f"wrote solution to {args.routes_out}")
    if report.final_via_overflow > 0:
        print(
            f"result carries via-capacity overflow "
            f"({report.final_via_overflow} tracks); exit {EXIT_OVERFLOW}",
            file=sys.stderr,
        )
        return EXIT_OVERFLOW
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    result = compare(args.benchmark, critical_ratio=args.ratio / 100.0, scale=args.scale)
    rows = [MethodMetrics.from_report(r) for r in (result.baseline, result.ours)]
    table = Table(["method", "Avg(Tcp)", "Max(Tcp)", "OV#", "via#", "CPU(s)"])
    for m in rows:
        table.add_row(m.method, m.avg_tcp, m.max_tcp, m.via_overflow, m.vias, m.cpu_seconds)
    ratios = ratio_row(rows[1], rows[0])
    table.add_row(
        "ratio",
        ratios["avg_tcp"], ratios["max_tcp"],
        ratios["via_overflow"], ratios["vias"], ratios["cpu_seconds"],
    )
    print(table.render())
    if args.histogram:
        for rep in (result.baseline, result.ours):
            edges, counts = delay_histogram(rep.final_pin_delays)
            print()
            print(render_histogram(edges, counts, title=f"pin delays: {rep.method}"))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    names = (
        [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        if args.benchmarks
        else sorted(SUITE)
    )
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        print(f"unknown benchmarks: {unknown}", file=sys.stderr)
        return 2
    result = run_table2(names, ratio=args.ratio / 100.0, scale=args.scale)
    print(result.rendered)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    bench = prepare(args.benchmark, scale=args.scale)
    print(density_map_text(bench.grid.density_map()))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.ispd.evaluator import evaluate_solution
    from repro.ispd.suite import load_benchmark

    bench = load_benchmark(args.benchmark, scale=args.scale)
    result = evaluate_solution(bench, routes=args.routes, via_cost=args.via_cost)
    print(result.summary())
    return 0 if result.legal else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import ledger as run_ledger

    if args.obs_command == "trace":
        return _cmd_obs_trace(args)
    try:
        if args.obs_command == "show":
            entries = run_ledger.read_entries(args.ledger)
            print(run_ledger.render_entry(
                run_ledger.select_entry(entries, args.entry)
            ))
            return 0
        if args.obs_command == "diff":
            entry_a = run_ledger.select_entry(
                run_ledger.read_entries(args.ledger_a), args.entry_a
            )
            entry_b = run_ledger.select_entry(
                run_ledger.read_entries(args.ledger_b), args.entry_b
            )
            print(run_ledger.diff_entries(entry_a, entry_b))
            return 0
        # check: gate the latest entry against the matching baseline entry.
        current = run_ledger.select_entry(
            run_ledger.read_entries(args.ledger), args.entry
        )
        baseline = run_ledger.match_baseline(
            run_ledger.read_entries(args.baseline), current
        )
        if baseline is None:
            print(
                f"no baseline entry for {current.get('benchmark')}/"
                f"{current.get('method')} in {args.baseline}",
                file=sys.stderr,
            )
            return 2
    except (OSError, ValueError) as exc:
        print(f"obs {args.obs_command}: {exc}", file=sys.stderr)
        return 2
    thresholds = run_ledger.CheckThresholds(
        avg_tcp=args.max_avg_tcp_regression,
        max_tcp=args.max_max_tcp_regression,
        iterations_p90=args.max_iterations_regression,
        nonconverged_fraction=args.max_nonconverged_increase,
        runtime=args.max_runtime_regression,
        serve_p95_latency=args.max_serve_p95_regression,
        min_warm_speedup=args.min_warm_speedup,
        via_overflow_increase=args.max_via_overflow_increase,
        max_dirty_fraction=args.max_dirty_fraction,
        min_cache_hit_rate=args.min_cache_hit_rate,
        max_failover_cold_starts=args.max_failover_cold_starts,
    )
    violations = run_ledger.check_entries(baseline, current, thresholds)
    label = f"{current.get('benchmark')}/{current.get('method')}"
    if violations:
        print(f"obs check FAILED for {label}:", file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        pointer = run_ledger.trace_pointer(current)
        if pointer:
            print(f"  {pointer}", file=sys.stderr)
        return 1
    print(
        f"obs check ok: {label} within thresholds of baseline "
        f"{baseline.get('created', '?')} (commit "
        f"{baseline.get('fingerprint', {}).get('commit', '?')})"
    )
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro.obs import traceview

    try:
        traces = traceview.assemble(traceview.load_spans(args.trace_file))
        if args.trace_command == "summary":
            violations = traceview.check(traces) if args.check else None
            print(traceview.render_summary(traces, violations))
            return 1 if violations else 0
        trace = traceview.select_trace(traces, args.trace_id)
        if args.trace_command == "show":
            print(traceview.render_tree(trace))
        else:  # critical
            print(traceview.render_critical(trace))
    except (OSError, ValueError) as exc:
        print(f"obs trace {args.trace_command}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import AssignServer, ServeConfig
    from repro.service.http import run_front

    dist_listen, dist_authkey, code = _dist_listen_args(args, "serve")
    if code is not None:
        return code
    fleet_authkey = None
    replica_listen = None
    fleet_peers = None
    if args.replica_listen or args.replica_peer:
        if not args.fleet_shard_id:
            print(
                "serve: --replica-listen/--replica-peer require "
                "--fleet-shard-id",
                file=sys.stderr,
            )
            return EXIT_USAGE
        secret = os.environ.get("REPRO_FLEET_AUTHKEY", "")
        if not secret:
            print(
                "serve: fleet replication requires the REPRO_FLEET_AUTHKEY "
                "env var (shared secret peers authenticate with)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        fleet_authkey = secret.encode("utf-8")
        if args.replica_listen:
            replica_listen = _parse_hostport(args.replica_listen)
            if replica_listen is None:
                print(
                    f"--replica-listen must look like HOST:PORT, got "
                    f"{args.replica_listen!r}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
        if args.replica_peer:
            fleet_peers = {}
            for spec in args.replica_peer:
                shard_id, _, addr_text = spec.partition("=")
                address = _parse_hostport(addr_text)
                if not shard_id or address is None:
                    print(
                        f"--replica-peer must look like ID=HOST:PORT, got "
                        f"{spec!r}",
                        file=sys.stderr,
                    )
                    return EXIT_USAGE
                fleet_peers[shard_id] = address
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            engine_cache=args.engine_cache,
            default_deadline_ms=args.default_deadline_ms,
            max_scale=args.max_scale,
            max_workers=args.max_workers,
            dist_listen=dist_listen,
            dist_authkey=dist_authkey,
            fleet_shard_id=args.fleet_shard_id,
            replica_listen=replica_listen,
            fleet_authkey=fleet_authkey,
            fleet_peers=fleet_peers,
            fleet_vnodes=args.fleet_vnodes,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return asyncio.run(run_front(AssignServer, config))
    except KeyboardInterrupt:  # signal handler unavailable (rare platforms)
        return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from repro.fleet import Gateway, GatewayConfig
    from repro.service.http import run_front

    shards = {}
    for spec in args.shards:
        shard_id, _, url = spec.partition("=")
        trimmed = url
        for prefix in ("http://", "https://"):
            if trimmed.startswith(prefix):
                trimmed = trimmed[len(prefix):]
        address = _parse_hostport(trimmed.rstrip("/"))
        if not shard_id or address is None:
            print(
                f"--shard must look like ID=http://HOST:PORT, got {spec!r}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        shards[shard_id] = address
    try:
        config = GatewayConfig(
            shards=shards,
            host=args.host,
            port=args.port,
            vnodes=args.vnodes,
            cache_capacity=args.cache_capacity,
            max_inflight_per_shard=args.max_inflight,
            max_waiting_per_shard=args.max_waiting,
            health_interval_seconds=args.health_interval,
            request_timeout_seconds=args.timeout,
        )
    except ValueError as exc:
        print(f"gateway: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return asyncio.run(run_front(Gateway, config))
    except KeyboardInterrupt:
        return 0


def _cmd_dist_worker(args: argparse.Namespace) -> int:
    from multiprocessing import AuthenticationError

    from repro.dist.worker import connect_and_serve

    address = _parse_hostport(args.connect)
    if address is None:
        print(
            f"--connect must look like HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    authkey = os.environ.get("REPRO_DIST_AUTHKEY", "")
    if not authkey:
        print(
            "dist-worker: set REPRO_DIST_AUTHKEY to the coordinator's "
            "shared secret",
            file=sys.stderr,
        )
        return EXIT_USAGE
    # The coordinator binds its listener lazily, when the first parallel
    # solve starts — a worker launched alongside it races that moment, so
    # a refused connection is retried for a bounded window.
    deadline = time.monotonic() + max(0.0, args.retry_seconds)
    try:
        while True:
            try:
                connect_and_serve(
                    *address, authkey.encode("utf-8"), worker_id=args.id
                )
                return 0
            except ConnectionRefusedError as exc:
                if time.monotonic() >= deadline:
                    print(f"dist-worker: {exc}", file=sys.stderr)
                    return 1
                time.sleep(0.5)
    except KeyboardInterrupt:
        return 0
    except (OSError, EOFError, AuthenticationError) as exc:
        print(f"dist-worker: {exc}", file=sys.stderr)
        return 1


def _dist_listen_args(args: argparse.Namespace, command: str):
    """Validated ``(listen, authkey, error_code)`` for a --dist-listen flag.

    ``error_code`` is ``None`` on success (including the flag being absent);
    otherwise it is the exit code to return after the printed diagnostic.
    """
    if not getattr(args, "dist_listen", None):
        return None, None, None
    address = _parse_hostport(args.dist_listen)
    if address is None:
        print(
            f"--dist-listen must look like HOST:PORT, got "
            f"{args.dist_listen!r}",
            file=sys.stderr,
        )
        return None, None, EXIT_USAGE
    authkey = os.environ.get("REPRO_DIST_AUTHKEY", "")
    if not authkey:
        print(
            f"{command}: --dist-listen requires the REPRO_DIST_AUTHKEY env "
            "var (shared secret remote workers authenticate with)",
            file=sys.stderr,
        )
        return None, None, EXIT_USAGE
    return address, authkey.encode("utf-8"), None


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.obs import ledger as run_ledger
    from repro.service import LoadGenConfig, render_summary, run_loadgen

    dist_listen, dist_authkey, code = _dist_listen_args(args, "bench-serve")
    if code is not None:
        return code
    if dist_listen is not None and args.url:
        print(
            "bench-serve: --dist-listen applies to the in-process server; "
            "it cannot reconfigure an existing --url server",
            file=sys.stderr,
        )
        return EXIT_USAGE
    config = LoadGenConfig(
        benchmark=args.benchmark,
        scale=args.scale,
        ratio_percent=args.ratio,
        method=args.method,
        workers=args.workers,
        exec_backend=args.exec_backend,
        qps=args.qps,
        requests=args.requests,
        concurrency=args.concurrency,
        warmup=args.warmup,
        timeout_seconds=args.timeout,
        verify=args.verify,
        url=args.url,
        trace_out=args.trace_out,
        dist_listen=dist_listen,
        dist_authkey=dist_authkey,
        eco_rounds=args.eco_rounds,
        eco_release_k=args.eco_release_k,
        gateway=args.gateway,
        shards=args.shards,
        failover_requests=args.failover_requests,
        cache_capacity=args.cache_capacity,
    )
    if args.gateway and args.url:
        print(
            "bench-serve: --gateway spins up its own in-process fleet; "
            "it cannot be combined with --url",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        result = run_loadgen(config)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"bench-serve: {exc}", file=sys.stderr)
        return 1
    print(render_summary(result))
    if args.ledger:
        run_ledger.append_entry(args.ledger, result.entry)
        print(f"appended serve-ledger entry to {args.ledger}")
    if not result.passed:
        print("bench-serve FAILED (inconsistent, erroring, or unverified "
              "responses; see summary above)", file=sys.stderr)
        return 1
    return 0


def _traced_root(name: str, trace_out: Optional[str], **attrs):
    """Start a root span for a whole CLI command; returns (span, trace_id).

    Mirrors ``repro run``'s one-trace-per-invocation discipline so the
    exported file passes ``repro obs trace summary --check``.
    """
    from repro import obs

    if not trace_out:
        return None, None
    obs.tracer.enable()
    trace_id = obs.tracer.new_trace_id()
    span = obs.tracer.start_span(
        name, ctx=obs.tracer.TraceContext(trace_id), **attrs
    )
    obs.tracer.attach(obs.tracer.TraceContext(trace_id, span.id))
    return span, trace_id


def _finish_trace(span, trace_id, trace_out: Optional[str]):
    """Finish the root span and export; returns the ledger trace stamp."""
    from repro import obs

    if span is None:
        return None
    span.finish()
    count = obs.tracer.export_jsonl(trace_out)
    print(f"wrote {count} spans to {trace_out} (trace {trace_id})")
    return {"trace_id": trace_id, "file": trace_out, "spans": count}


def _cmd_closure(args: argparse.Namespace) -> int:
    from repro.eco import ClosureConfig, render_closure, run_closure

    try:
        config = ClosureConfig(
            benchmark=args.benchmark,
            scale=args.scale,
            method=args.method,
            critical_ratio=args.ratio / 100.0,
            workers=args.workers,
            exec_backend=args.exec_backend,
            release_k=args.release_k,
            max_rounds=args.max_rounds,
            min_gain=args.min_gain,
        )
    except ValueError as exc:
        print(f"closure: {exc}", file=sys.stderr)
        return EXIT_USAGE
    span, trace_id = _traced_root(
        "closure", args.trace_out,
        benchmark=args.benchmark, method=args.method,
    )
    trace_info = (
        {"trace_id": trace_id, "file": args.trace_out} if span else None
    )
    try:
        result = run_closure(
            config, ledger_path=args.ledger, trace_info=trace_info
        )
    except (ValueError, KeyError) as exc:
        print(f"infeasible or invalid input: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _finish_trace(span, trace_id, args.trace_out)
    print(render_closure(result))
    if args.ledger:
        print(
            f"appended {len(result.rounds)} closure entries to {args.ledger}"
        )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eco import SweepConfig, render_sweep, run_sweep

    def csv(text: str, cast):
        try:
            values = tuple(cast(t.strip()) for t in text.split(",") if t.strip())
        except ValueError:
            values = ()
        return values

    partition_sizes = csv(args.partition_sizes, int)
    alphas = csv(args.alphas, float)
    rhos = csv(args.rhos, float)
    ratio_pcts = csv(args.ratios, float)
    if not (partition_sizes and alphas and rhos and ratio_pcts):
        print(
            "sweep: --partition-sizes/--alphas/--rhos/--ratios must each "
            "be a non-empty comma-separated list of numbers",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if any(p < 1 for p in partition_sizes):
        print("sweep: partition sizes must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if any(not 0 < r <= 100 for r in ratio_pcts):
        print("sweep: ratios are percentages in (0, 100]", file=sys.stderr)
        return EXIT_USAGE
    config = SweepConfig(
        benchmark=args.benchmark,
        scale=args.scale,
        method=args.method,
        workers=args.workers,
        exec_backend=args.exec_backend,
        partition_sizes=partition_sizes,
        alphas=alphas,
        rhos=rhos,
        ratios=tuple(r / 100.0 for r in ratio_pcts),
    )
    span, trace_id = _traced_root(
        "sweep", args.trace_out,
        benchmark=args.benchmark, method=args.method,
        points=len(config.points()),
    )
    trace_info = (
        {"trace_id": trace_id, "file": args.trace_out} if span else None
    )
    try:
        result = run_sweep(
            config, ledger_path=args.ledger, trace_info=trace_info
        )
    except (ValueError, KeyError) as exc:
        print(f"infeasible or invalid input: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _finish_trace(span, trace_id, args.trace_out)
    print(render_sweep(result))
    if args.ledger:
        print(
            f"appended {len(result.points)} sweep entries to {args.ledger}"
        )
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_cli_logging(getattr(args, "verbose", False))
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "table2": _cmd_table2,
        "density": _cmd_density,
        "evaluate": _cmd_evaluate,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
        "gateway": _cmd_gateway,
        "bench-serve": _cmd_bench_serve,
        "dist-worker": _cmd_dist_worker,
        "closure": _cmd_closure,
        "sweep": _cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
