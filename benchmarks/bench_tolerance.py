"""ADMM stop sweep: runtime and quality side by side, one row per setting.

A leaf's SDP only feeds the post-mapping, which reads the relaxed
diagonal and rounds it, so how far each leaf's ADMM runs is a trade of
iterations against the final assignment.  This bench sweeps
``SdpRelaxationConfig.settings.tolerance`` over :data:`TOLERANCES`
(``max_iterations`` 1200 and ``check_every`` 10 fixed; the kernel's
rounding exit, whose primal guard scales with the tolerance, is on in
every row), plus a 10-iteration cap as a reference point, on three
inputs:

- ``suite``: the Table 2 suite at scale 1, ratio 0.5 %, with the default
  Gauss-Seidel schedule; TILA runs once per design for the win count;
- ``oneshot``: perfbench's 24 oneshot instances (``--seconds 25``),
  written and parsed as perfbench does, ``exec_backend="batch"``;
- ``serve``: perfbench's 4 serve designs in the resident pattern: a cold
  solve, then rewind and rerun on the warm engine four times.

Suite and oneshot designs are rewound and rerun once too.  Columns: SDP
seconds (engine runtime of the cold solves, summed), warm seconds (mean
rerun), member iterations (ADMM iterations summed over leaf solves of the
cold solves), Avg/Max(Tcp), OV#, via#, and warm == fresh: the designs
whose every rerun gave the cold solve's digest, of all designs.
Avg/Max(Tcp) are means over designs; for oneshot they are perfbench's
``avg_tcp_ratio``/``max_tcp_ratio`` (final / initial).

    PYTHONPATH=src python benchmarks/bench_tolerance.py --out sweep.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))

from repro.core.engine import CPLAConfig, CPLAEngine  # noqa: E402
from repro.core.sdp_relaxation import SdpRelaxationConfig  # noqa: E402
from repro.ispd.request import assignment_digest  # noqa: E402
from repro.ispd.suite import SUITE  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.pipeline import prepare, run_method  # noqa: E402
from repro.solver.sdp import SDPSettings  # noqa: E402

import inputs as perf_inputs  # noqa: E402
from oneshot import job_count  # noqa: E402
from serve import DESIGNS as SERVE_DESIGNS  # noqa: E402

TOLERANCES = (2e-4, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2)
# (label, tolerance, max_iterations); the cap row stops every leaf at 10.
SETTINGS: Tuple[Tuple[str, float, int], ...] = tuple(
    (f"tol {t:g}", t, 1200) for t in TOLERANCES
) + (("cap 10 it", 2e-4, 10),)
SERVE_RERUNS = 4


@dataclass
class Row:
    input: str
    setting: str
    sdp_s: float = 0.0
    warm_s: List[float] = field(default_factory=list)
    member_iters: int = 0
    avg_tcp: List[float] = field(default_factory=list)
    max_tcp: List[float] = field(default_factory=list)
    via_overflow: int = 0
    vias: int = 0
    designs: int = 0
    warm_equals_fresh: int = 0  # designs whose every rerun gave the digest
    tila_wins: Optional[int] = None  # designs where SDP beats TILA on Avg

    def summary(self) -> Dict:
        return {
            "input": self.input,
            "setting": self.setting,
            "sdp_s": round(self.sdp_s, 3),
            "warm_s": round(statistics.fmean(self.warm_s), 3),
            "member_iters": self.member_iters,
            "avg_tcp": statistics.fmean(self.avg_tcp),
            "max_tcp": statistics.fmean(self.max_tcp),
            "via_overflow": self.via_overflow,
            "vias": self.vias,
            "designs": self.designs,
            "warm_equals_fresh": self.warm_equals_fresh,
            "sdp_beats_tila_avg": self.tila_wins,
        }


def _config(tolerance: float, max_iterations: int, **kwargs) -> CPLAConfig:
    settings = SDPSettings(tolerance=tolerance, max_iterations=max_iterations)
    return CPLAConfig(sdp=SdpRelaxationConfig(settings=settings), **kwargs)


def _solve(row: Row, bench, config: CPLAConfig, reruns: int, ratios: bool):
    """Cold solve plus ``reruns`` rewound warm reruns; adds to ``row``."""
    metrics.disable()  # clears the registry: the counters are this solve's
    metrics.enable()
    with CPLAEngine(bench, config) as engine:
        baseline = engine.snapshot_layers()
        report = engine.run()
        counters = metrics.registry().as_dict()["counters"]
        digest = assignment_digest(bench)
        same = True
        for _ in range(reruns):
            engine.restore_layers(baseline)
            row.warm_s.append(engine.run().runtime)
            same &= assignment_digest(bench) == digest
    metrics.disable()
    row.designs += 1
    row.warm_equals_fresh += same
    row.sdp_s += report.runtime
    row.member_iters += int(counters.get("sdp.iterations", 0))
    if ratios:
        row.avg_tcp.append(report.final_avg_tcp / report.initial_avg_tcp)
        row.max_tcp.append(report.final_max_tcp / report.initial_max_tcp)
    else:
        row.avg_tcp.append(report.final_avg_tcp)
        row.max_tcp.append(report.final_max_tcp)
    row.via_overflow += report.final_via_overflow
    row.vias += report.final_vias
    return report


def sweep_suite(settings) -> List[Row]:
    tila = {
        name: run_method(prepare(name), "tila").final_avg_tcp for name in SUITE
    }
    rows = []
    for label, tol, cap in settings:
        row = Row("suite", label, tila_wins=0)
        for name in SUITE:
            report = _solve(row, prepare(name), _config(tol, cap), 1, False)
            row.tila_wins += report.final_avg_tcp < tila[name]
        rows.append(row)
    return rows


def sweep_oneshot(settings) -> List[Row]:
    from repro.ispd.parser import parse_ispd08
    from repro.ispd.writer import write_ispd08

    jobs = sorted(perf_inputs.oneshot_jobs(1, job_count(25)),
                  key=lambda job: job.index)
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        paths = []
        for job in jobs:
            path = Path(workdir) / f"job{job.index:03d}-{job.name}.gr"
            write_ispd08(perf_inputs.generate_instance(job), str(path))
            paths.append(path)
        for label, tol, cap in settings:
            row = Row("oneshot", label)
            for job, path in zip(jobs, paths):
                bench = prepare(parse_ispd08(str(path), name=job.name))
                config = _config(tol, cap, critical_ratio=job.ratio_percent / 100,
                                 exec_backend="batch")
                _solve(row, bench, config, 1, True)
            rows.append(row)
    return rows


def sweep_serve(settings) -> List[Row]:
    rows = []
    for label, tol, cap in settings:
        row = Row("serve", label)
        for name, scale, ratio in SERVE_DESIGNS:
            config = _config(tol, cap, critical_ratio=ratio / 100)
            _solve(row, prepare(name, scale=scale), config, SERVE_RERUNS, False)
        rows.append(row)
    return rows


def render(rows: List[Dict]) -> str:
    lines = [
        "| input | setting | SDP s | warm s | member_iters | Avg(Tcp) "
        "| Max(Tcp) | OV# | via# | warm == fresh |",
        "|---|---|---:|---:|---:|---:|---:|---:|---:|---|",
    ]
    for r in rows:
        wins = r["sdp_beats_tila_avg"]
        tag = "" if wins is None else f" (beats TILA on {wins})"
        lines.append(
            f"| {r['input']} | {r['setting']} | {r['sdp_s']:.1f} "
            f"| {r['warm_s']:.2f} | {r['member_iters']} "
            f"| {r['avg_tcp']:.5g}{tag} | {r['max_tcp']:.5g} "
            f"| {r['via_overflow']} | {r['vias']} "
            f"| {r['warm_equals_fresh']}/{r['designs']} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the rows as JSON here")
    args = parser.parse_args(argv)
    rows = []
    for sweep in (sweep_suite, sweep_oneshot, sweep_serve):
        start = time.perf_counter()
        rows += [row.summary() for row in sweep(SETTINGS)]
        print(f"{sweep.__name__}: {time.perf_counter() - start:.0f} s",
              file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1) + "\n")
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
