"""``oneshot``: cold batch jobs in a closed loop, one at a time, in-process.

Set-up generates one seeded instance per job and writes it as an ISPD'08
``.gr`` file.  A job is the paper's Table 2 flow on one file:
``parse_ispd08`` -> ``prepare`` -> ``CPLAEngine.run`` (``exec_backend=
"batch"``) -> assignment digest.  No input is ever solved twice in a run,
so nothing the program could cache carries from one job to the next.

Gate, outside the timed intervals: after every job ``validate_solution``
must be ok and final Avg/Max(Tcp) may not exceed the initial values; once
per run the first job is solved again with ``exec_backend="seq"`` and must
give the same digest (the backends' documented bit-identity).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import common
import inputs
import tracing
from layers import per_layer_metrics

# Jobs per second of --seconds; the job list, hence the work, is fixed by
# seed and seconds.  A job takes 1.1-1.5 s on a 2-core x86-64 VM.  At 25 s
# this gives 24 jobs, so tail_ms is a percentile (p58) rather than the
# maximum, which is a single job's time and as noisy as one job.
JOBS_PER_SECOND = 0.96
MIN_JOBS = 8
# Set-up samples per run: the run's own set-up, then repeats between jobs
# (outside the timed intervals).  One set-up takes about 0.3 s, so samples
# taken back to back all see the host at one instant, and on a shared host
# their median moved 2x from run to run; spread over the run, they see the
# same host as the jobs do.
SETUP_SAMPLES = 9
_REL_TOL = 1e-9


@dataclass
class JobResult:
    seconds: float
    start: float
    digest: str
    report: object
    bench: object


def job_count(seconds: int) -> int:
    return max(MIN_JOBS, round(seconds * JOBS_PER_SECOND))


def set_up(jobs: List[inputs.OneshotJob], workdir: Path) -> Tuple[List[Path], float]:
    """Generate and write every job's instance; returns paths and seconds."""
    from repro.ispd.writer import write_ispd08

    start = time.perf_counter()
    paths = []
    for job in jobs:
        path = workdir / f"job{job.index:03d}-{job.name}.gr"
        write_ispd08(inputs.generate_instance(job), str(path))
        paths.append(path)
    return paths, time.perf_counter() - start


def run_job(job: inputs.OneshotJob, path: Path, backend: str = "batch") -> JobResult:
    # Resolve every call through its module at call time, so wrappers
    # installed by a traced run are the ones called.
    from repro import pipeline
    from repro.core import engine as engine_mod
    from repro.ispd import parser as ispd_parser
    from repro.ispd import request as ispd_request

    start = time.perf_counter()
    bench = ispd_parser.parse_ispd08(str(path), name=job.name)
    pipeline.prepare(bench)
    config = engine_mod.CPLAConfig(
        critical_ratio=job.ratio_percent / 100.0, exec_backend=backend
    )
    with engine_mod.CPLAEngine(bench, config) as engine:
        report = engine.run()
    digest = ispd_request.assignment_digest(bench)
    end = time.perf_counter()
    return JobResult(end - start, start, digest, report, bench)


def check_job(log: common.OpLog, index: int, result: JobResult) -> None:
    from repro.route.validation import validate_solution

    validation = validate_solution(result.bench)
    if not validation.ok:
        log.fail(index, common.INVALID_SOLUTION,
                 "validate_solution: " + "; ".join(validation.errors[:3]))
        return
    r = result.report
    if r.final_avg_tcp > r.initial_avg_tcp * (1 + _REL_TOL) or \
            r.final_max_tcp > r.initial_max_tcp * (1 + _REL_TOL):
        log.fail(index, common.INVALID_SOLUTION,
                 f"final Tcp above initial: avg {r.initial_avg_tcp:.6g}->"
                 f"{r.final_avg_tcp:.6g}, max {r.initial_max_tcp:.6g}->"
                 f"{r.final_max_tcp:.6g}")


def run(seed: int, seconds: int, trace: bool, workdir: Path, record: Dict):
    jobs = inputs.oneshot_jobs(seed, job_count(seconds))
    paths, setup_s = set_up(jobs, workdir)
    setups = [setup_s]
    repeat_dir = workdir / "setup-repeat"
    repeat_dir.mkdir()
    repeat_every = max(1, len(jobs) // (SETUP_SAMPLES - 1))
    record["params"].update(
        jobs=len(jobs), shapes=[list(s) for s in inputs.ONESHOT_SHAPES],
        exec_backend="batch", setup_samples=SETUP_SAMPLES,
    )

    log = common.OpLog()
    # A traced run solves the first third of the jobs untraced as well,
    # each right before its traced twin; their ratio is the overhead.
    paired = max(1, len(jobs) // 3) if trace else 0
    untraced: List[JobResult] = []
    recorder = tracing.Recorder()
    results: List[JobResult] = []
    for job, path in zip(jobs, paths):
        if len(untraced) < paired:
            untraced.append(run_job(job, path))
        restore = tracing.install(recorder) if trace else []
        try:
            result = run_job(job, path)
        finally:
            tracing.uninstall(restore)
        index = log.record(result.seconds)
        results.append(result)
        check_job(log, index, result)
        result.bench = None  # keep only one instance alive at a time
        if (index + 1) % repeat_every == 0 and len(setups) < SETUP_SAMPLES:
            setups.append(set_up(jobs, repeat_dir)[1])

    # Once per run: the batch digest must equal the seq digest.
    seq = run_job(jobs[0], paths[0], backend="seq")
    if seq.digest != results[0].digest:
        log.fail(0, common.DIGEST_MISMATCH,
                 f"batch {results[0].digest} != seq {seq.digest}")
    for index, reference in enumerate(untraced):
        if reference.digest != results[index].digest:
            log.fail(index, common.DIGEST_MISMATCH,
                     "traced digest differs from untraced digest")

    timed_s = sum(r.seconds for r in results)
    notes: Dict[str, object] = {
        "setup_samples_s": setups,
        "timed_phase_s": timed_s,
    }
    if not trace:
        latency, sample = common.latency_metrics(log.latencies)
        notes.update(sample)
        reports = [r.report for r in results]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "p50_ms": (latency["p50_ms"], "ms"),
            "tail_ms": (latency["tail_ms"], "ms"),
            "ops_per_s": (len(results) / timed_s, "1/s"),
            "ok_share": (1.0 - log.failed / log.attempted, "ratio"),
            "avg_tcp_ratio": (statistics.fmean(
                r.final_avg_tcp / r.initial_avg_tcp for r in reports), "ratio"),
            "max_tcp_ratio": (statistics.fmean(
                r.final_max_tcp / r.initial_max_tcp for r in reports), "ratio"),
            "via_overflow": (sum(r.final_via_overflow for r in reports), "count"),
            "vias": (sum(r.final_vias for r in reports), "count"),
            "peak_rss_mb": (common.peak_rss_mb_self(), "MB"),
        }
        return log, metrics, notes

    overhead = statistics.median(
        traced.seconds / plain.seconds for traced, plain in zip(results, untraced)
    ) - 1.0
    window = tracing.Window(
        recorder, [(r.start, r.start + r.seconds) for r in results]
    )
    metrics = per_layer_metrics(
        window, len(results), timed_s, serve=False,
        client={"overhead_share": overhead},
    )
    notes["overhead_jobs"] = len(untraced)
    return log, metrics, notes
