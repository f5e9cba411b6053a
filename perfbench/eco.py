"""``eco``: incremental closure on one committed design, in-process.

Set-up prepares the suite's ``adaptec1`` at scale 2 and commits a full
solve with ``exec_backend="seq"`` (the ``closure``/``sweep`` default).  The
design is the suite instance, the same for every seed, so set-up does the
same work on every run; the seed orders the edit stream.  The timed phase is
that stream through ``EcoEngine.apply``: edit sets of 1-5 resized nets, one
capacity change or one reroute, with a ``release_nets worst=k`` round
closing every cycle of :data:`inputs.ECO_CYCLE`.

Gate: ``validate_solution`` after every apply (outside the timed
intervals), and every apply's digest must equal the digest a cold replay
of the whole history reaches at the same step: a fresh prepare, a full
solve and the same edit sets applied in order.  The replay is the second
set-up sample; in a traced run it also serves as the untraced reference.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import common
import inputs
import tracing
from layers import per_layer_metrics

DESIGN = ("adaptec1", 2.0, 0.5)  # suite name, scale, critical ratio in %
RELEASE_K = 8
# Edit sets per second of --seconds; the stream, hence the work, is fixed
# by seed and seconds.  Applies run at about four a second on a 2-core
# x86-64 VM, but each also pays a validation and a replay step outside the
# timed phase, so the stream fills about two thirds of --seconds.
APPLIES_PER_SECOND = 2.7
MIN_APPLIES = 2 * len(inputs.ECO_CYCLE)


def apply_count(seconds: int) -> int:
    return max(MIN_APPLIES, round(seconds * APPLIES_PER_SECOND))


def set_up():
    """Prepare the design and commit the full solve; returns (engine, seconds)."""
    from repro import pipeline
    from repro.core import engine as engine_mod

    name, scale, ratio = DESIGN
    start = time.perf_counter()
    bench = pipeline.prepare(name, scale=scale)
    engine = engine_mod.CPLAEngine(bench, engine_mod.CPLAConfig(
        critical_ratio=ratio / 100.0, exec_backend="seq",
    ))
    engine.run()
    return engine, time.perf_counter() - start


def stream(engine, batches, on_apply=None) -> List[Tuple[float, float, object]]:
    """Apply every edit set; returns ``(start, seconds, report)`` per apply."""
    from repro.eco import engine as eco_mod

    eco = eco_mod.EcoEngine(engine)
    out = []
    for index, (_, edits) in enumerate(batches):
        start = time.perf_counter()
        report = eco.apply(edits)
        seconds = time.perf_counter() - start
        out.append((start, seconds, report))
        if on_apply is not None:
            on_apply(index)
    return out


def run(seed: int, seconds: int, trace: bool, workdir: Path, record: Dict):
    from repro.route.validation import validate_solution

    name, scale, _ = DESIGN
    batches = inputs.eco_stream(
        seed, apply_count(seconds), inputs.design_of(name, scale), RELEASE_K
    )
    record["params"].update(
        design=list(DESIGN), exec_backend="seq", applies=len(batches),
        release_k=RELEASE_K, cycle=list(inputs.ECO_CYCLE),
    )

    log = common.OpLog()
    engine, setup_1 = set_up()
    bench = engine.bench
    recorder = tracing.Recorder() if trace else None
    restore = tracing.install(recorder) if trace else []

    def check(index: int) -> None:
        validation = validate_solution(bench)
        if not validation.ok:
            log.fail(index, common.INVALID_SOLUTION,
                     "validate_solution: " + "; ".join(validation.errors[:3]))

    applied = stream(engine, batches, on_apply=check)
    tracing.uninstall(restore)
    for _, secs, _ in applied:
        log.record(secs)
    final_via_overflow = bench.grid.total_via_overflow()
    final_vias = bench.grid.total_vias()
    engine.close()
    del engine, bench
    gc.collect()

    # Cold replay of the whole history from a fresh state.
    replay_engine, setup_2 = set_up()
    replayed = stream(replay_engine, batches)
    replay_engine.close()
    for index, ((_, _, mine), (_, _, cold)) in enumerate(zip(applied, replayed)):
        if mine.digest != cold.digest:
            log.fail(index, common.DIGEST_MISMATCH,
                     f"apply {index}: incremental {mine.digest} != "
                     f"cold replay {cold.digest}")

    timed_s = sum(secs for _, secs, _ in applied)
    notes: Dict[str, object] = {
        "setup_samples_s": [setup_1, setup_2],
        "timed_phase_s": timed_s,
        "replay_phase_s": sum(secs for _, secs, _ in replayed),
    }
    if not trace:
        latency, sample = common.latency_metrics(log.latencies)
        notes.update(sample)
        reports = [report for _, _, report in applied]
        metrics = {
            "setup_s": (statistics.median([setup_1, setup_2]), "s"),
            "p50_ms": (latency["p50_ms"], "ms"),
            "tail_ms": (latency["tail_ms"], "ms"),
            "ops_per_s": (len(applied) / timed_s, "1/s"),
            "ok_share": (1.0 - log.failed / log.attempted, "ratio"),
            "avg_tcp_ratio": (statistics.fmean(
                r.post_avg_tcp / r.pre_avg_tcp for r in reports), "ratio"),
            "max_tcp_ratio": (statistics.fmean(
                r.post_max_tcp / r.pre_max_tcp for r in reports), "ratio"),
            "via_overflow": (final_via_overflow, "count"),
            "vias": (final_vias, "count"),
            "peak_rss_mb": (common.peak_rss_mb_self(), "MB"),
        }
        return log, metrics, notes

    overhead = statistics.median(
        secs / cold for (_, secs, _), (_, cold, _) in zip(applied, replayed)
    ) - 1.0
    window = tracing.Window(
        recorder, [(start, start + secs) for start, secs, _ in applied]
    )
    metrics = per_layer_metrics(
        window, len(applied), timed_s, serve=False,
        client={"overhead_share": overhead},
    )
    return log, metrics, notes
