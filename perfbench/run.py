"""Benchmark entry point: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oneshot|eco|serve --seed N \
        --seconds S --trace 0|1

The run builds nothing: the program is imported from ``src/`` of the
checkout.  Inputs derive from ``--seed``; ``--seconds`` sets how many
operations the run performs (each workload's nominal rate times the
seconds), so one seed and one length always do identical work.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see BENCHMARK.json).  Both check every operation.  The last line
of standard output is one JSON object; readable lines and a ``record``
line (commit, versions, BLAS, parameters, samples) come before it.
``correct`` is false when an operation failed a check that no known defect
explains.  The exit code is 0 once the result line is printed and 2,
without a result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import common
import layers

WORKLOADS = ("oneshot", "eco", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    """Run one workload; returns (record, log, metrics, notes)."""
    import eco
    import oneshot
    import serve

    module = {"oneshot": oneshot, "eco": eco, "serve": serve}[workload]
    record = common.run_record(workload, seed, seconds, trace)
    host_before = common.reference_loop_ms()
    workdir = common.work_dir(f"{workload}-{seed}")
    try:
        log, metrics, notes = module.run(seed, seconds, trace, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes["host_ref_loop_ms"] = [host_before, common.reference_loop_ms()]
    if trace:
        notes["layer_vs_clock"] = layers.layer_vs_clock(metrics)
    return record, log, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.require_program()
    except common.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record, log, metrics, notes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    common.emit(record, log, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
