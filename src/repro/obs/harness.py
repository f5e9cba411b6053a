"""Shared plumbing of the snapshot harnesses under ``benchmarks/``.

``bench_hotpath.py``, ``bench_scale.py`` and ``bench_eco.py`` each keep
their measurement function and snapshot schema; this module holds the
arguments they share, the best-of-N loop behind ``--repeat``, and the
labelled snapshot file, which keeps one snapshot per ``--label``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from typing import Any, Callable, Dict, List, Optional, TypeVar

from repro.ispd.request import EXEC_BACKENDS
from repro.obs.ledger import git_commit

T = TypeVar("T")


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def parser(
    description: str,
    out: str,
    scale: float,
    exec_backend: str,
    check: str,
    repeat: Optional[str] = None,
) -> argparse.ArgumentParser:
    """An argument parser holding the arguments every harness takes.

    ``out``, ``scale`` and ``exec_backend`` are the harness's defaults;
    ``check`` is the help of its ``--check`` and ``repeat`` the help of
    its ``--repeat`` (a harness that passes none has no ``--repeat``).
    """
    p = argparse.ArgumentParser(description=description)
    p.add_argument(
        "--label", required=True, help="snapshot label (baseline/current)"
    )
    p.add_argument("--out", default=out)
    p.add_argument("--scale", type=float, default=scale)
    p.add_argument(
        "--ratio", type=float, default=0.5, help="critical ratio in percent"
    )
    p.add_argument("--method", default="sdp", choices=["sdp", "ilp"])
    p.add_argument("--workers", type=int, default=0)
    p.add_argument(
        "--exec", dest="exec_backend", default=exec_backend,
        choices=EXEC_BACKENDS,
        help="leaf-solve execution backend (see `repro run --help`)",
    )
    if repeat:
        p.add_argument(
            "--repeat", type=_at_least_one, default=1, metavar="N",
            help=repeat,
        )
    p.add_argument("--check", action="store_true", help=check)
    return p


def best_of(
    repeat: int,
    names: List[str],
    measure: Callable[[str], T],
    seconds: Callable[[T], float],
) -> Dict[str, T]:
    """Each name's fastest measurement out of ``repeat`` rounds.

    Every round measures every name in order; ``seconds`` reads the time
    a measurement is ranked by.
    """
    best: Dict[str, T] = {}
    for round_index in range(repeat):
        if round_index:
            print(f"-- repeat {round_index + 1}/{repeat}", flush=True)
        for name in names:
            result = measure(name)
            if name not in best or seconds(result) < seconds(best[name]):
                best[name] = result
    return best


def write_snapshot(
    args: argparse.Namespace,
    schema: str,
    suite: Dict[str, Any],
    results: Dict[str, Any],
    methodology: Optional[str] = None,
    improvement: Optional[Callable[[dict, dict], dict]] = None,
) -> None:
    """Record ``results`` as the ``args.label`` snapshot in ``args.out``.

    The snapshot's ``suite`` holds the common settings of ``args`` and the
    harness's own ``suite`` settings.  The file keeps the snapshots of
    other labels unless it holds another schema.  Once it has both a
    ``baseline`` and a ``current`` snapshot, ``improvement(baseline,
    current)`` fills its ``improvement`` section.
    """
    data: Dict[str, Any] = {"schema": schema}
    if methodology:
        data["methodology"] = methodology
    data["runs"] = {}
    if os.path.exists(args.out):
        try:
            with open(args.out, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            if existing.get("schema") == schema:
                data = existing
        except (OSError, ValueError):
            pass
    runs = data.setdefault("runs", {})
    runs[args.label] = {
        "label": args.label,
        "commit": git_commit(),
        "python": platform.python_version(),
        "suite": {
            "scale": args.scale,
            "ratio_percent": args.ratio,
            "method": args.method,
            "workers": args.workers,
            "exec": args.exec_backend,
            **suite,
        },
        **results,
    }
    if improvement and "baseline" in runs and "current" in runs:
        data["improvement"] = improvement(runs["baseline"], runs["current"])
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.label} snapshot to {args.out}")
