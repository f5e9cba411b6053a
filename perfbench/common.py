"""Shared pieces of the benchmark: paths, operation log, statistics, run record.

Nothing here imports the program; :func:`require_program` puts the
checkout's ``src`` directory on ``sys.path`` (and refuses to run without it),
so every workload measures the source tree it was started from.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Failure kinds of the correctness gate (see README.md).
HTTP_ERROR = "http_error"
DIGEST_MISMATCH = "digest_mismatch"
INVALID_SOLUTION = "invalid_solution"


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def require_program() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` or raise :class:`ProgramMissing`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(name: str) -> Path:
    """A fresh scratch directory inside the checkout (removed by the caller)."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def derive_seed(*parts: object) -> int:
    """A stable 31-bit seed from the run seed and a label (no ``hash()``)."""
    blob = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") >> 1


# -- operations and failures -------------------------------------------------


@dataclass
class Failure:
    index: int
    kind: str
    defect: Optional[str]  # letter of a known defect in README.md, or None
    detail: str


@dataclass
class OpLog:
    """Outcome of every timed operation of one run.

    An operation fails at most once: the first failed check names its
    kind.  ``defect`` attributes a failure to a known defect listed in
    README.md; a failure without one makes the run incorrect.
    """

    latencies: List[float] = field(default_factory=list)
    failures: Dict[int, Failure] = field(default_factory=dict)

    def record(self, seconds: float) -> int:
        self.latencies.append(seconds)
        return len(self.latencies) - 1

    def fail(self, index: int, kind: str, detail: str,
             defect: Optional[str] = None) -> None:
        if index not in self.failures:
            self.failures[index] = Failure(index, kind, defect, detail[:300])

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def unexplained(self) -> List[Failure]:
        return [f for f in self.failures.values() if f.defect is None]

    def failure_summary(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {defect-or-"unexplained": count}}``."""
        out: Dict[str, Dict[str, int]] = {}
        for failure in self.failures.values():
            bucket = out.setdefault(failure.kind, {})
            key = f"defect_{failure.defect}" if failure.defect else "unexplained"
            bucket[key] = bucket.get(key, 0) + 1
        return out


# -- statistics ----------------------------------------------------------------


def tail_percentile(values: Sequence[float]) -> Tuple[int, float]:
    """Highest whole percentile, from the median up, with ten samples beyond it.

    Nearest-rank: percentile ``p`` is the value at rank ``ceil(p n / 100)``
    of the sorted samples, and the samples beyond it are those of higher
    rank.  With fewer than 20 samples no percentile from the median up has
    ten beyond it; the maximum is then returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def latency_metrics(latencies: Sequence[float]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """``p50_ms``/``tail_ms`` plus the sample description printed beside them."""
    pct, tail = tail_percentile(latencies)
    values = {
        "p50_ms": 1000.0 * statistics.median(latencies),
        "tail_ms": 1000.0 * tail,
    }
    return values, {"n": len(latencies), "tail_percentile": pct}


def peak_rss_mb_self() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> Optional[float]:
    """Peak resident set of a live child process, from ``/proc`` (Linux)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# -- host and program description ------------------------------------------------


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a host-speed drift diagnostic."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def _blas_description() -> Dict[str, object]:
    import ctypes

    import numpy

    info: Dict[str, object] = {"vendor": None, "version": None,
                               "default_threads": None}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["vendor"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        pass
    # Ask the loaded BLAS itself for its thread count: that is the default
    # the program runs with, since the benchmark sets no *_NUM_THREADS.
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({
                line.split()[-1] for line in handle
                if "blas" in line.lower() and ".so" in line
            })
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["default_threads"] = int(fn())
                return info
    return info


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8"))
        h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_record(workload: str, seed: int, seconds: int,
               trace: bool) -> Dict[str, object]:
    """Everything needed to reproduce and interpret one run.

    The workload adds its parameters to ``params``.
    """
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": {},
        "commit": _commit(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_description(),
        "blas_thread_env": {
            k: os.environ[k] for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


# -- output ----------------------------------------------------------------------


def emit(record: Dict[str, object], log: OpLog,
         metrics: Dict[str, Tuple[float, str]],
         notes: Dict[str, object]) -> bool:
    """Print the readable report, then the one-line JSON result; returns correct.

    ``correct`` is true when every failed operation is attributed to a
    known defect; the failures themselves still count in ``failed``.
    """
    unexplained = log.unexplained()
    correct = not unexplained and log.attempted > 0
    width = max((len(k) for k in metrics), default=10)
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(bool(record['trace']))}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    for label, (layer, clock) in notes.get("layer_vs_clock", {}).items():
        print(f"  {label}: {layer:.6g} s/op, program clock {clock:.6g} s/op")
    if "n" in notes:
        print(f"  samples: n {notes['n']}, tail_ms is p{notes['tail_percentile']}, "
              f"setup_s is the median of {len(notes.get('setup_samples_s', []))}")
    print(f"  attempted {log.attempted}  failed {log.failed}  "
          f"failed_share {log.failed / max(log.attempted, 1):.4f}  "
          f"by kind {json.dumps(log.failure_summary(), sort_keys=True)}")
    for failure in unexplained[:10]:
        print(f"  UNEXPLAINED op {failure.index} {failure.kind}: {failure.detail}")
    notes = dict(notes, failures=log.failure_summary())
    print("record " + json.dumps(dict(record, notes=notes), sort_keys=True,
                                 default=str))
    result = {
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return correct
