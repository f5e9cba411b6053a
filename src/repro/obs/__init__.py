"""Observability: tracing spans, a metrics registry, and worker collection.

The subsystem is OFF by default and its disabled path is near-free: both
:func:`repro.obs.tracer.span` and the metric helpers check a module-level
flag and return shared no-op objects, so instrumentation can live inside
the engine hot loops without changing benchmark numbers.

Five modules:

- :mod:`repro.obs.tracer` — nestable spans (name, attrs, start/end,
  parent id) captured into an in-memory buffer, exportable as JSON-lines;
- :mod:`repro.obs.metrics` — process-wide counters, gauges, and
  fixed-bucket histograms behind a :class:`MetricsRegistry`, exportable as
  Prometheus-style text and as a plain dict;
- :mod:`repro.obs.convergence` — per-solve ADMM convergence curves and
  per-partition attribution records (why a run converged slowly, and in
  which leaf);
- :mod:`repro.obs.ledger` — the append-only JSON-lines run ledger and the
  diff/regression-check logic behind ``repro obs``;
- :mod:`repro.obs.collect` — merges traces/metrics/convergence
  records/wall-clock phases returned from dist fabric workers back into
  the parent process (per-leaf telemetry from Jacobi-mode solves
  would otherwise be lost with the worker process).

Naming and usage conventions are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.obs import collect, convergence, ledger, metrics, tracer
from repro.obs.collect import WorkerTelemetry, capture_worker_telemetry, merge_worker_telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, span


def enable() -> None:
    """Turn on tracing, metrics, and convergence recording."""
    tracer.enable()
    metrics.enable()
    convergence.enable()


def disable() -> None:
    """Turn off and clear tracing, metrics, and convergence recording."""
    tracer.disable()
    metrics.disable()
    convergence.disable()


def is_enabled() -> bool:
    return tracer.is_enabled() or metrics.is_enabled() or convergence.is_enabled()


__all__ = [
    "MetricsRegistry",
    "Span",
    "WorkerTelemetry",
    "capture_worker_telemetry",
    "collect",
    "convergence",
    "disable",
    "enable",
    "is_enabled",
    "ledger",
    "merge_worker_telemetry",
    "metrics",
    "span",
    "tracer",
]
