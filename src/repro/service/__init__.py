"""Serving layer: a resident async batch job server over the optimizers.

The one-shot CLI pays process startup, routing and worker spawning on
every invocation.  This package keeps that state **resident** and serves
assignment requests over HTTP:

- :mod:`repro.service.jobs` — bounded job queue with backpressure (429 +
  ``Retry-After``), per-job deadlines, and cancellation of expired work;
- :mod:`repro.service.resident` — prepared benchmarks + warm engines
  (Elmore fingerprint cache, leaf backend with its worker processes)
  cached per problem signature in a capacity-bounded LRU;
- :mod:`repro.service.batcher` — single-dispatcher batch scheduler that
  dedups same-signature jobs into one engine run and fans the result out;
- :mod:`repro.service.http` — the serving tier's one HTTP edge, shared
  with the fleet gateway: request parsing, ``traceparent`` continuation
  and the request span, the 400/404/405 and crash-isolating 500 replies,
  the ``<prefix>.request_seconds``/``<prefix>.http_<status>`` metrics,
  trace ids on every reply, the signal-aware serve loop, the in-process
  thread host and the HTTP/1.1 client;
- :mod:`repro.service.server` — the shard's routes on that edge
  (``/v1/assign``, ``/v1/eco``, ``/metrics``, ``/healthz``, ``/readyz``,
  ``/v1/drain``) and its graceful SIGTERM drain;
- :mod:`repro.service.loadgen` — the ``repro bench-serve`` load
  generator, which writes ``repro.run_ledger/v1`` entries so serving
  regressions gate in CI exactly like solve regressions.

Serving is exact: a served assignment is bit-identical to the same
problem solved by ``repro run`` (checked by ``bench-serve --verify`` and
the test suite).  See ``docs/SERVING.md``.
"""

from __future__ import annotations

from repro.service.batcher import BatchScheduler, JobConflict, JobFailed
from repro.service.http import FrontThread, http_request
from repro.service.jobs import Job, JobExpired, JobQueue, QueueClosed, QueueFull
from repro.service.loadgen import (
    LoadGenConfig,
    LoadGenResult,
    render_summary,
    run_loadgen,
)
from repro.service.resident import EngineHost, ResidentEngine, StaleEpoch
from repro.service.server import AssignServer, ServeConfig

__all__ = [
    "AssignServer",
    "BatchScheduler",
    "EngineHost",
    "FrontThread",
    "Job",
    "JobConflict",
    "JobExpired",
    "JobFailed",
    "JobQueue",
    "LoadGenConfig",
    "LoadGenResult",
    "QueueClosed",
    "QueueFull",
    "ResidentEngine",
    "ServeConfig",
    "StaleEpoch",
    "http_request",
    "render_summary",
    "run_loadgen",
]
