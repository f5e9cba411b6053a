"""Distributed solve fabric: fault-tolerant sharded leaf scheduling.

The paper's quadruple partition makes every leaf an independent SDP (or
ILP) solve; this package spreads them over a coordinator/worker fabric
that schedules leaves dynamically:

- :mod:`repro.dist.protocol` — the length-prefixed JSON task protocol
  spoken over :mod:`multiprocessing.connection`, so the same fabric
  drives in-process worker children today and remote hosts
  (``repro dist-worker --connect host:port``) tomorrow;
- :mod:`repro.dist.worker` — the worker loop: one resident solver with
  its ADMM warm caches, heartbeats, and the env-var fault-injection hook
  used by the fault tests and the CI ``dist-smoke`` job;
- :mod:`repro.dist.fabric` — the in-process leaf loop
  :class:`~repro.dist.fabric.InlineLeafSolver` and the
  :class:`~repro.dist.fabric.DistFabric` coordinator, both answering the
  engine's ``solve_many`` call: cost-model-ordered task heap (largest
  leaves first, to cut makespan), per-worker queues with work stealing,
  heartbeat liveness, crash/timeout retry with exponential backoff, and
  speculative re-dispatch of stragglers (first result wins; solves are
  deterministic, so the output stays bit-identical no matter which
  attempt lands).

The fabric serves ``CPLAConfig.exec_backend`` ``"dist"`` and ``"pool"``
with ``workers > 1`` (CLI: ``--exec dist --workers N``); scheduler
counters surface as ``dist.*`` metrics and as the ``scheduler`` section
of run-ledger entries.
"""

from repro.dist.fabric import DistFabric, DistFabricConfig, task_cost
from repro.dist.protocol import PROTOCOL_VERSION

__all__ = [
    "DistFabric",
    "DistFabricConfig",
    "task_cost",
    "PROTOCOL_VERSION",
]
