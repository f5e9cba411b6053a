"""Fleet tier: sharded multi-node serving above the resident server.

One ``repro serve`` process is a *shard*; this package is everything
that turns N shards into one service:

- :mod:`repro.fleet.ring` — deterministic consistent-hash ring over
  problem signatures (sha256 positions, ``PYTHONHASHSEED``-proof), with
  explicit rebalance on membership change;
- :mod:`repro.fleet.gateway` — the ``repro gateway`` front end: shards
  ``/v1/assign``/``/v1/eco`` by ring ownership, health-checks via
  ``/readyz``, applies per-shard backpressure, fails over to the ring's
  next live shard on transport death, and passes shard error bytes
  through unmodified;
- :mod:`repro.fleet.cache` — the gateway's cross-request result cache
  (signature -> sha256 assignment digest + payload, bounded LRU,
  epoch-invalidated by ``/v1/eco``): idempotent repeats never touch a
  solver;
- :mod:`repro.fleet.replica` — state replication over the dist
  protocol's authenticated framing.  A failed-over successor still
  prepares and solves the signature in full; what the replica buys is
  the ``/v1/eco`` epoch chain (the successor replays the dead shard's
  ECO history) and a cross-node determinism check (it refuses a replica
  whose post-prepare digest differs from its own).

Bit-identity is the tier's invariant: a gateway-served digest equals the
single-node ``repro serve`` digest for every request — cache hits and
failovers included.  ``repro bench-serve --gateway --shards N`` drives
the whole topology in-process and writes ``fleet:<method>`` run-ledger
entries gated in CI (`--min-cache-hit-rate`,
``--max-failover-cold-starts``).  See ``docs/SERVING.md``.
"""

from __future__ import annotations

from repro.fleet.cache import CacheEntry, ResultCache
from repro.fleet.gateway import Gateway, GatewayConfig
from repro.fleet.replica import (
    ReplicaReceiver,
    ReplicaState,
    ReplicaStore,
    Replicator,
    ShardFleet,
    capture_state,
    push_state,
)
from repro.fleet.ring import DEFAULT_VNODES, HashRing

__all__ = [
    "CacheEntry",
    "DEFAULT_VNODES",
    "Gateway",
    "GatewayConfig",
    "HashRing",
    "ReplicaReceiver",
    "ReplicaState",
    "ReplicaStore",
    "Replicator",
    "ResultCache",
    "ShardFleet",
    "capture_state",
    "push_state",
]
