"""Resident engines: warm, reusable solver state shared across requests.

One :class:`ResidentEngine` owns everything a problem signature needs to
be served repeatedly without paying cold-start costs again:

- the **prepared benchmark** (2-D routing, topology, initial DP layer
  assignment), prepared once;
- the **solved state**: the first full solve's report and assignment
  digest, and for the CPLA methods a checkpoint of the solved design
  (:class:`~repro.core.engine.EngineCheckpoint`), which ECO edits are
  rewound to;
- for the CPLA methods, a long-lived :class:`~repro.core.engine.CPLAEngine`
  whose Elmore fingerprint cache and leaf backend (with its worker
  processes, for ``pool``/``dist`` requests with ``workers > 1``) serve
  the ECO passes.

A full solve starts from an empty ADMM warm store, so its answer depends
only on the prepared design, which a resident never re-prepares: the
stored answer is the one a one-shot ``repro run`` returns (enforced by
tests/test_resident.py and tests/test_service.py).  Only the first
``/v1/assign`` runs the optimizer; every later one answers from the
solved state.

:class:`EngineHost` is the LRU of residents, capacity-bounded because each
CPLA resident may hold worker processes.  It is driven from the batch
scheduler's single engine thread; it is not itself thread-safe.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.runreport import RunReport
from repro.core.engine import CPLAConfig, CPLAEngine, EngineCheckpoint
from repro.ispd.benchmark import Benchmark
from repro.ispd.request import AssignRequest, assignment_digest
from repro.obs import metrics
# Not called here since the rewind copies grid usage whole; kept so that
# perfbench/tracing.py, which times them at this module, still finds them.
from repro.route.occupancy import commit_net, release_net  # noqa: F401
from repro.tila.engine import TILAConfig, TILAEngine
from repro.utils import get_logger

log = get_logger(__name__)


@dataclass
class SolvedState:
    """A resident's answer to ``/v1/assign``, kept after its one full solve.

    ``checkpoint`` is the solved design of a CPLA resident, which ECO edits
    are rewound to; ``None`` for TILA residents, which take no edits.
    """

    report: RunReport
    digest: str
    checkpoint: Optional[EngineCheckpoint]


class StaleEpoch(Exception):
    """An ECO delta targeted an epoch the resident is no longer at.

    Maps to HTTP 409: the edit set was computed against committed state
    epoch ``expected`` but the resident has moved on to ``current`` (some
    other client's delta, or a fresh full solve, landed in between).  The
    resident state is *not* discarded — the client should refresh its view
    and resubmit against the current epoch.
    """

    def __init__(self, expected: int, current: int) -> None:
        super().__init__(
            f"stale state_epoch: request targets epoch {expected}, "
            f"resident is at epoch {current}"
        )
        self.expected = expected
        self.current = current


class ResidentEngine:
    """Warm solver state for one problem signature.

    ``dist_listen``/``dist_authkey`` (host-level, not per-request) open a
    TCP listener on the engine's dist fabric for ``--exec dist`` requests,
    so remote ``repro dist-worker --connect`` workers can serve leaves of
    requests handled by this server.
    """

    def __init__(
        self,
        request: AssignRequest,
        prepare_fn=None,
        dist_listen: Optional[Tuple[str, int]] = None,
        dist_authkey: Optional[bytes] = None,
    ) -> None:
        from repro.pipeline import prepare  # deferred: pipeline imports engines

        self.signature = request.signature()
        self.key = request.signature_key()
        self.method = request.method
        # Engine runs on this resident: the full solve and every ECO apply
        # (each also counts in the ``engine.runs`` metric).
        self.runs = 0
        self.created = time.monotonic()
        # Committed-state epoch for ECO deltas: 0 at the solved state,
        # +1 per applied edit set.  ``/v1/eco`` requests must name it.
        self.state_epoch = 0
        self._solved: Optional[SolvedState] = None
        self._eco = None  # lazily-built repro.eco.engine.EcoEngine
        # Fleet replication (see repro.fleet.replica): the edit sets (JSON
        # form) applied since the solved state — shipped to the ring
        # successor so a failover can replay them bit-exactly; a seeded
        # resident holds them in _pending_history until first touched.
        self._history = []
        self._pending_history = None
        self._replicator = None  # set by EngineHost when in a fleet
        prepare_fn = prepare_fn or prepare
        if request.router_rounds or request.maze_expansion_limit:
            from repro.route.router import RouterConfig

            kwargs = {}
            if request.router_rounds:
                kwargs["rounds"] = request.router_rounds
            if request.maze_expansion_limit:
                kwargs["maze_expansion_limit"] = request.maze_expansion_limit
            self.bench: Benchmark = prepare_fn(
                request.benchmark,
                scale=request.scale,
                router_config=RouterConfig(**kwargs),
            )
        else:
            self.bench = prepare_fn(request.benchmark, scale=request.scale)
        # Digest of the prepared design: fleet replicas carry it, and
        # seed_replica refuses a peer whose preparation differed.
        self._baseline = assignment_digest(self.bench)
        self._engine: Optional[CPLAEngine] = None
        if self.method in ("sdp", "ilp"):
            dist_config = None
            if request.exec_backend == "dist" and dist_listen is not None:
                from repro.dist.fabric import DistFabricConfig

                dist_config = DistFabricConfig(
                    listen=dist_listen, authkey=dist_authkey
                )
            config = CPLAConfig(
                method=self.method,
                critical_ratio=request.ratio_percent / 100.0,
                workers=request.workers,
                exec_backend=request.exec_backend,
                dist=dist_config,
            )
            self._engine = CPLAEngine(self.bench, config)
        else:
            self._tila_ratio = request.ratio_percent / 100.0

    def solve(self) -> Tuple[RunReport, str]:
        """The full solve's report and assignment digest.

        Only the first call runs the optimizer, on the freshly prepared
        design, and keeps the result as the resident's solved state.  Later
        calls answer from it: at epoch 0 the design still is the solved
        state; after ECO edits it is rewound to the solved checkpoint
        first (:meth:`CPLAEngine.restore_layers`), which brings back every
        route, topology, layer, pin capacitance, grid capacity and usage
        the edits changed, and the ADMM warm store.
        """
        if self._solved is None:
            self.runs += 1
            metrics.inc("engine.runs")
            if self._engine is not None:
                report = self._engine.run()
                checkpoint = self._engine.snapshot_layers()
            else:
                config = TILAConfig(
                    engine="dp" if self.method == "tila" else "dp+flow",
                    critical_ratio=self._tila_ratio,
                )
                report = TILAEngine(self.bench, config).run()
                checkpoint = None
            self._solved = SolvedState(
                report, assignment_digest(self.bench), checkpoint
            )
        elif self.state_epoch:
            self._engine.restore_layers(self._solved.checkpoint)
        else:
            return self._solved.report, self._solved.digest
        # The design is at the solved state: any ECO history is gone and
        # the epoch counter restarts from it.
        self.state_epoch = 0
        self._eco = None
        self._history = []
        self._pending_history = None
        self._replicate()
        return self._solved.report, self._solved.digest

    def apply_eco(self, request) -> "object":
        """Apply one ECO delta against the committed state; bump the epoch.

        Raises :class:`StaleEpoch` when ``request.state_epoch`` does not
        match the resident's current epoch — *before* touching any state,
        so a conflicting client costs nothing and poisons nothing.  A cold
        resident (no solve yet) auto-solves first to establish the
        epoch-0 committed baseline.
        """
        from repro.eco.engine import EcoEngine

        if self._engine is None:
            raise ValueError(
                f"method {self.method!r} does not support eco_apply"
            )
        if request.state_epoch != self.state_epoch:
            metrics.inc("serve.eco_stale_epoch")
            raise StaleEpoch(request.state_epoch, self.state_epoch)
        if self._pending_history is not None:
            self._materialize_history()
        elif self._solved is None:
            self.solve()
        if self._eco is None:
            self._eco = EcoEngine(self._engine)
            self._eco.epoch = self.state_epoch
        self.runs += 1
        metrics.inc("engine.runs")
        report = self._eco.apply(list(request.edits))
        self.state_epoch = self._eco.epoch
        from repro.eco.edits import edits_to_json

        self._history.append(edits_to_json(request.edits))
        self._replicate()
        return report

    # -- fleet replication -------------------------------------------------

    def seed_replica(self, state) -> bool:
        """Adopt a :class:`~repro.fleet.replica.ReplicaState` from a peer.

        Called right after construction, before any request touches this
        resident.  The shipped post-prepare digest must match the local
        one — preparation is deterministic, so a mismatch means the peer
        solved a *different* problem and seeding would break bit-identity;
        it is refused loudly.  Any ECO history is held pending: the first
        ``/v1/eco`` request replays it to the replicated epoch before
        applying its own delta, while a full solve discards it (epochs
        restart at 0, as on any shard).
        """
        if state.baseline != self._baseline:
            metrics.inc("fleet.replica_baseline_mismatch")
            log.warning(
                "replica for %s has a divergent post-prepare digest; "
                "refusing to seed", self.key,
            )
            return False
        if state.epoch and state.history:
            self._pending_history = [list(h) for h in state.history]
            self.state_epoch = state.epoch
        metrics.inc("fleet.replica_seeds")
        log.info(
            "seeded resident %s from replica (epoch %d)",
            self.key, state.epoch,
        )
        return True

    def _materialize_history(self) -> None:
        """Replay the replicated ECO history onto a fresh baseline solve.

        Restores the exact committed state (and epoch) the dead owner
        replicated — the ECO engine's incremental == cold-replay guarantee
        plus deterministic preparation make the replay bit-exact.
        """
        from repro.eco.edits import parse_edits
        from repro.eco.engine import EcoEngine

        history = [list(h) for h in self._pending_history or ()]
        target = self.state_epoch
        log.info(
            "materializing %d replicated ECO epochs for %s",
            len(history), self.key,
        )
        self.solve()  # epoch-0 baseline; clears _pending_history/_history
        self._eco = EcoEngine(self._engine)
        self._eco.epoch = 0
        for edits_json in history:
            self._eco.apply(parse_edits(edits_json))
        self.state_epoch = self._eco.epoch
        self._history = history
        if self.state_epoch != target:
            log.warning(
                "replayed history reached epoch %d, replica said %d",
                self.state_epoch, target,
            )

    def _replicate(self) -> None:
        if self._replicator is not None:
            self._replicator.push(self)

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()


class EngineHost:
    """Capacity-bounded LRU of :class:`ResidentEngine` keyed by signature."""

    def __init__(
        self,
        capacity: int = 4,
        dist_listen: Optional[Tuple[str, int]] = None,
        dist_authkey: Optional[bytes] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.dist_listen = dist_listen
        self.dist_authkey = dist_authkey
        # repro.fleet.replica.ShardFleet when this host serves a fleet
        # shard: ownership ring, received-replica store, outbound pusher.
        self.fleet = None
        self._residents: "OrderedDict[Tuple, ResidentEngine]" = OrderedDict()

    def get(self, request: AssignRequest) -> ResidentEngine:
        signature = request.signature()
        resident = self._residents.get(signature)
        if resident is None:
            metrics.inc("serve.engine_builds")
            log.info("building resident engine for %s", request.signature_key())
            resident = ResidentEngine(
                request,
                dist_listen=self.dist_listen,
                dist_authkey=self.dist_authkey,
            )
            if self.fleet is not None:
                self._join_fleet(resident, request.signature_key())
            self._residents[signature] = resident
            while len(self._residents) > self.capacity:
                _, evicted = self._residents.popitem(last=False)
                log.info("evicting resident engine %s", evicted.key)
                metrics.inc("serve.engine_evictions")
                evicted.close()
        else:
            metrics.inc("serve.engine_hits")
        self._residents.move_to_end(signature)
        return resident

    def _join_fleet(self, resident: ResidentEngine, key: str) -> None:
        """Fleet bookkeeping for a freshly built resident.

        A build for a signature this shard does not own is failed-over
        traffic (the gateway only routes here when the owner is dead);
        if the dead owner managed to replicate, resume from its state,
        otherwise count a cold start — the ``obs check
        --max-failover-cold-starts`` gate watches that counter.
        """
        resident._replicator = self.fleet.replicator
        if self.fleet.ring.owner(key) == self.fleet.shard_id:
            return
        metrics.inc("fleet.failover_requests")
        state = self.fleet.store.get(key)
        if state is not None and resident.seed_replica(state):
            return
        metrics.inc("fleet.failover_cold_builds")
        log.info("failover build for %s has no usable replica; cold start", key)

    def discard(self, request: AssignRequest) -> None:
        """Drop (and close) the resident for a signature, if present.

        The scheduler calls this after a solve raised: a half-mutated
        benchmark must not serve the next request.
        """
        resident = self._residents.pop(request.signature(), None)
        if resident is not None:
            metrics.inc("serve.engine_discards")
            resident.close()

    def __len__(self) -> int:
        return len(self._residents)

    def close(self) -> None:
        while self._residents:
            _, resident = self._residents.popitem()
            resident.close()
