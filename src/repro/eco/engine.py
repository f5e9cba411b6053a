"""The ECO engine: apply a typed edit set, re-solve only what it dirtied.

:class:`EcoEngine` wraps a committed :class:`~repro.core.engine.CPLAEngine`
state (typically a resident engine that has already served a full solve)
and applies edit sets against it:

1. **apply the physical edits** in order — reroutes re-run the 2-D router
   and the initial DP assigner for the named nets, resizes scale pin
   capacitances in place, capacity changes adjust the grid's per-edge
   track counts;
2. **propagate dirtiness** — every edited net's segments are dirty, plus
   any released segment crossing a tile an edit touched;
3. **restricted re-solve** — one :meth:`CPLAEngine.eco_iterate` pass whose
   partition geometry covers the whole released set but which extracts
   and solves only the dirty leaves (clean leaves keep their layers and
   their tracks stay consumed in the shared capacity ledger);
4. **accept or roll back** the re-solve on ``(Max, Avg)`` Tcp — the edits
   themselves always persist (they are the new reality); only the layer
   movement is conditional;
5. **commit**: the state epoch increments and the post-edit assignment
   becomes the new checkpoint.

Equivalence guarantee
---------------------
Every step above is a deterministic function of the committed state and
the edit list, shared verbatim between the incremental path and
:func:`cold_replay_digest` (fresh prepare -> full solve -> same edit
batches).  Combined with the repo's warm-rerun == fresh-run and
seq/pool/dist/batch digest-identity invariants, an incremental ECO apply
on a warm resident produces the bit-identical ``sha256`` assignment
digest a cold fresh-state replay does — pinned by tests/test_eco.py and
gated by the ``eco-smoke`` CI job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.engine import CPLAConfig, CPLAEngine, _is_improvement
from repro.eco.edits import EcoEdit, EditError, edit_set_digest, edits_to_json
from repro.grid.layers import Direction
from repro.ispd.request import assignment_digest
from repro.obs import metrics, tracer
from repro.route.net import Net
from repro.route.occupancy import release_net
from repro.route.tree import build_topology
from repro.timing.critical import critical_path_stats
from repro.utils import WallClock, get_logger

log = get_logger(__name__)

SegKey = Tuple[int, int]
Tile = Tuple[int, int]


@dataclass
class EcoReport:
    """Outcome of one committed ECO apply (one epoch)."""

    benchmark: str
    epoch: int
    edit_digest: str
    num_edits: int
    edited_nets: List[int]
    released: int
    dirty: Dict[str, Any] = field(default_factory=dict)
    pre_avg_tcp: float = 0.0
    pre_max_tcp: float = 0.0
    post_avg_tcp: float = 0.0
    post_max_tcp: float = 0.0
    accepted: bool = False
    digest: str = ""
    seconds: float = 0.0

    @property
    def dirty_fraction(self) -> float:
        return float(self.dirty.get("dirty_fraction", 0.0))


class EcoEngine:
    """Applies edit sets to a committed CPLA state, epoch by epoch."""

    def __init__(self, engine: CPLAEngine) -> None:
        if engine.config.method != "sdp" and engine.config.method != "ilp":
            raise ValueError("EcoEngine requires a CPLA engine (sdp or ilp)")
        self.engine = engine
        self.bench = engine.bench
        self.grid = engine.grid
        self.epoch = 0
        self._nets: Dict[int, Net] = {n.id: n for n in self.bench.nets}

    # -- edit application --------------------------------------------------

    def _net(self, net_id: int) -> Net:
        net = self._nets.get(net_id)
        if net is None:
            raise EditError(f"unknown net id {net_id}")
        return net

    def _apply_reroute(self, edit: EcoEdit, affected: Set[Tile]) -> None:
        # The 2-D reroute runs on a fresh router: it sees the grid's
        # (possibly edited) capacities but zero 2-D usage, so the path is
        # a deterministic function of the grid alone.  The DP assigner
        # that follows sees the true 3-D occupancy of every other net.
        from repro.route.assignment import InitialAssigner
        from repro.route.router import GlobalRouter

        nets = [self._net(i) for i in edit.nets]
        for net in nets:
            for seg in net.topology.segments:
                affected.update(seg.tiles())
            release_net(self.grid, net.topology)
        GlobalRouter(self.grid).route(nets)
        for net in nets:
            build_topology(net)
        # assign() runs the per-net DP and commits each net itself.
        InitialAssigner(self.grid).assign(nets)
        for net in nets:
            for seg in net.topology.segments:
                affected.update(seg.tiles())
        self.engine.elmore.mark_dirty(edit.nets)

    def _apply_resize(self, edit: EcoEdit) -> None:
        for net_id in edit.nets:
            net = self._net(net_id)
            for pin in net.pins:
                # Pin is frozen; topo.pins_at holds these same objects, so
                # an in-place capacitance change stays consistent.
                object.__setattr__(
                    pin, "capacitance", pin.capacitance * edit.factor
                )
        # RC edits are invisible to the timing cache's layer fingerprints —
        # the explicit dirty mark is what makes them take effect.
        self.engine.elmore.mark_dirty(edit.nets)

    def _apply_capacity(self, edit: EcoEdit, affected: Set[Tile]) -> None:
        tile = edit.tile or (0, 0)
        if not self.grid.contains_tile(tile):
            raise EditError(f"capacity_change: tile {list(tile)} outside the "
                            f"{self.grid.nx_tiles}x{self.grid.ny_tiles} grid")
        if edit.layer > self.grid.stack.num_layers:
            raise EditError(
                f"capacity_change: layer {edit.layer} exceeds the "
                f"{self.grid.stack.num_layers}-layer stack"
            )
        direction = self.grid.stack.direction_of(edit.layer)
        x, y = tile
        candidates = (
            [("H", x - 1, y), ("H", x, y)]
            if direction is Direction.HORIZONTAL
            else [("V", x, y - 1), ("V", x, y)]
        )
        edges = [e for e in candidates if self.grid.contains_edge(e)]
        if not edges:
            raise EditError(
                f"capacity_change: tile {list(tile)} has no layer-{edit.layer} "
                "edges (grid too small in that direction)"
            )
        for edge in edges:
            current = self.grid.capacity(edge, edit.layer)
            self.grid.set_capacity(
                edge, edit.layer, max(0, current + edit.delta)
            )
            _, x2, y2 = edge
            affected.add((x2, y2))
            affected.add((x2 + 1, y2) if edge[0] == "H" else (x2, y2 + 1))

    def _resolve_release(self, edit: EcoEdit) -> Tuple[int, ...]:
        if not edit.worst:
            for net_id in edit.nets:
                self._net(net_id)
            return edit.nets
        timings = self.engine.elmore.analyze_all(self.bench.nets)
        eligible = [n for n in self.bench.nets if timings[n.id].sink_delays]
        eligible.sort(key=lambda n: (-timings[n.id].critical_delay, n.id))
        return tuple(n.id for n in eligible[: edit.worst])

    def _apply_edits(
        self, edits: Sequence[EcoEdit]
    ) -> Tuple[Set[int], Set[Tile]]:
        """Apply the physical edits in order; returns (touched ids, tiles).

        ``worst``-k releases are resolved against the state *at their
        position in the sequence* — a reroute earlier in the list can
        change which nets are worst — which keeps replay deterministic.
        """
        touched: Set[int] = set()
        affected: Set[Tile] = set()
        for edit in edits:
            if edit.op == "net_reroute":
                self._apply_reroute(edit, affected)
                touched.update(edit.nets)
            elif edit.op == "net_resize":
                self._apply_resize(edit)
                touched.update(edit.nets)
            elif edit.op == "capacity_change":
                self._apply_capacity(edit, affected)
            else:  # release_nets
                touched.update(self._resolve_release(edit))
        return touched, affected

    # -- dirtiness propagation ---------------------------------------------

    def _released_set(self, touched: Set[int]) -> List[Net]:
        """The working set: the usual critical selection plus edited extras.

        Selection order first (the engine's criticality-ordered release),
        then any touched net not already selected, in id order — stable,
        so the partition geometry of incremental and replay agree.
        """
        engine = self.engine
        critical, _ = engine.selector.select(
            self.bench.nets, engine.config.critical_ratio
        )
        seen = {n.id for n in critical}
        extras = [
            self._net(i) for i in sorted(touched) if i not in seen
        ]
        return critical + extras

    def _dirty_keys(
        self, released: Sequence[Net], touched: Set[int], affected: Set[Tile]
    ) -> Set[SegKey]:
        """Edited nets dirty wholesale; others where they cross edited tiles."""
        dirty: Set[SegKey] = set()
        for net in released:
            if net.id in touched:
                dirty.update((net.id, seg.id) for seg in net.topology.segments)
            elif affected:
                for seg in net.topology.segments:
                    if any(t in affected for t in seg.tiles()):
                        dirty.add((net.id, seg.id))
        return dirty

    # -- the apply/commit cycle --------------------------------------------

    def apply(
        self, edits: Sequence[EcoEdit], max_first: bool = True
    ) -> EcoReport:
        """Apply one edit set, re-solve the dirtied partitions, commit.

        Always commits (the epoch increments even when the re-solve is
        rolled back — the *edits* are permanent, only the layer movement
        is conditional).  ``max_first`` accepts on ``(Max, Avg)`` Tcp,
        the closure loop's ordering; pass ``False`` for average-first.
        """
        engine = self.engine
        clock = WallClock()
        report = EcoReport(
            benchmark=self.bench.name,
            epoch=self.epoch + 1,
            edit_digest=edit_set_digest(edits),
            num_edits=len(edits),
            edited_nets=[],
            released=0,
        )
        with tracer.span(
            "eco.apply", epoch=report.epoch, edits=len(edits)
        ) as _:
            with clock.phase("edits"):
                touched, affected = self._apply_edits(edits)
            report.edited_nets = sorted(touched)
            released = self._released_set(touched)
            report.released = len(released)
            dirty = self._dirty_keys(released, touched, affected)

            with clock.phase("timing"):
                timings = engine.elmore.analyze_all(released)
            pre = critical_path_stats(timings, released)
            report.pre_avg_tcp, report.pre_max_tcp = pre

            if dirty:
                snapshot = engine._snapshot_layers(released)
                stats = engine.eco_iterate(
                    released, dirty, clock, max_first=max_first
                )
                report.dirty = dict(engine.last_eco or {})
                post = (stats.avg_tcp, stats.max_tcp)
                if _is_improvement(post, pre, max_first):
                    report.accepted = True
                    report.post_avg_tcp, report.post_max_tcp = post
                else:
                    with clock.phase("rollback"):
                        engine._restore_layers(released, snapshot)
                    report.post_avg_tcp, report.post_max_tcp = pre
            else:
                # Nothing dirtied (e.g. a capacity edit in an empty corner):
                # the edits still commit, the solve is a no-op.
                report.dirty = {
                    "num_leaves": 0, "dirty_leaves": 0,
                    "dirty_fraction": 0.0, "dirty_segments": 0,
                    "num_segments": 0,
                }
                report.post_avg_tcp, report.post_max_tcp = pre

        self.epoch += 1
        report.digest = assignment_digest(self.bench)
        report.seconds = clock.total
        metrics.inc("eco.applies")
        metrics.inc("eco.edits", len(edits))
        if report.accepted:
            metrics.inc("eco.accepted")
        metrics.set_gauge("eco.dirty_fraction", report.dirty_fraction)
        log.info(
            "eco epoch %d: %d edits, %d/%d dirty leaves, "
            "Max(Tcp) %.1f -> %.1f (%s)",
            report.epoch, len(edits),
            report.dirty.get("dirty_leaves", 0),
            report.dirty.get("num_leaves", 0),
            report.pre_max_tcp, report.post_max_tcp,
            "accepted" if report.accepted else "rolled back",
        )
        return report


def cold_replay_digest(
    benchmark: str,
    batches: Sequence[Sequence[EcoEdit]],
    scale: float = 1.0,
    critical_ratio: float = 0.005,
    workers: int = 0,
    exec_backend: str = "seq",
    max_first: bool = True,
) -> str:
    """Fresh-state replay of a full ECO history; returns the final digest.

    Prepares the benchmark from scratch, runs the full solve, then applies
    every edit batch through a fresh :class:`EcoEngine` — no warm caches,
    no resident state.  The incremental path must land on the identical
    digest; this is the cold side of the equivalence gate.
    """
    from repro.pipeline import prepare  # deferred: pipeline imports engines

    bench = prepare(benchmark, scale=scale)
    config = CPLAConfig(
        method="sdp",
        critical_ratio=critical_ratio,
        workers=workers,
        exec_backend=exec_backend,
    )
    with CPLAEngine(bench, config) as engine:
        engine.run()
        eco = EcoEngine(engine)
        for batch in batches:
            eco.apply(list(batch), max_first=max_first)
        return assignment_digest(bench)
