"""Elmore-delay computation over segment trees.

Implements the paper's timing model exactly:

- Eqn. (2): segment delay ``ts(i, l) = Re(l) * (Ce(l)/2 + Cd(i))`` where the
  resistance and self-capacitance scale with the segment's length in G-cells
  and ``Cd(i)`` is the downstream capacitance beyond segment *i*;
- Eqn. (3): via delay ``tv = sum(Rv(l), l = j..q-1) * min(Cd(i), Cd(p))`` for
  a via joining segment *i* on layer *j* with segment *p* on layer *q*;
- downstream capacitances accumulate sinks-to-source ("bottom-to-up"), so
  every segment's delay reflects the layer assignment of the whole subtree
  it drives.

Path delay to a sink is the sum of the segment and via delays along the
source→sink path, plus the via stack down to the pin layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.grid.layers import LayerStack
from repro.obs import metrics, tracer
from repro.route.net import Net, Pin
from repro.route.tree import NetTopology


@dataclass
class TimingConfig:
    """Options of the Elmore engine.

    ``via_load`` selects the capacitive load of Eqn. (3): ``"paper"`` uses
    ``min(Cd(i), Cd(p))`` verbatim; ``"subtree"`` uses the child's full
    subtree capacitance (wire included), the more physical variant — kept as
    an ablation knob.
    """

    driver_resistance: float = 0.0
    via_load: str = "paper"

    def __post_init__(self) -> None:
        if self.via_load not in ("paper", "subtree"):
            raise ValueError(f"unknown via_load mode {self.via_load!r}")
        if self.driver_resistance < 0:
            raise ValueError("driver_resistance must be >= 0")


@dataclass
class NetTiming:
    """Timing results of one net under its current layer assignment."""

    net_id: int
    sink_delays: Dict[Pin, float] = field(default_factory=dict)
    segment_delays: Dict[int, float] = field(default_factory=dict)
    downstream_caps: Dict[int, float] = field(default_factory=dict)
    total_capacitance: float = 0.0

    @property
    def critical_delay(self) -> float:
        """``Tcp``: the worst source→sink path delay of the net."""
        if not self.sink_delays:
            return 0.0
        return max(self.sink_delays.values())

    @property
    def critical_sink(self) -> Optional[Pin]:
        if not self.sink_delays:
            return None
        return max(self.sink_delays, key=self.sink_delays.get)

    def critical_path_segments(self, topo: NetTopology) -> List[int]:
        """Segment ids on the path from the source to the critical sink."""
        sink = self.critical_sink
        if sink is None:
            return []
        carrier = _segment_feeding_tile(topo, sink.tile)
        if carrier is None:
            return []
        return topo.path_to_segment(carrier)


def _segment_feeding_tile(topo: NetTopology, tile) -> Optional[int]:
    """The segment whose child endpoint delivers the signal to ``tile``."""
    if tile == topo.root_tile:
        return None
    return topo.carrier_segment(tile)


class ElmoreEngine:
    """Computes :class:`NetTiming` for routed, layer-assigned nets.

    Timing is cached per net, keyed by the net's layer-assignment
    fingerprint (the tuple of its segment layers): a net's Elmore delays
    depend only on its own topology, pin loads, and layer assignment, none
    of which other nets can change.  ``analyze_all`` therefore re-analyzes
    only the nets whose layers actually moved since the last refresh —
    callers that mutate layers may :meth:`mark_dirty` explicitly, but the
    fingerprint check alone already guarantees exactness.  Hit/miss counts
    are exported through ``repro.obs.metrics`` (``elmore.cache_hits`` /
    ``elmore.cache_misses``).
    """

    def __init__(
        self,
        stack: LayerStack,
        config: Optional[TimingConfig] = None,
        incremental: bool = True,
    ) -> None:
        self.stack = stack
        self.config = config or TimingConfig()
        self.incremental = incremental
        # net id -> (topology identity, layer fingerprint, timing)
        self._cache: Dict[int, Tuple[NetTopology, Tuple[int, ...], NetTiming]] = {}

    # -- result cache ------------------------------------------------------

    def mark_dirty(self, net_ids) -> None:
        """Drop cached timing of the given nets (they will re-analyze)."""
        for net_id in net_ids:
            self._cache.pop(net_id, None)

    # -- capacitance ------------------------------------------------------

    def wire_capacitance(self, seg) -> float:
        return self.stack.layer(seg.layer).unit_capacitance * seg.length

    def _pin_load_at(self, topo: NetTopology, tile, exclude: Optional[Pin]) -> float:
        return sum(
            p.capacitance
            for p in topo.pins_at.get(tile, [])
            if exclude is None or p != exclude
        )

    def downstream_caps(self, net: Net) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Bottom-up ``Cd`` and subtree capacitance per segment id.

        ``Cd[sid]`` excludes the segment's own wire (as Eqn. (2) requires,
        since the wire contributes ``Ce/2`` separately); ``subtree[sid]``
        includes it.
        """
        topo = self._topo(net)
        source = net.source
        cd: Dict[int, float] = {}
        subtree: Dict[int, float] = {}
        for sid in topo.reverse_topo_order():
            seg = topo.segments[sid]
            load = self._pin_load_at(topo, topo.child_tile[sid], exclude=source)
            for cid in topo.children[sid]:
                child = topo.segments[cid]
                load += subtree[cid]
                load += self.stack.via_capacitance_between(seg.layer, child.layer)
            cd[sid] = load
            subtree[sid] = load + self.wire_capacitance(seg)
        return cd, subtree

    # -- delays -------------------------------------------------------------

    def segment_delay(self, seg, downstream_cap: float, layer: Optional[int] = None) -> float:
        """Eqn. (2) with resistance/capacitance scaled by segment length."""
        l = layer if layer is not None else seg.layer
        lyr = self.stack.layer(l)
        r = lyr.unit_resistance * seg.length
        c_self = lyr.unit_capacitance * seg.length
        return r * (c_self / 2.0 + downstream_cap)

    def via_delay(
        self, layer_a: int, layer_b: int, cd_parent: float, cd_child: float
    ) -> float:
        """Eqn. (3): stacked-via resistance times the via's load."""
        r = self.stack.via_resistance_between(layer_a, layer_b)
        if r == 0.0:
            return 0.0
        if self.config.via_load == "paper":
            return r * min(cd_parent, cd_child)
        return r * cd_child

    def analyze(self, net: Net) -> NetTiming:
        """Full timing of one net: per-segment delays and per-sink path delays.

        Served from the per-net cache when the net's layer fingerprint is
        unchanged; callers must treat the returned :class:`NetTiming` as
        read-only (every caller in the repo does).
        """
        if not self.incremental:
            return self._analyze(net)
        topo = self._topo(net)
        fingerprint = tuple(seg.layer for seg in topo.segments)
        entry = self._cache.get(net.id)
        if (
            entry is not None
            and entry[0] is topo
            and entry[1] == fingerprint
        ):
            metrics.inc("elmore.cache_hits")
            return entry[2]
        timing = self._analyze(net)
        self._cache[net.id] = (topo, fingerprint, timing)
        metrics.inc("elmore.cache_misses")
        return timing

    def _analyze(self, net: Net) -> NetTiming:
        """The uncached full analysis."""
        topo = self._topo(net)
        source = net.source
        timing = NetTiming(net_id=net.id)

        if not topo.segments:
            # Local net: sinks are reached through the pin via stack only.
            for pin in topo.sink_pins(source):
                r = self.stack.via_resistance_between(source.layer, pin.layer)
                timing.sink_delays[pin] = r * pin.capacitance
                timing.total_capacitance += pin.capacitance
            return timing

        cd, subtree = self.downstream_caps(net)
        timing.downstream_caps = cd
        for sid in cd:
            timing.segment_delays[sid] = self.segment_delay(
                topo.segments[sid], cd[sid]
            )

        roots = topo.root_segments()
        total_cap = sum(subtree[r] for r in roots)
        total_cap += self._pin_load_at(topo, topo.root_tile, exclude=source)
        timing.total_capacitance = total_cap
        driver_delay = self.config.driver_resistance * total_cap

        # Arrival at each segment's child endpoint, accumulated top-down.
        arrival: Dict[int, float] = {}
        for sid in topo.topo_order():
            seg = topo.segments[sid]
            par = topo.parent[sid]
            if par is None:
                base = driver_delay
                base += self.via_delay(
                    source.layer, seg.layer, cd_parent=cd[sid], cd_child=cd[sid]
                )
            else:
                parent_seg = topo.segments[par]
                base = arrival[par]
                base += self.via_delay(
                    parent_seg.layer, seg.layer, cd_parent=cd[par], cd_child=cd[sid]
                )
            arrival[sid] = base + timing.segment_delays[sid]

        # Sink pins hang off junction tiles through their own via stacks.
        for pin in topo.sink_pins(source):
            if pin.tile == topo.root_tile:
                r = self.stack.via_resistance_between(source.layer, pin.layer)
                timing.sink_delays[pin] = driver_delay + r * pin.capacitance
                continue
            carrier = _segment_feeding_tile(topo, pin.tile)
            assert carrier is not None, "sink tile must terminate a segment"
            seg = topo.segments[carrier]
            r = self.stack.via_resistance_between(seg.layer, pin.layer)
            timing.sink_delays[pin] = arrival[carrier] + r * pin.capacitance
        return timing

    def analyze_all(self, nets) -> Dict[int, NetTiming]:
        with tracer.span("timing.analyze_all", nets=len(nets)):
            result = {net.id: self.analyze(net) for net in nets}
        metrics.inc("elmore.refreshes")
        metrics.inc("elmore.nets_analyzed", len(nets))
        return result

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _topo(net: Net) -> NetTopology:
        if net.topology is None:
            raise ValueError(f"net {net.name} has no topology; route & assign first")
        for seg in net.topology.segments:
            if seg.layer <= 0:
                raise ValueError(
                    f"net {net.name} segment {seg.id} unassigned; "
                    "layer assignment must run before timing"
                )
        return net.topology
