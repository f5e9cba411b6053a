"""Segment-tree topology of a routed net.

Given the set of 2-D G-cell edges a router produced for a net, this module
derives the structure every later stage consumes:

- maximal straight *segments* (broken at pins, branch points, and corners);
- the directed tree over segments rooted at the source pin's tile;
- the junction tiles where stacked vias arise once layers are assigned.

The directed structure is what the Elmore engine walks (downstream
capacitances bottom-up, path delays top-down) and what the layer-assignment
DP and the CPLA optimizer use to pair segments into via terms ``S_x(N_c)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grid.graph import Edge2D, Tile, edge_endpoints
from repro.route.net import Net, Pin, Segment


class TopologyError(ValueError):
    """Raised when route edges do not form a tree spanning the net's pins."""


@dataclass
class ViaStack:
    """A stacked via at ``tile`` spanning layers ``lower..upper`` (inclusive)."""

    tile: Tile
    lower: int
    upper: int

    @property
    def num_cuts(self) -> int:
        return self.upper - self.lower


@dataclass
class NetTopology:
    """Directed segment tree of one routed net.

    Attributes
    ----------
    segments:
        Segment list; ``segments[k].id == k`` (ids are local to the net).
    parent / children:
        Tree structure over segment ids; root segments have parent ``None``.
    parent_tile / child_tile:
        For each segment, the endpoint nearer to (resp. farther from) the
        source.  ``child_tile[s]`` is the junction where ``s`` meets its
        children.
    pins_at:
        Pins grouped by tile (a tile may hold several pins, possibly on
        different layers).
    """

    net_id: int
    root_tile: Tile
    segments: List[Segment] = field(default_factory=list)
    parent: Dict[int, Optional[int]] = field(default_factory=dict)
    children: Dict[int, List[int]] = field(default_factory=dict)
    parent_tile: Dict[int, Tile] = field(default_factory=dict)
    child_tile: Dict[int, Tile] = field(default_factory=dict)
    pins_at: Dict[Tile, List[Pin]] = field(default_factory=dict)
    # Lazily-built tile -> carrier-segment index (see carrier_segment())
    # and junction tile -> incident segments index (see _incidence()).
    # The tree is structurally immutable once built — only segment *layers*
    # change afterwards — so the indexes never need invalidation.
    _carrier_index: Optional[Dict[Tile, Optional[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _junction_index: Optional[Dict[Tile, List[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- structure queries -------------------------------------------------

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    def root_segments(self) -> List[int]:
        return [s.id for s in self.segments if self.parent[s.id] is None]

    def topo_order(self) -> List[int]:
        """Segment ids ordered parents-before-children."""
        order: List[int] = []
        stack = list(reversed(self.root_segments()))
        while stack:
            sid = stack.pop()
            order.append(sid)
            stack.extend(reversed(self.children[sid]))
        if len(order) != len(self.segments):
            raise TopologyError("segment tree is not connected")
        return order

    def reverse_topo_order(self) -> List[int]:
        """Children-before-parents — the order downstream caps accumulate."""
        return list(reversed(self.topo_order()))

    def path_to_segment(self, sid: int) -> List[int]:
        """Segment ids from a root segment down to (and including) ``sid``."""
        path = [sid]
        cur = self.parent[sid]
        while cur is not None:
            path.append(cur)
            cur = self.parent[cur]
        path.reverse()
        return path

    def carrier_segment(self, tile: Tile) -> Optional[int]:
        """The segment whose child endpoint delivers the signal to ``tile``.

        Pin tiles are always breakpoints, hence segment endpoints; a tile
        that is only a parent-side endpoint (shouldn't happen for sinks)
        resolves to that segment's parent, and unknown tiles to ``None`` —
        the same answers the previous O(segments) scan produced, served from
        a one-time index (the Elmore engine asks once per sink per analyze).
        """
        index = self._carrier_index
        if index is None:
            index = {}
            fallback: Dict[Tile, Optional[int]] = {}
            for sid in range(len(self.segments)):
                index.setdefault(self.child_tile[sid], sid)
                fallback.setdefault(self.parent_tile[sid], self.parent[sid])
            for tile_, carrier in fallback.items():
                index.setdefault(tile_, carrier)
            self._carrier_index = index
        return index.get(tile)

    def segments_at(self, tile: Tile) -> List[int]:
        """Segments having ``tile`` as one of their endpoints, in id order."""
        return list(self._incidence().get(tile, ()))

    def _incidence(self) -> Dict[Tile, List[int]]:
        """Junction tile -> ids of the segments ending there, in id order.

        Keys run in sorted tile order and cover every junction tile, so a
        root or pin tile without a segment maps to an empty list.  Built
        once per topology, like the carrier index.
        """
        index = self._junction_index
        if index is None:
            index = {tile: [] for tile in sorted(self.junction_tiles())}
            for sid in range(len(self.segments)):
                index[self.parent_tile[sid]].append(sid)
                index[self.child_tile[sid]].append(sid)
            self._junction_index = index
        return index

    def sink_pins(self, source: Pin) -> List[Pin]:
        out = []
        for pins in self.pins_at.values():
            out.extend(p for p in pins if p != source)
        return out

    # -- via derivation ------------------------------------------------------

    def junction_tiles(self) -> Set[Tile]:
        tiles: Set[Tile] = {self.root_tile}
        for sid in self.parent:
            tiles.add(self.parent_tile[sid])
            tiles.add(self.child_tile[sid])
        tiles.update(self.pins_at.keys())
        return tiles

    def via_stacks(self) -> List[ViaStack]:
        """Stacked vias implied by the current layer assignment.

        At each junction tile the layers of all incident segments plus any
        pin layers there must be joined by one via stack spanning their
        min..max.  Segments with ``layer == 0`` (unassigned) are skipped.
        """
        stacks: List[ViaStack] = []
        segments = self.segments
        for tile, incident in self._incidence().items():
            layers = [
                segments[sid].layer
                for sid in incident
                if segments[sid].layer > 0
            ]
            layers.extend(p.layer for p in self.pins_at.get(tile, []))
            if len(layers) >= 2:
                lo, hi = min(layers), max(layers)
                if hi > lo:
                    stacks.append(ViaStack(tile, lo, hi))
        return stacks

    def connected_pairs(self) -> List[Tuple[int, int]]:
        """All (parent, child) segment-id pairs joined by a junction —
        the pair set ``S_x(N_c)`` of the paper's via terms."""
        pairs = []
        for sid, par in self.parent.items():
            if par is not None:
                pairs.append((par, sid))
        return pairs


def _dedupe(edges: Iterable[Edge2D]) -> List[Edge2D]:
    seen: Set[Edge2D] = set()
    out: List[Edge2D] = []
    for e in edges:
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def build_topology(net: Net, edges: Optional[Sequence[Edge2D]] = None) -> NetTopology:
    """Derive the :class:`NetTopology` of ``net`` from its route edges.

    ``edges`` defaults to ``net.route_edges``.  The edges must form a tree
    over tiles that contains every pin tile; otherwise :class:`TopologyError`
    is raised.  The result is also stored on ``net.topology``.
    """
    if edges is None:
        edges = net.route_edges
    edges = _dedupe(edges)
    if not net.pins:
        raise TopologyError(f"net {net.name} has no pins")

    pins_at: Dict[Tile, List[Pin]] = {}
    for pin in net.pins:
        pins_at.setdefault(pin.tile, []).append(pin)

    root = net.source.tile
    topo = NetTopology(net_id=net.id, root_tile=root, pins_at=pins_at)

    # Local net: all pins in one tile and no wiring.
    if not edges:
        if not net.is_local():
            raise TopologyError(
                f"net {net.name}: pins span multiple tiles but no route edges given"
            )
        net.topology = topo
        return topo

    # Tile adjacency from the unit edges.
    adj: Dict[Tile, Set[Tile]] = {}
    for e in edges:
        a, b = edge_endpoints(e)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for pin in net.pins:
        if pin.tile not in adj:
            raise TopologyError(
                f"net {net.name}: pin tile {pin.tile} not covered by route"
            )

    # BFS from the root establishes the directed tree over tiles and detects
    # cycles / disconnection.
    parent_of: Dict[Tile, Optional[Tile]] = {root: None}
    order: List[Tile] = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v == parent_of[u]:
                continue
            if v in parent_of:
                raise TopologyError(f"net {net.name}: route contains a cycle near {v}")
            parent_of[v] = u
            order.append(v)
            queue.append(v)
    if len(parent_of) != len(adj):
        raise TopologyError(f"net {net.name}: route is disconnected")

    # Breakpoints end segments: the root, pin tiles, branch tiles, corners.
    def axis_of(a: Tile, b: Tile) -> str:
        return "H" if a[1] == b[1] else "V"

    breakpoints: Set[Tile] = {root}
    breakpoints.update(t for t in adj if t in pins_at)
    for t, nbrs in adj.items():
        if len(nbrs) != 2:
            # Branch points and dangling endpoints (routers normally prune
            # non-pin stubs, but segmentation stays correct if they remain).
            breakpoints.add(t)
        else:
            n1, n2 = sorted(nbrs)
            if axis_of(t, n1) != axis_of(t, n2):
                breakpoints.add(t)

    children_tiles: Dict[Tile, List[Tile]] = {t: [] for t in adj}
    for t in order[1:]:
        par = parent_of[t]
        assert par is not None
        children_tiles[par].append(t)

    # Walk outward from each breakpoint, creating one segment per straight
    # chain.  Breakpoints are processed in BFS order so a segment's parent
    # (the segment that *arrived* at its start tile) is already known.
    incoming_seg: Dict[Tile, int] = {}

    def add_segment(start: Tile, end: Tile, axis: str) -> int:
        sid = len(topo.segments)
        (sx, sy), (ex, ey) = start, end
        x1, x2 = min(sx, ex), max(sx, ex)
        y1, y2 = min(sy, ey), max(sy, ey)
        seg = Segment(id=sid, net_id=net.id, axis=axis, x1=x1, y1=y1, x2=x2, y2=y2)
        topo.segments.append(seg)
        topo.parent_tile[sid] = start
        topo.child_tile[sid] = end
        par = incoming_seg.get(start)
        topo.parent[sid] = par
        topo.children[sid] = []
        if par is not None:
            topo.children[par].append(sid)
        incoming_seg[end] = sid
        return sid

    for bp in order:
        if bp not in breakpoints:
            continue
        for first in children_tiles[bp]:
            axis = axis_of(bp, first)
            cur = first
            while cur not in breakpoints:
                nxt = children_tiles[cur]
                # Non-breakpoint tiles are straight-through by construction.
                assert len(nxt) == 1, "non-breakpoint tile must continue straight"
                cur = nxt[0]
            add_segment(bp, cur, axis)

    if sum(s.length for s in topo.segments) != len(edges):
        raise TopologyError(
            f"net {net.name}: segmentation lost edges "
            f"({sum(s.length for s in topo.segments)} vs {len(edges)})"
        )

    net.topology = topo
    return topo
