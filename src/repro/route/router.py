"""Congestion-aware 2-D global router.

Produces the "initial routing" input of Problem 1 (CPLA).  The router works
on the 2-D projection of the grid (per-edge capacity summed over the layers
of matching direction) in the standard two-phase style:

1. *Pattern routing*: every net's Steiner topology is embedded connection by
   connection, choosing the cheapest L- or Z-shaped monotone path under the
   current congestion cost.
2. *Negotiated rip-up-and-reroute*: nets crossing overflowed edges are torn
   up and maze-rerouted with history-augmented costs (PathFinder style) for a
   configurable number of rounds.

Cost model and vectorization
----------------------------
Edge costs live in two dense float arrays (``_cost["H"]``, ``_cost["V"]``),
kept exactly equal to ``1 + history + overflow_penalty * max(0, usage+1-cap)``
at every moment: bulk-recomputed when the per-round history update lands and
patched per touched edge on every occupy/release.  Pattern candidates are
then scored with prefix sums over those arrays instead of a per-edge Python
callback.  Because the default cost constants are dyadic rationals (all edge
costs are multiples of 0.5 and far below 2**52), the prefix-sum differences
are *exact* and bit-identical to the old sequential accumulation — the
pattern phase produces byte-for-byte the same routes, just faster.

The maze phase is goal-oriented A*: the heuristic is the Manhattan distance
to the nearest target, admissible and consistent because every edge costs at
least 1.0, so the search still returns minimum-cost paths (property-tested
against a Dijkstra reference).  Ties pop in ``(f, tile)`` order, which is
deterministic but not identical to the old Dijkstra's ``(g, tile)`` order —
equal-cost maze paths may differ, which is why the assignment digests were
re-baselined in this change.  A search that trips ``maze_expansion_limit``
is counted in ``router.maze_aborts`` and the net keeps its previous route
instead of failing the run.

The router fills ``net.route_edges``; building the segment tree is the
caller's job (:func:`repro.route.tree.build_topology`).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.grid.graph import Edge2D, GridGraph, Tile, edge_between, edge_endpoints
from repro.grid.layers import Direction
from repro.obs import metrics, tracer
from repro.route.net import Net
from repro.route.steiner import steiner_tree_edges, warm_steiner_cache
from repro.utils import get_logger

log = get_logger(__name__)

_INF = float("inf")


@dataclass
class RouterConfig:
    """Tuning knobs of the global router."""

    rounds: int = 3
    overflow_penalty: float = 8.0
    history_increment: float = 1.5
    bend_penalty: float = 0.4
    steiner_refine: bool = True
    maze_expansion_limit: int = 200_000

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("need at least one routing round")
        if self.maze_expansion_limit < 1:
            raise ValueError("maze_expansion_limit must be >= 1")


@dataclass
class RouterStats:
    """Per-run router observability, surfaced in RunReport/ledger entries."""

    nets_routed: int = 0
    nets_rerouted: int = 0
    reroute_rounds: int = 0
    maze_aborts: int = 0
    final_overflow: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "nets_routed": self.nets_routed,
            "nets_rerouted": self.nets_rerouted,
            "reroute_rounds": self.reroute_rounds,
            "maze_aborts": self.maze_aborts,
            "final_overflow": self.final_overflow,
        }


class GlobalRouter:
    """Routes nets on the 2-D projection of a :class:`GridGraph`."""

    def __init__(self, grid: GridGraph, config: Optional[RouterConfig] = None) -> None:
        self.grid = grid
        self.config = config or RouterConfig()
        self.stats = RouterStats()
        nx_t, ny_t = grid.nx_tiles, grid.ny_tiles
        shape_h = (max(nx_t - 1, 0), ny_t)
        shape_v = (nx_t, max(ny_t - 1, 0))
        sz_h = shape_h[0] * shape_h[1]
        sz_v = shape_v[0] * shape_v[1]
        # Each quantity lives in ONE flat buffer with the H block first; the
        # per-orient 2-D views share that memory.  Bookkeeping then runs one
        # fancy-indexed pass over flat edge indices instead of two per-orient
        # passes, while readers keep the natural [x, y] addressing.
        self._h_cols = shape_h[1]
        self._v_cols = shape_v[1]
        self._v_off = sz_h

        def _flat_pair(flat: np.ndarray) -> Dict[str, np.ndarray]:
            return {
                "H": flat[:sz_h].reshape(shape_h),
                "V": flat[sz_h:].reshape(shape_v),
            }

        self._cap_flat = np.zeros(sz_h + sz_v, dtype=np.int64)
        self._cap = _flat_pair(self._cap_flat)
        for layer in grid.stack:
            key = "H" if layer.direction is Direction.HORIZONTAL else "V"
            self._cap[key] += grid.capacity_array(layer.index)
        self._usage_flat = np.zeros_like(self._cap_flat)
        self._usage = _flat_pair(self._usage_flat)
        self._history_flat = np.zeros(sz_h + sz_v, dtype=np.float64)
        self._history = _flat_pair(self._history_flat)
        self._history_zero = True  # stays True through the pattern phase
        self._cost_flat = np.empty(sz_h + sz_v, dtype=np.float64)
        self._cost = _flat_pair(self._cost_flat)
        self._recompute_costs()

    # -- cost model ---------------------------------------------------------

    def _recompute_costs(self) -> None:
        """Bulk-refresh both cost arrays from usage/history/capacity."""
        pen = self.config.overflow_penalty
        for orient in ("H", "V"):
            excess = self._usage[orient] + 1 - self._cap[orient]
            np.maximum(excess, 0, out=excess)
            cost = self._cost[orient]
            cost[...] = 1.0
            cost += self._history[orient]
            cost += pen * excess

    def _edge_cost(self, edge: Edge2D) -> float:
        """Scalar cost of one edge — reference model the arrays mirror."""
        orient, x, y = edge
        cap = self._cap[orient][x, y]
        use = self._usage[orient][x, y]
        cost = 1.0 + self._history[orient][x, y]
        if use + 1 > cap:
            cost += self.config.overflow_penalty * (use + 1 - cap)
        return cost

    def _path_cost(self, tiles: Sequence[Tile]) -> float:
        cost = 0.0
        bends = 0
        last_axis = None
        for a, b in zip(tiles, tiles[1:]):
            edge = edge_between(a, b)
            cost += self._edge_cost(edge)
            axis = edge[0]
            if last_axis is not None and axis != last_axis:
                bends += 1
            last_axis = axis
        return cost + self.config.bend_penalty * bends

    # -- usage bookkeeping ----------------------------------------------------

    def _occupy(self, edges: Sequence[Edge2D], delta: int) -> None:
        """Apply a usage delta and patch the cost arrays for touched edges.

        ``edges`` come from a routed tree, so each appears at most once and
        plain fancy-indexed updates are safe.
        """
        if not edges:
            return
        self._occupy_split(self._flat_indices(edges), delta)

    def _flat_indices(self, edges: Sequence[Edge2D]) -> np.ndarray:
        """Flat-buffer indices of ``edges``, one np.intp array."""
        h_cols = self._h_cols
        v_cols = self._v_cols
        v_off = self._v_off
        return np.asarray(
            [
                x * h_cols + y if o == "H" else v_off + x * v_cols + y
                for o, x, y in edges
            ],
            dtype=np.intp,
        )

    def _occupy_split(self, idx: np.ndarray, delta: int) -> None:
        if not idx.size:
            return
        pen = self.config.overflow_penalty
        usage = self._usage_flat
        u = usage[idx] + delta
        usage[idx] = u
        excess = u + 1 - self._cap_flat[idx]
        if self._history_zero:
            if delta > 0:
                # Pattern phase: usage only grows, so an edge with zero
                # excess still holds its initial 1.0 cost — write only
                # the (rare) over-capacity entries.
                if excess.max() > 0:
                    np.maximum(excess, 0, out=excess)
                    over = np.nonzero(excess)[0]
                    self._cost_flat[idx[over]] = 1.0 + pen * excess[over]
            else:
                np.maximum(excess, 0, out=excess)
                self._cost_flat[idx] = 1.0 + pen * excess
        else:
            np.maximum(excess, 0, out=excess)
            self._cost_flat[idx] = (
                1.0 + self._history_flat[idx] + pen * excess
            )

    def overflowed_edges(self) -> Set[Edge2D]:
        """2-D edges whose aggregate usage exceeds aggregate capacity."""
        out: Set[Edge2D] = set()
        for orient, arr in self._usage.items():
            over = np.argwhere(arr > self._cap[orient])
            out.update((orient, int(x), int(y)) for x, y in over)
        return out

    def total_overflow(self) -> int:
        return int(
            sum(
                np.clip(self._usage[o] - self._cap[o], 0, None).sum()
                for o in ("H", "V")
            )
        )

    # -- pattern routing ----------------------------------------------------

    def _monotone_candidates(self, a: Tile, b: Tile) -> List[List[Tile]]:
        """L- and Z-shaped monotone tile paths from ``a`` to ``b``."""
        (ax, ay), (bx, by) = a, b
        sx = 1 if bx >= ax else -1
        sy = 1 if by >= ay else -1
        xs = list(range(ax, bx + sx, sx)) if ax != bx else [ax]
        ys = list(range(ay, by + sy, sy)) if ay != by else [ay]
        if len(xs) == 1 or len(ys) == 1:
            # Straight connection: one canonical path.
            if len(xs) == 1:
                return [[(ax, y) for y in ys]]
            return [[(x, ay) for x in xs]]
        paths = []
        # Z with a vertical jog at each x (includes the two L shapes).
        for jog_x in xs:
            paths.append(self._jog_x_path(a, b, jog_x))
        # Z with a horizontal jog at each interior y (Ls already added above).
        for jog_y in ys[1:-1]:
            paths.append(self._jog_y_path(a, b, jog_y))
        return paths

    @staticmethod
    def _jog_x_path(a: Tile, b: Tile, jog_x: int) -> List[Tile]:
        (ax, ay), (bx, by) = a, b
        sx = 1 if bx >= ax else -1
        sy = 1 if by >= ay else -1
        xs = range(ax, bx + sx, sx)
        ys = range(ay, by + sy, sy)
        path = [(x, ay) for x in xs if (x - ax) * sx <= (jog_x - ax) * sx]
        path += [(jog_x, y) for y in list(ys)[1:]]
        path += [(x, by) for x in xs if (x - ax) * sx > (jog_x - ax) * sx]
        return path

    @staticmethod
    def _jog_y_path(a: Tile, b: Tile, jog_y: int) -> List[Tile]:
        (ax, ay), (bx, by) = a, b
        sx = 1 if bx >= ax else -1
        sy = 1 if by >= ay else -1
        xs = range(ax, bx + sx, sx)
        ys = range(ay, by + sy, sy)
        path = [(ax, y) for y in ys if (y - ay) * sy <= (jog_y - ay) * sy]
        path += [(x, jog_y) for x in list(xs)[1:]]
        path += [(bx, y) for y in ys if (y - ay) * sy > (jog_y - ay) * sy]
        return path

    def _embed_connection(self, a: Tile, b: Tile) -> List[Tile]:
        """Cheapest monotone path, scored with prefix sums over the cost arrays.

        The candidate enumeration order and the cost arithmetic match
        :meth:`_path_cost` over :meth:`_monotone_candidates` exactly (the
        per-edge costs are dyadic rationals, so any summation order yields
        the same float), and ``argmin`` keeps the first minimum exactly like
        ``min(candidates, key=...)`` did.
        """
        if a == b:
            return [a]
        (ax, ay), (bx, by) = a, b
        if ax == bx:
            sy = 1 if by >= ay else -1
            return [(ax, y) for y in range(ay, by + sy, sy)]
        if ay == by:
            sx = 1 if bx >= ax else -1
            return [(x, ay) for x in range(ax, bx + sx, sx)]

        cost_h = self._cost["H"]
        cost_v = self._cost["V"]
        x_lo, x_hi = (ax, bx) if ax < bx else (bx, ax)
        y_lo, y_hi = (ay, by) if ay < by else (by, ay)
        width = x_hi - x_lo
        height = y_hi - y_lo
        bend = self.config.bend_penalty

        if width == 1 and height == 1:
            # Diagonal neighbours: exactly the two L shapes, scored scalar
            # (same dyadic sums as the array path, first minimum wins).
            t0 = cost_v[ax, y_lo] + cost_h[x_lo, by] + bend
            t1 = cost_h[x_lo, ay] + cost_v[bx, y_lo] + bend
            if t0 <= t1:
                return [a, (ax, by), b]
            return [a, (bx, ay), b]

        # Vertical-jog candidates, one per column, enumerated a -> b.  The
        # descending-direction variants reuse reversed views instead of
        # fancy-gathering through an index array; per-element arithmetic is
        # unchanged, so the totals stay bit-identical.
        row_a = np.empty(width + 1)
        row_a[0] = 0.0
        np.cumsum(cost_h[x_lo:x_hi, ay], out=row_a[1:])
        row_b = np.empty(width + 1)
        row_b[0] = 0.0
        np.cumsum(cost_h[x_lo:x_hi, by], out=row_b[1:])
        col_sums = cost_v[x_lo : x_hi + 1, y_lo:y_hi].sum(axis=1)
        if ax < bx:
            jx_totals = (row_a + (row_b[width] - row_b)) + col_sums
        else:
            jx_totals = ((row_a[width] - row_a) + row_b)[::-1] + col_sums[::-1]
        jx_totals[1:-1] += bend * 2
        jx_totals[0] += bend
        jx_totals[-1] += bend

        # Horizontal-jog candidates at interior rows, enumerated a -> b.
        if height > 1:
            col_a = np.empty(height + 1)
            col_a[0] = 0.0
            np.cumsum(cost_v[ax, y_lo:y_hi], out=col_a[1:])
            col_b = np.empty(height + 1)
            col_b[0] = 0.0
            np.cumsum(cost_v[bx, y_lo:y_hi], out=col_b[1:])
            row_sums = cost_h[x_lo:x_hi, y_lo : y_hi + 1].sum(axis=0)
            if ay < by:
                jy_totals = (col_a + (col_b[height] - col_b)) + row_sums
                jy_totals = jy_totals[1:height]
            else:
                jy_totals = ((col_a[height] - col_a) + col_b)[::-1] + row_sums[::-1]
                jy_totals = jy_totals[1:height]
            jy_totals = jy_totals + bend * 2
            totals = np.concatenate([jx_totals, jy_totals])
        else:
            totals = jx_totals

        k = int(np.argmin(totals))
        if k <= width:
            sx = 1 if bx >= ax else -1
            return self._jog_x_path(a, b, ax + sx * k)
        sy = 1 if by >= ay else -1
        return self._jog_y_path(a, b, ay + sy * (k - width))

    def _route_net_pattern(
        self, net: Net, pin_tiles: Optional[List[Tile]] = None
    ) -> List[Edge2D]:
        if pin_tiles is None:
            pin_tiles = net.pin_tiles
        tiles = list(dict.fromkeys(pin_tiles))
        if len(tiles) < 2:
            return []
        connections = steiner_tree_edges(tiles, refine=self.config.steiner_refine)
        if len(connections) == 1:
            # Two-tile net: a single monotone path is already a tree.
            a, b = connections[0]
            path = self._embed_connection(a, b)
            # edge_between inlined: consecutive path tiles differ in exactly
            # one coordinate by one.
            return [
                ("V", ux, uy if uy < v[1] else v[1])
                if ux == v[0]
                else ("H", ux if ux < v[0] else v[0], uy)
                for (ux, uy), v in zip(path, path[1:])
            ]
        edge_set: Set[Edge2D] = set()
        ordered: List[Edge2D] = []
        tiles_seen: Set[Tile] = set()
        appended = 0
        for a, b in connections:
            path = self._embed_connection(a, b)
            tiles_seen.update(path)
            for (ux, uy), v in zip(path, path[1:]):
                if ux == v[0]:
                    e = ("V", ux, uy if uy < v[1] else v[1])
                else:
                    e = ("H", ux if ux < v[0] else v[0], uy)
                appended += 1
                if e not in edge_set:
                    edge_set.add(e)
                    ordered.append(e)
        if appended == len(edge_set) and len(tiles_seen) == len(edge_set) + 1:
            # No two embedded paths shared an edge or tile, so the union is
            # already a tree, and its leaves are topology leaves — pins.
            return ordered
        return _extract_tree(edge_set, pin_tiles[0], set(pin_tiles), net.name)

    # -- maze rerouting ---------------------------------------------------------

    def _maze_route_net(self, net: Net) -> Optional[List[Edge2D]]:
        """Reroute a whole net by growing a tree with A* searches.

        Returns ``None`` when a search trips ``maze_expansion_limit`` — the
        caller keeps the net's previous route and counts the abort.  A
        genuinely unreachable pin still raises.
        """
        pins = list(dict.fromkeys(net.pin_tiles))
        tree_tiles: Set[Tile] = {net.source_tile}
        remaining = [t for t in pins if t not in tree_tiles]
        edges: Set[Edge2D] = set()
        while remaining:
            path, aborted = self._astar(tree_tiles, set(remaining))
            if path is None:
                if aborted:
                    return None
                raise RuntimeError(f"maze routing failed for net {net.name}")
            for u, v in zip(path, path[1:]):
                edges.add(edge_between(u, v))
            tree_tiles.update(path)
            remaining = [t for t in remaining if t not in tree_tiles]
        return _extract_tree(edges, net.source_tile, set(pins), net.name)

    def _astar(
        self, sources: Set[Tile], targets: Set[Tile]
    ) -> Tuple[Optional[List[Tile]], bool]:
        """Multi-source multi-target A* over the 2-D cost arrays.

        The heuristic — Manhattan distance to the nearest target — is
        admissible and consistent because every edge costs >= 1.0, so the
        first settled target carries a minimum-cost path.  Heap entries
        order by ``(f, tile)``, which breaks equal-``f`` ties
        deterministically by tile coordinate regardless of insertion
        order.  Returns ``(path, False)`` on success, ``(None, True)``
        on an expansion-limit abort, ``(None, False)`` when the targets
        are unreachable.
        """
        cost_h = self._cost["H"]
        cost_v = self._cost["V"]
        nx_t, ny_t = self.grid.nx_tiles, self.grid.ny_tiles
        limit = self.config.maze_expansion_limit
        tpairs = list(targets)

        hcache: Dict[Tile, float] = {}

        if len(tpairs) == 1:
            (ta, tb), = tpairs

            def heuristic(tile: Tile) -> float:
                h = hcache.get(tile)
                if h is None:
                    h = float(abs(tile[0] - ta) + abs(tile[1] - tb))
                    hcache[tile] = h
                return h

        else:

            def heuristic(tile: Tile) -> float:
                h = hcache.get(tile)
                if h is None:
                    x, y = tile
                    h = float(min(abs(x - a) + abs(y - b) for a, b in tpairs))
                    hcache[tile] = h
                return h

        dist: Dict[Tile, float] = {}
        prev: Dict[Tile, Optional[Tile]] = {}
        heap: List[Tuple[float, Tile]] = []
        for s in sources:
            dist[s] = 0.0
            prev[s] = None
            heap.append((heuristic(s), s))
        heapq.heapify(heap)
        settled: Set[Tile] = set()
        expanded = 0
        while heap:
            _, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            if u in targets:
                path = [u]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])  # type: ignore[arg-type]
                path.reverse()
                return path, False
            expanded += 1
            if expanded > limit:
                return None, True
            x, y = u
            du = dist[u]
            if x > 0:
                v = (x - 1, y)
                if v not in settled:
                    nd = du + cost_h[x - 1, y]
                    if nd < dist.get(v, _INF):
                        dist[v] = nd
                        prev[v] = u
                        heapq.heappush(heap, (nd + heuristic(v), v))
            if x + 1 < nx_t:
                v = (x + 1, y)
                if v not in settled:
                    nd = du + cost_h[x, y]
                    if nd < dist.get(v, _INF):
                        dist[v] = nd
                        prev[v] = u
                        heapq.heappush(heap, (nd + heuristic(v), v))
            if y > 0:
                v = (x, y - 1)
                if v not in settled:
                    nd = du + cost_v[x, y - 1]
                    if nd < dist.get(v, _INF):
                        dist[v] = nd
                        prev[v] = u
                        heapq.heappush(heap, (nd + heuristic(v), v))
            if y + 1 < ny_t:
                v = (x, y + 1)
                if v not in settled:
                    nd = du + cost_v[x, y]
                    if nd < dist.get(v, _INF):
                        dist[v] = nd
                        prev[v] = u
                        heapq.heappush(heap, (nd + heuristic(v), v))
        return None, False

    # -- top level -----------------------------------------------------------

    def route(self, nets: Sequence[Net]) -> None:
        """Route every net, filling ``net.route_edges``.

        Local (single-tile) nets get an empty edge list.  Multi-round
        negotiation reroutes nets that cross overflowed edges.
        """
        with tracer.span("router.route", nets=len(nets)):
            self._route(nets)
        metrics.inc("router.nets_routed", len(nets))
        self.stats.nets_routed += len(nets)
        self.stats.final_overflow = self.total_overflow()
        metrics.set_gauge("router.final_overflow", self.stats.final_overflow)

    def _route(self, nets: Sequence[Net]) -> None:
        order = sorted(nets, key=_sort_key(nets))
        tiles_of = _bulk_pin_tiles(order)
        with tracer.span("router.steiner_warm"):
            # Bulk-precompute every net's Steiner topology: identical trees,
            # but the lockstep Prim amortizes across the whole population.
            warm_steiner_cache(tiles_of, refine=self.config.steiner_refine)
        with tracer.span("router.pattern_route"):
            for net, tiles in zip(order, tiles_of):
                net.route_edges = self._route_net_pattern(net, tiles)
                self._occupy(net.route_edges, +1)

        for round_idx in range(1, self.config.rounds):
            over = self.overflowed_edges()
            if not over:
                break
            for orient, x, y in over:
                excess = self._usage[orient][x, y] - self._cap[orient][x, y]
                self._history[orient][x, y] += self.config.history_increment * excess
            self._history_zero = False
            self._recompute_costs()
            victims = [n for n in order if any(e in over for e in n.route_edges)]
            log.debug(
                "negotiation round %d: overflow=%d, rerouting %d nets",
                round_idx, self.total_overflow(), len(victims),
            )
            metrics.inc("router.negotiation_rounds")
            metrics.inc("router.reroute_rounds")
            metrics.inc("router.nets_rerouted", len(victims))
            self.stats.reroute_rounds += 1
            self.stats.nets_rerouted += len(victims)
            with tracer.span(
                "router.negotiate", round=round_idx, victims=len(victims)
            ):
                for net in victims:
                    split = self._flat_indices(net.route_edges)
                    self._occupy_split(split, -1)
                    rerouted = self._maze_route_net(net)
                    if rerouted is None:
                        # Expansion limit tripped: keep the previous route.
                        metrics.inc("router.maze_aborts")
                        self.stats.maze_aborts += 1
                        log.warning(
                            "maze abort for net %s (expansion limit %d); "
                            "keeping previous route",
                            net.name, self.config.maze_expansion_limit,
                        )
                        self._occupy_split(split, +1)
                    else:
                        net.route_edges = rerouted
                        self._occupy(net.route_edges, +1)


def _sort_key(nets: Sequence[Net]):
    """Routing-order key ``(hpwl, num_pins, id)``.

    When the whole population is backed by one :class:`NetStore`, both hpwl
    and pin counts come out of two bulk array passes instead of four numpy
    calls per net.
    """
    store = getattr(nets[0], "_store", None) if nets else None
    if store is not None and all(n._pins is None and n._store is store for n in nets):
        hpwl = store.hpwl_array().tolist()
        counts = store.net_table["pin_count"].tolist()
        return lambda n: (hpwl[n._row], counts[n._row], n.id)
    return lambda n: (n.hpwl(), n.num_pins, n.id)


def _bulk_pin_tiles(nets: Sequence[Net]) -> List[List[Tile]]:
    """``[n.pin_tiles for n in nets]``, bulk-converted when store-backed."""
    store = getattr(nets[0], "_store", None) if nets else None
    if store is not None and all(n._pins is None and n._store is store for n in nets):
        per_row = store.all_pin_tiles()
        return [per_row[n._row] for n in nets]
    return [n.pin_tiles for n in nets]


def _extract_tree(
    edges: Set[Edge2D], root: Tile, pin_tiles: Set[Tile], net_name: str
) -> List[Edge2D]:
    """Reduce an edge union to a tree spanning the pins.

    Embedding several connections can overlap and create cycles; a BFS from
    the root keeps one tree, then non-pin dangling leaves are pruned.

    The result must be a pure function of the edge *union*, never of the
    iteration order of the incoming set: ``Edge2D`` starts with a ``"V"``/
    ``"H"`` string, so set order varies with ``PYTHONHASHSEED``, and the
    emitted edge order decides segment enumeration — and therefore the
    assignment digest that the serving tier compares across processes.
    Sorting here (and visiting BFS neighbors sorted) pins one canonical
    tree per union.
    """
    adj: Dict[Tile, Set[Tile]] = {}
    for e in sorted(edges):
        a, b = edge_endpoints(e)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    if root not in adj:
        if pin_tiles == {root}:
            return []
        raise RuntimeError(f"net {net_name}: root tile not in routed area")

    parent: Dict[Tile, Optional[Tile]] = {root: None}
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if v not in parent:
                parent[v] = u
                order.append(v)
                queue.append(v)
    missing = [t for t in pin_tiles if t not in parent]
    if missing:
        raise RuntimeError(f"net {net_name}: pins {missing} unreachable in route")

    tree_adj: Dict[Tile, Set[Tile]] = {t: set() for t in parent}
    for t in order[1:]:
        p = parent[t]
        assert p is not None
        tree_adj[p].add(t)
        tree_adj[t].add(p)

    # Prune dangling non-pin leaves left over from overlap removal.
    changed = True
    while changed:
        changed = False
        for t in list(tree_adj):
            if len(tree_adj[t]) == 1 and t not in pin_tiles and t != root:
                (nbr,) = tree_adj[t]
                tree_adj[nbr].discard(t)
                del tree_adj[t]
                changed = True

    out: List[Edge2D] = []
    seen: Set[frozenset] = set()
    for u in order:
        if u not in tree_adj:
            continue  # pruned dangling leaf
        for v in sorted(tree_adj[u]):
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                out.append(edge_between(u, v))
    return out
