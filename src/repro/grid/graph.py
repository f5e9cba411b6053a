"""The 3-D grid graph (Fig. 2(b) of the paper).

A layout is tiled into ``nx_tiles * ny_tiles`` G-cells.  Wires run along
*edges* between adjacent tiles on layers whose preferred direction matches
the edge orientation; vias run in the z-direction through tiles.  This module
owns all capacity and usage bookkeeping:

- per-(edge, layer) wire capacity in routing tracks, with ISPD'08-style
  capacity adjustments;
- per-(tile, layer-pair) via usage, with the via-capacity model of Eqn. (1);
- overflow metrics used throughout the evaluation (``OV#`` in Table 2).

Edges are addressed by :data:`Edge2D` tuples ``(orient, x, y)`` where
``('H', x, y)`` joins tiles ``(x, y)`` and ``(x+1, y)``, and ``('V', x, y)``
joins ``(x, y)`` and ``(x, y+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.grid.layers import Direction, LayerStack

Edge2D = Tuple[str, int, int]
Tile = Tuple[int, int]

_ORIENT_TO_DIRECTION = {"H": Direction.HORIZONTAL, "V": Direction.VERTICAL}


def edge_between(a: Tile, b: Tile) -> Edge2D:
    """The 2-D edge joining two adjacent tiles (order-insensitive)."""
    (ax, ay), (bx, by) = a, b
    if ax == bx and abs(ay - by) == 1:
        return ("V", ax, min(ay, by))
    if ay == by and abs(ax - bx) == 1:
        return ("H", min(ax, bx), ay)
    raise ValueError(f"tiles {a} and {b} are not adjacent")


def edge_endpoints(edge: Edge2D) -> Tuple[Tile, Tile]:
    """The two tiles an edge joins."""
    orient, x, y = edge
    if orient == "H":
        return (x, y), (x + 1, y)
    if orient == "V":
        return (x, y), (x, y + 1)
    raise ValueError(f"bad edge orientation {orient!r}")


def edge_direction(edge: Edge2D) -> Direction:
    """Routing direction required of a layer hosting this edge."""
    return _ORIENT_TO_DIRECTION[edge[0]]


@dataclass
class GridSnapshot:
    """Opaque copy of a grid's mutable state (see ``GridGraph.snapshot``)."""

    capacity: Dict[int, np.ndarray]
    usage: Dict[int, np.ndarray]
    via_usage: np.ndarray


class GridGraph:
    """Routing grid with per-layer wire capacities and via accounting.

    Parameters
    ----------
    nx_tiles, ny_tiles:
        Grid dimensions in G-cells.
    stack:
        The metal :class:`~repro.grid.layers.LayerStack`.  Each layer's
        ``default_tracks`` seeds the capacity of every edge of matching
        direction; per-edge adjustments may then lower (or raise) individual
        capacities, as ISPD'08 benchmarks do.
    """

    def __init__(self, nx_tiles: int, ny_tiles: int, stack: LayerStack) -> None:
        if nx_tiles < 1 or ny_tiles < 1:
            raise ValueError("grid must have at least one tile per dimension")
        self.nx_tiles = int(nx_tiles)
        self.ny_tiles = int(ny_tiles)
        self.stack = stack
        self._cap: Dict[int, np.ndarray] = {}
        self._usage: Dict[int, np.ndarray] = {}
        for layer in stack:
            shape = self._array_shape(layer.direction)
            self._cap[layer.index] = np.full(shape, layer.default_tracks, dtype=np.int64)
            self._usage[layer.index] = np.zeros(shape, dtype=np.int64)
        # via usage between layer l and l+1 (cut index l-1), per tile
        self._via_usage = np.zeros(
            (self.nx_tiles, self.ny_tiles, max(stack.num_layers - 1, 0)),
            dtype=np.int64,
        )

    # -- geometry --------------------------------------------------------

    def _array_shape(self, direction: Direction) -> Tuple[int, int]:
        if direction is Direction.HORIZONTAL:
            return (max(self.nx_tiles - 1, 0), self.ny_tiles)
        return (self.nx_tiles, max(self.ny_tiles - 1, 0))

    def contains_tile(self, tile: Tile) -> bool:
        x, y = tile
        return 0 <= x < self.nx_tiles and 0 <= y < self.ny_tiles

    def contains_edge(self, edge: Edge2D) -> bool:
        orient, x, y = edge
        if orient == "H":
            return 0 <= x < self.nx_tiles - 1 and 0 <= y < self.ny_tiles
        if orient == "V":
            return 0 <= x < self.nx_tiles and 0 <= y < self.ny_tiles - 1
        return False

    def iter_tiles(self) -> Iterator[Tile]:
        for x in range(self.nx_tiles):
            for y in range(self.ny_tiles):
                yield (x, y)

    def iter_edges(self, orient: str) -> Iterator[Edge2D]:
        """All 2-D edges of one orientation."""
        if orient == "H":
            for x in range(self.nx_tiles - 1):
                for y in range(self.ny_tiles):
                    yield ("H", x, y)
        elif orient == "V":
            for x in range(self.nx_tiles):
                for y in range(self.ny_tiles - 1):
                    yield ("V", x, y)
        else:
            raise ValueError(f"bad orientation {orient!r}")

    def layers_for_edge(self, edge: Edge2D) -> Tuple[int, ...]:
        """Indices of layers that can host wires on this edge."""
        return self.stack.layers_of(edge_direction(edge))

    def _check(self, edge: Edge2D, layer: int) -> Tuple[int, int]:
        if not self.contains_edge(edge):
            raise ValueError(f"edge {edge} outside {self.nx_tiles}x{self.ny_tiles} grid")
        if self.stack.direction_of(layer) is not edge_direction(edge):
            raise ValueError(
                f"layer {layer} routes {self.stack.direction_of(layer)}, "
                f"cannot host edge {edge}"
            )
        return edge[1], edge[2]

    # -- wire capacity / usage --------------------------------------------

    def capacity(self, edge: Edge2D, layer: int) -> int:
        """Wire capacity (tracks) of ``edge`` on ``layer``."""
        x, y = self._check(edge, layer)
        return int(self._cap[layer][x, y])

    def set_capacity(self, edge: Edge2D, layer: int, tracks: int) -> None:
        """Override one edge's capacity (ISPD capacity adjustment)."""
        if tracks < 0:
            raise ValueError("capacity cannot be negative")
        x, y = self._check(edge, layer)
        self._cap[layer][x, y] = int(tracks)

    def usage(self, edge: Edge2D, layer: int) -> int:
        x, y = self._check(edge, layer)
        return int(self._usage[layer][x, y])

    def remaining(self, edge: Edge2D, layer: int) -> int:
        """Free tracks on (edge, layer); may be negative when overflowed."""
        x, y = self._check(edge, layer)
        return int(self._cap[layer][x, y] - self._usage[layer][x, y])

    def add_wire(self, edge: Edge2D, layer: int, count: int = 1) -> None:
        """Occupy ``count`` tracks of (edge, layer).  Overflow is permitted
        (and later reported), matching the soft-capacity behaviour of global
        routers."""
        x, y = self._check(edge, layer)
        self._usage[layer][x, y] += int(count)

    def remove_wire(self, edge: Edge2D, layer: int, count: int = 1) -> None:
        x, y = self._check(edge, layer)
        if self._usage[layer][x, y] < count:
            raise ValueError(
                f"removing {count} wires from {edge} layer {layer} "
                f"with only {self._usage[layer][x, y]} present"
            )
        self._usage[layer][x, y] -= int(count)

    # -- vias --------------------------------------------------------------

    @property
    def vias_per_track(self) -> int:
        """``nv`` of constraint (4d): via sites along one track in a tile."""
        pitch = self.stack.via_width + self.stack.via_spacing
        return max(int(self.stack.tile_width // pitch), 1)

    def add_via_stack(self, tile: Tile, lower: int, upper: int, count: int = 1) -> None:
        """Record a stacked via through ``tile`` spanning layers lower..upper."""
        if lower > upper:
            lower, upper = upper, lower
        if not self.contains_tile(tile):
            raise ValueError(f"tile {tile} outside grid")
        self.stack.layer(lower)
        self.stack.layer(upper)
        x, y = tile
        if upper > lower:
            self._via_usage[x, y, lower - 1 : upper - 1] += int(count)

    def remove_via_stack(self, tile: Tile, lower: int, upper: int, count: int = 1) -> None:
        if lower > upper:
            lower, upper = upper, lower
        x, y = tile
        span = self._via_usage[x, y, lower - 1 : upper - 1]
        if np.any(span < count):
            raise ValueError(f"via usage underflow at {tile} layers {lower}..{upper}")
        if upper > lower:
            self._via_usage[x, y, lower - 1 : upper - 1] -= int(count)

    def via_usage_at(self, tile: Tile, cut_lower_layer: int) -> int:
        """Vias through ``tile`` crossing the cut above ``cut_lower_layer``."""
        x, y = tile
        return int(self._via_usage[x, y, cut_lower_layer - 1])

    def _adjacent_edge_free_tracks(self, tile: Tile, layer: int) -> int:
        """Sum of remaining tracks of the (up to) two co-directional edges
        touching ``tile`` on ``layer`` — the ``cap_e0 + cap_e1`` of Eqn. (1)."""
        x, y = tile
        direction = self.stack.direction_of(layer)
        if direction is Direction.HORIZONTAL:
            candidates = [("H", x - 1, y), ("H", x, y)]
        else:
            candidates = [("V", x, y - 1), ("V", x, y)]
        total = 0
        for edge in candidates:
            if self.contains_edge(edge):
                total += max(self.remaining(edge, layer), 0)
        return total

    def via_capacity(self, tile: Tile, cut_lower_layer: int) -> int:
        """Via capacity of the cut above ``cut_lower_layer`` at ``tile``.

        Implements Eqn. (1).  The paper states the formula for one layer's
        pair of adjacent edges; a via crossing the cut blocks track area on
        both bounding layers, so we take the minimum of the two layers'
        values (following the multi-layer capacity model of Hsu et al.,
        ICCAD'08, ref. [11] of the paper).
        """
        if not self.contains_tile(tile):
            raise ValueError(f"tile {tile} outside grid")
        lower = cut_lower_layer
        upper = cut_lower_layer + 1
        self.stack.layer(lower)
        self.stack.layer(upper)
        caps = []
        for layer in (lower, upper):
            wire = self.stack.layer(layer)
            free = self._adjacent_edge_free_tracks(tile, layer)
            area = wire.pitch * self.stack.tile_width * free
            caps.append(int(area // self.stack.via_pitch_sq))
        return min(caps)

    def via_capacity_map(self) -> np.ndarray:
        """:meth:`via_capacity` of every tile and cut at once.

        Returns an ``(nx, ny, L - 1)`` int64 array whose ``[x, y, cut - 1]``
        element equals ``via_capacity((x, y), cut)``, computed in the same
        float order.
        """
        stack = self.stack
        per_layer = []
        for layer in stack:
            free = np.maximum(self._cap[layer.index] - self._usage[layer.index], 0)
            tracks = np.zeros((self.nx_tiles, self.ny_tiles), dtype=np.int64)
            # A tile touches the edge before it and the edge after it.
            if layer.direction is Direction.HORIZONTAL:
                tracks[1:, :] += free
                tracks[:-1, :] += free
            else:
                tracks[:, 1:] += free
                tracks[:, :-1] += free
            area = layer.pitch * stack.tile_width * tracks
            per_layer.append((area // stack.via_pitch_sq).astype(np.int64))
        caps = np.stack(per_layer, axis=-1)
        return np.minimum(caps[..., :-1], caps[..., 1:])

    def via_usage_ratios(self) -> np.ndarray:
        """``used / max(capacity, 1)`` of every tile and cut, shaped like
        :meth:`via_capacity_map`: the per-cut term of the SDP's
        via-capacity penalty."""
        return self._via_usage / np.maximum(self.via_capacity_map(), 1)

    # -- overflow metrics ----------------------------------------------------

    def total_wire_overflow(self) -> int:
        """Sum over (edge, layer) of tracks used beyond capacity."""
        total = 0
        for layer in self.stack:
            over = self._usage[layer.index] - self._cap[layer.index]
            total += int(np.clip(over, 0, None).sum())
        return total

    def total_via_overflow(self) -> int:
        """``OV#`` of Table 2: via usage beyond Eqn. (1) capacity, summed
        over every tile and cut."""
        over = self._via_usage - self.via_capacity_map()
        return int(np.maximum(over, 0).sum())

    def total_vias(self) -> int:
        """Total via cuts in use (the ``via#`` column of Table 2)."""
        return int(self._via_usage.sum())

    def total_wirelength(self) -> int:
        """Total occupied tracks summed over all edges and layers."""
        return int(sum(int(u.sum()) for u in self._usage.values()))

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> GridSnapshot:
        """Copy the capacities and usage for a later :meth:`restore`."""
        return GridSnapshot(
            capacity={l: c.copy() for l, c in self._cap.items()},
            usage={l: u.copy() for l, u in self._usage.items()},
            via_usage=self._via_usage.copy(),
        )

    def restore(self, snap: GridSnapshot) -> None:
        for layer, arr in snap.capacity.items():
            self._cap[layer][...] = arr
        for layer, arr in snap.usage.items():
            self._usage[layer][...] = arr
        self._via_usage[...] = snap.via_usage

    # -- aggregate views ---------------------------------------------------

    def usage_array(self, layer: int) -> np.ndarray:
        """Read-only view of one layer's usage array (tests/analysis)."""
        return self._usage[layer].copy()

    def capacity_array(self, layer: int) -> np.ndarray:
        return self._cap[layer].copy()

    def density_map(self) -> np.ndarray:
        """Per-tile 2-D routing density (Fig. 3(b)): total wire usage of the
        edges incident to each tile, across all layers."""
        dens = np.zeros((self.nx_tiles, self.ny_tiles), dtype=np.float64)
        for layer in self.stack:
            use = self._usage[layer.index]
            if layer.direction is Direction.HORIZONTAL:
                dens[:-1, :] += use
                dens[1:, :] += use
            else:
                dens[:, :-1] += use
                dens[:, 1:] += use
        return dens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridGraph({self.nx_tiles}x{self.ny_tiles}, "
            f"{self.stack.num_layers} layers, vias={self.total_vias()})"
        )


def manhattan_path_edges(path: List[Tile]) -> List[Edge2D]:
    """Edges traversed by a tile-by-tile path (consecutive tiles adjacent)."""
    return [edge_between(a, b) for a, b in zip(path, path[1:])]
