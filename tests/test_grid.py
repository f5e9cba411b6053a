"""Unit + property tests for the 3-D grid graph."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.graph import (
    GridGraph,
    edge_between,
    edge_direction,
    edge_endpoints,
    manhattan_path_edges,
)
from repro.grid.layers import Direction, uniform_stack

from tests.conftest import make_stack


class TestEdgeHelpers:
    def test_edge_between_horizontal(self):
        assert edge_between((1, 2), (2, 2)) == ("H", 1, 2)
        assert edge_between((2, 2), (1, 2)) == ("H", 1, 2)

    def test_edge_between_vertical(self):
        assert edge_between((3, 4), (3, 5)) == ("V", 3, 4)

    def test_edge_between_rejects_nonadjacent(self):
        with pytest.raises(ValueError):
            edge_between((0, 0), (1, 1))
        with pytest.raises(ValueError):
            edge_between((0, 0), (0, 2))

    def test_endpoints_roundtrip(self):
        for edge in [("H", 2, 3), ("V", 0, 0)]:
            a, b = edge_endpoints(edge)
            assert edge_between(a, b) == edge

    def test_edge_direction(self):
        assert edge_direction(("H", 0, 0)) is Direction.HORIZONTAL
        assert edge_direction(("V", 0, 0)) is Direction.VERTICAL

    def test_path_edges(self):
        path = [(0, 0), (1, 0), (1, 1)]
        assert manhattan_path_edges(path) == [("H", 0, 0), ("V", 1, 0)]


class TestCapacityUsage:
    def test_default_capacity_from_stack(self, grid8):
        assert grid8.capacity(("H", 0, 0), 1) == 4
        assert grid8.capacity(("V", 0, 0), 2) == 4

    def test_direction_mismatch_rejected(self, grid8):
        with pytest.raises(ValueError):
            grid8.capacity(("H", 0, 0), 2)
        with pytest.raises(ValueError):
            grid8.add_wire(("V", 0, 0), 1)

    def test_out_of_bounds_edge_rejected(self, grid8):
        with pytest.raises(ValueError):
            grid8.capacity(("H", 7, 0), 1)  # x must be < nx-1

    def test_add_remove_wire(self, grid8):
        e = ("H", 2, 3)
        grid8.add_wire(e, 1)
        assert grid8.usage(e, 1) == 1
        assert grid8.remaining(e, 1) == 3
        grid8.remove_wire(e, 1)
        assert grid8.usage(e, 1) == 0

    def test_remove_underflow_rejected(self, grid8):
        with pytest.raises(ValueError):
            grid8.remove_wire(("H", 0, 0), 1)

    def test_overflow_permitted_and_counted(self, grid8):
        e = ("H", 0, 0)
        for _ in range(6):
            grid8.add_wire(e, 1)
        assert grid8.remaining(e, 1) == -2
        assert grid8.total_wire_overflow() == 2

    def test_set_capacity_adjustment(self, grid8):
        e = ("H", 1, 1)
        grid8.set_capacity(e, 1, 1)
        assert grid8.capacity(e, 1) == 1
        with pytest.raises(ValueError):
            grid8.set_capacity(e, 1, -1)


class TestVias:
    def test_via_stack_spans_cuts(self, grid8):
        grid8.add_via_stack((3, 3), 1, 4)
        assert grid8.via_usage_at((3, 3), 1) == 1
        assert grid8.via_usage_at((3, 3), 2) == 1
        assert grid8.via_usage_at((3, 3), 3) == 1
        assert grid8.total_vias() == 3

    def test_same_layer_stack_is_noop(self, grid8):
        grid8.add_via_stack((0, 0), 2, 2)
        assert grid8.total_vias() == 0

    def test_remove_via_stack(self, grid8):
        grid8.add_via_stack((1, 1), 1, 3)
        grid8.remove_via_stack((1, 1), 1, 3)
        assert grid8.total_vias() == 0
        with pytest.raises(ValueError):
            grid8.remove_via_stack((1, 1), 1, 3)

    def test_via_capacity_equation(self, grid8):
        # Eqn (1): floor((w+s) * tile_w * (free0+free1) / (vw+vs)^2), min of
        # the two bounding layers.  Empty 8x8 grid: interior tile has two
        # free edges of 4 tracks each per layer.
        cap = grid8.via_capacity((3, 3), 1)
        # (1+1) * 10 * (4+4) / (1+1)^2 = 40 on both layers
        assert cap == 40

    def test_via_capacity_shrinks_with_usage(self, grid8):
        before = grid8.via_capacity((3, 3), 1)
        for e in [("H", 2, 3), ("H", 3, 3)]:
            for _ in range(4):
                grid8.add_wire(e, 1)
        after = grid8.via_capacity((3, 3), 1)
        assert after < before
        assert after == 0  # layer-1 edges fully occupied

    def test_via_overflow_counts_excess(self, grid8):
        # Saturate layer-1 edges around a tile, then stack vias through it.
        for e in [("H", 2, 3), ("H", 3, 3)]:
            for _ in range(4):
                grid8.add_wire(e, 1)
        grid8.add_via_stack((3, 3), 1, 2, count=3)
        assert grid8.total_via_overflow() >= 3

    def test_boundary_tile_has_single_edge(self, grid8):
        # Corner tile (0, 0): only one H edge on layer 1.
        cap = grid8.via_capacity((0, 0), 1)
        assert cap == 20  # half of the interior value


class TestSnapshots:
    def test_snapshot_restore(self, grid8):
        grid8.add_wire(("H", 0, 0), 1)
        grid8.add_via_stack((2, 2), 1, 3)
        snap = grid8.snapshot()
        grid8.add_wire(("H", 0, 0), 1, count=3)
        grid8.add_via_stack((2, 2), 1, 3)
        grid8.restore(snap)
        assert grid8.usage(("H", 0, 0), 1) == 1
        assert grid8.total_vias() == 2


class TestDensityMap:
    def test_density_accumulates_to_tiles(self, grid8):
        grid8.add_wire(("H", 3, 3), 1)
        dens = grid8.density_map()
        assert dens[3, 3] == 1
        assert dens[4, 3] == 1
        assert dens.sum() == 2


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 7), st.sampled_from([1, 3])),
        min_size=1,
        max_size=40,
    )
)
def test_usage_never_negative_and_consistent(ops):
    """Random add/remove sequences keep counters consistent."""
    grid = GridGraph(8, 8, make_stack(4))
    added = []
    for x, y, layer in ops:
        edge = ("H", x, y)
        grid.add_wire(edge, layer)
        added.append((edge, layer))
    total = grid.total_wirelength()
    assert total == len(added)
    for edge, layer in added:
        grid.remove_wire(edge, layer)
    assert grid.total_wirelength() == 0
    assert grid.total_wire_overflow() == 0


def _loop_via_overflow(grid):
    """OV# as the per-tile loop over :meth:`GridGraph.via_capacity`."""
    total = 0
    for tile in grid.iter_tiles():
        for cut in range(1, grid.stack.num_layers):
            used = grid.via_usage_at(tile, cut)
            if used:
                total += max(used - grid.via_capacity(tile, cut), 0)
    return total


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(1, 7),
    ny=st.integers(1, 7),
    num_layers=st.integers(2, 6),
    widths=st.lists(st.floats(0.3, 3.0), min_size=6, max_size=6),
    via_width=st.floats(0.2, 2.0),
    tile_width=st.floats(3.0, 40.0),
    data=st.data(),
)
def test_via_capacity_map_matches_scalar(
    nx, ny, num_layers, widths, via_width, tile_width, data
):
    """The vectorized Eqn. (1) map equals the scalar method at every tile
    and cut, border tiles and overflowed edges included, and OV# equals
    the per-tile loop."""
    stack = uniform_stack(
        num_layers,
        unit_resistance=[1.0] * num_layers,
        unit_capacitance=[1.0] * num_layers,
        via_resistance=[1.0] * (num_layers - 1),
        capacity=[8.0] * num_layers,
        min_width=widths[:num_layers],
        min_spacing=widths[::-1][:num_layers],
        via_width=via_width,
        via_spacing=via_width / 3,
        tile_width=tile_width,
    )
    grid = GridGraph(nx, ny, stack)
    for layer in stack:
        orient = "H" if layer.direction is Direction.HORIZONTAL else "V"
        for edge in grid.iter_edges(orient):
            grid.set_capacity(edge, layer.index, data.draw(st.integers(0, 6)))
            grid.add_wire(edge, layer.index, data.draw(st.integers(0, 9)))
    for tile in grid.iter_tiles():
        lower = data.draw(st.integers(1, num_layers))
        upper = data.draw(st.integers(1, num_layers))
        grid.add_via_stack(tile, lower, upper, count=data.draw(st.integers(0, 60)))

    cap_map = grid.via_capacity_map()
    assert cap_map.shape == (nx, ny, num_layers - 1)
    for x, y in grid.iter_tiles():
        for cut in range(1, num_layers):
            assert cap_map[x, y, cut - 1] == grid.via_capacity((x, y), cut)
    assert grid.total_via_overflow() == _loop_via_overflow(grid)
    ratios = grid.via_usage_ratios()
    for x, y in grid.iter_tiles():
        for cut in range(1, num_layers):
            used = grid.via_usage_at((x, y), cut)
            cap = max(grid.via_capacity((x, y), cut), 1)
            assert ratios[x, y, cut - 1] == used / cap


def test_via_capacity_map_keeps_the_scalar_float_order():
    """Pitch 0.8 and tile width 3.0: (0.8 * 3.0) * 5 tracks is 12.0, but
    0.8 * (3.0 * 5) is just below it and floors one via lower."""
    stack = uniform_stack(
        2,
        unit_resistance=[1.0, 1.0],
        unit_capacitance=[1.0, 1.0],
        via_resistance=[1.0],
        capacity=[8.0, 8.0],
        min_width=[0.1, 0.1],
        min_spacing=[0.7, 0.7],
        via_width=0.1,
        via_spacing=0.1 / 3,
        tile_width=3.0,
    )
    grid = GridGraph(8, 2, stack)
    for x in range(7):
        for y in range(2):
            grid.set_capacity(("H", x, y), 1, x)  # interior tile x: 2x - 1 free
    for x in range(8):
        grid.set_capacity(("V", x, 0), 2, 40)
    cap_map = grid.via_capacity_map()
    assert cap_map[3, 0, 0] == 675
    for tile in grid.iter_tiles():
        assert cap_map[tile[0], tile[1], 0] == grid.via_capacity(tile, 1)
