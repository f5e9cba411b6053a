"""Tests for segment-tree topology construction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.graph import manhattan_path_edges
from repro.route.net import Net, Pin
from repro.route.tree import TopologyError, build_topology


def net_with(pins, edges):
    n = Net(0, "t", pins)
    n.route_edges = list(edges)
    return n


class TestStraightNets:
    def test_single_segment(self):
        net = net_with(
            [Pin(0, 0), Pin(3, 0)], manhattan_path_edges([(0, 0), (1, 0), (2, 0), (3, 0)])
        )
        topo = build_topology(net)
        assert topo.num_segments == 1
        seg = topo.segments[0]
        assert (seg.axis, seg.length) == ("H", 3)
        assert topo.parent[0] is None
        assert topo.parent_tile[0] == (0, 0)
        assert topo.child_tile[0] == (3, 0)

    def test_l_shape_two_segments(self):
        path = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]
        net = net_with([Pin(0, 0), Pin(2, 2)], manhattan_path_edges(path))
        topo = build_topology(net)
        assert topo.num_segments == 2
        axes = sorted(s.axis for s in topo.segments)
        assert axes == ["H", "V"]
        # The V segment is the child of the H segment.
        h = next(s for s in topo.segments if s.axis == "H")
        v = next(s for s in topo.segments if s.axis == "V")
        assert topo.parent[v.id] == h.id

    def test_pin_in_middle_breaks_segment(self):
        path = [(0, 0), (1, 0), (2, 0), (3, 0)]
        net = net_with(
            [Pin(0, 0), Pin(3, 0), Pin(2, 0)], manhattan_path_edges(path)
        )
        topo = build_topology(net)
        assert topo.num_segments == 2
        lengths = sorted(s.length for s in topo.segments)
        assert lengths == [1, 2]


class TestBranching:
    def _t_net(self):
        # Trunk (0,1)->(4,1); branch up at (2,1) to (2,3).
        edges = manhattan_path_edges([(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)])
        edges += manhattan_path_edges([(2, 1), (2, 2), (2, 3)])
        return net_with([Pin(0, 1), Pin(4, 1), Pin(2, 3)], edges)

    def test_t_branch_three_segments(self):
        topo = build_topology(self._t_net())
        assert topo.num_segments == 3
        # Branch point (2, 1) carries two children of the first trunk piece.
        first = next(
            s.id for s in topo.segments if topo.parent_tile[s.id] == (0, 1)
        )
        assert len(topo.children[first]) == 2

    def test_topo_order_parents_first(self):
        topo = build_topology(self._t_net())
        order = topo.topo_order()
        pos = {sid: i for i, sid in enumerate(order)}
        for sid, parent in topo.parent.items():
            if parent is not None:
                assert pos[parent] < pos[sid]

    def test_reverse_topo_children_first(self):
        topo = build_topology(self._t_net())
        order = topo.reverse_topo_order()
        pos = {sid: i for i, sid in enumerate(order)}
        for sid, parent in topo.parent.items():
            if parent is not None:
                assert pos[sid] < pos[parent]

    def test_path_to_segment(self):
        topo = build_topology(self._t_net())
        for sid in range(topo.num_segments):
            path = topo.path_to_segment(sid)
            assert path[-1] == sid
            assert topo.parent[path[0]] is None

    def test_connected_pairs_match_parents(self):
        topo = build_topology(self._t_net())
        pairs = topo.connected_pairs()
        assert len(pairs) == topo.num_segments - len(topo.root_segments())
        for parent, child in pairs:
            assert topo.parent[child] == parent


class TestViaStacks:
    def test_via_between_layers(self):
        path = [(0, 0), (1, 0), (1, 1)]
        net = net_with([Pin(0, 0), Pin(1, 1)], manhattan_path_edges(path))
        topo = build_topology(net)
        h = next(s for s in topo.segments if s.axis == "H")
        v = next(s for s in topo.segments if s.axis == "V")
        h.layer, v.layer = 1, 4
        stacks = topo.via_stacks()
        junction = [s for s in stacks if s.tile == (1, 0)]
        assert junction and junction[0].lower == 1 and junction[0].upper == 4
        assert junction[0].num_cuts == 3

    def test_pin_layer_joins_span(self):
        path = [(0, 0), (1, 0)]
        net = net_with([Pin(0, 0, layer=1), Pin(1, 0, layer=2)], manhattan_path_edges(path))
        topo = build_topology(net)
        topo.segments[0].layer = 3
        stacks = {s.tile: (s.lower, s.upper) for s in topo.via_stacks()}
        assert stacks[(0, 0)] == (1, 3)
        assert stacks[(1, 0)] == (2, 3)

    def test_local_net_pin_stack(self):
        net = net_with([Pin(0, 0, layer=1), Pin(0, 0, layer=4)], [])
        topo = build_topology(net)
        stacks = topo.via_stacks()
        assert len(stacks) == 1
        assert (stacks[0].lower, stacks[0].upper) == (1, 4)

    def test_unassigned_segments_skipped(self):
        path = [(0, 0), (1, 0), (1, 1)]
        net = net_with([Pin(0, 0), Pin(1, 1)], manhattan_path_edges(path))
        topo = build_topology(net)
        # layers still 0 -> only pin layers (both 1) -> no stacks
        assert topo.via_stacks() == []


class TestErrors:
    def test_cycle_rejected(self):
        edges = [("H", 0, 0), ("V", 1, 0), ("H", 0, 1), ("V", 0, 0)]
        net = net_with([Pin(0, 0), Pin(1, 1)], edges)
        with pytest.raises(TopologyError):
            build_topology(net)

    def test_disconnected_rejected(self):
        edges = [("H", 0, 0), ("H", 3, 3)]
        net = net_with([Pin(0, 0), Pin(1, 0)], edges)
        with pytest.raises(TopologyError):
            build_topology(net)

    def test_pin_off_route_rejected(self):
        edges = [("H", 0, 0)]
        net = net_with([Pin(0, 0), Pin(5, 5)], edges)
        with pytest.raises(TopologyError):
            build_topology(net)

    def test_multi_tile_net_without_edges_rejected(self):
        net = net_with([Pin(0, 0), Pin(1, 0)], [])
        with pytest.raises(TopologyError):
            build_topology(net)

    def test_no_pins_rejected(self):
        net = Net(0, "empty", [])
        with pytest.raises(TopologyError):
            build_topology(net)


def random_tree_net(seed):
    """A random tree of tiles on a 12x12 grid, with pins on some tiles.

    Each step attaches a straight run of 1-3 tiles to an existing tile;
    runs that would close a cycle stop short.
    """
    import random as _random

    from repro.grid.graph import edge_between

    rng = _random.Random(seed)
    tiles = [(5, 5)]
    edges = set()
    for _ in range(rng.randint(1, 12)):
        base = rng.choice(tiles)
        dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
        steps = rng.randint(1, 3)
        cur = base
        for _ in range(steps):
            nxt = (cur[0] + dx, cur[1] + dy)
            if not (0 <= nxt[0] < 12 and 0 <= nxt[1] < 12):
                break
            e = edge_between(cur, nxt)
            if nxt in tiles and e not in edges:
                break  # would close a cycle
            edges.add(e)
            if nxt not in tiles:
                tiles.append(nxt)
            cur = nxt
    pins = [Pin(*tiles[0])] + [Pin(*t) for t in rng.sample(tiles, min(3, len(tiles)))]
    return net_with(pins, sorted(edges)), rng


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_tree_segmentation_conserves_edges(data):
    """Random monotone trees: segment lengths sum to the edge count and the
    directed structure is a forest rooted at the source."""
    net, _ = random_tree_net(data.draw(st.integers(0, 10_000)))
    topo = build_topology(net)
    assert sum(s.length for s in topo.segments) == len(net.route_edges)
    roots = topo.root_segments()
    for sid in range(topo.num_segments):
        path = topo.path_to_segment(sid)
        assert path[0] in roots


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_junction_index_matches_the_segment_scan(seed):
    """The junction index answers what a scan of every segment does, and
    the via stacks built from it match stacks built from the scan."""
    net, rng = random_tree_net(seed)
    topo = build_topology(net)
    for seg in topo.segments:
        seg.layer = rng.choice([0, 1, 2, 3, 4, 5, 6])

    def scan(tile):
        return [
            s.id for s in topo.segments
            if tile in (topo.parent_tile[s.id], topo.child_tile[s.id])
        ]

    for x in range(12):
        for y in range(12):
            assert topo.segments_at((x, y)) == scan((x, y))

    expected = []
    for tile in sorted(topo.junction_tiles()):
        layers = [
            topo.segments[sid].layer for sid in scan(tile)
            if topo.segments[sid].layer > 0
        ]
        layers.extend(p.layer for p in topo.pins_at.get(tile, []))
        if len(layers) >= 2 and max(layers) > min(layers):
            expected.append((tile, min(layers), max(layers)))
    assert [(v.tile, v.lower, v.upper) for v in topo.via_stacks()] == expected
