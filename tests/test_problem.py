"""Tests for per-partition problem extraction."""

import numpy as np
import pytest

from repro.core.problem import _via_capacity_penalty, extract_partition_problem
from repro.grid.graph import GridGraph, manhattan_path_edges
from repro.route.net import Net, Pin
from repro.route.tree import build_topology
from repro.timing.elmore import ElmoreEngine

from tests.conftest import make_stack


def build_setup(tracks=4):
    """One L-shaped net on an empty grid; nothing committed (released state)."""
    grid = GridGraph(8, 8, make_stack(4, tracks=tracks))
    engine = ElmoreEngine(grid.stack)
    net = Net(0, "n0", [Pin(0, 0), Pin(3, 2, capacitance=4.0)])
    net.route_edges = manhattan_path_edges(
        [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
    )
    topo = build_topology(net)
    for seg in topo.segments:
        seg.layer = 1 if seg.axis == "H" else 2
    timings = {0: engine.analyze(net)}
    return grid, engine, net, timings


class TestExtraction:
    def test_vars_cover_requested_keys(self):
        grid, engine, net, timings = build_setup()
        keys = [(0, s.id) for s in net.topology.segments]
        prob = extract_partition_problem(
            grid, engine, {0: net}, timings, keys, grid.via_usage_ratios()
        )
        assert prob.num_vars == len(keys)
        assert set(prob.index) == set(keys)

    def test_costs_match_elmore(self):
        grid, engine, net, timings = build_setup()
        keys = [(0, 0)]
        prob = extract_partition_problem(
            grid, engine, {0: net}, timings, keys, grid.via_usage_ratios()
        )
        var = prob.vars[0]
        seg = net.topology.segments[0]
        cd = timings[0].downstream_caps[0]
        for k, layer in enumerate(var.layers):
            base = engine.segment_delay(seg, cd, layer=layer)
            # Linear via terms (boundary to child + source pin) are added on
            # top, so the cost is at least the Elmore segment delay.
            assert var.cost[k] >= base - 1e-9

    def test_pair_created_when_both_in_partition(self):
        grid, engine, net, timings = build_setup()
        keys = [(0, s.id) for s in net.topology.segments]
        prob = extract_partition_problem(
            grid, engine, {0: net}, timings, keys, grid.via_usage_ratios()
        )
        assert len(prob.pairs) == len(net.topology.connected_pairs())
        pair = prob.pairs[0]
        va, vb = prob.vars[pair.a], prob.vars[pair.b]
        # Via cost zero when layers are adjacent-compatible? It is zero only
        # when both land on the same junction level; the matrix must be
        # non-negative and grow with layer distance on a fresh grid.
        assert np.all(pair.cost >= 0)

    def test_boundary_via_folds_into_linear_cost(self):
        grid, engine, net, timings = build_setup()
        # Only the H segment in the partition: via to the V segment (fixed
        # layer 2) must appear as layer-dependent linear cost.
        prob = extract_partition_problem(
            grid, engine, {0: net}, timings, [(0, 0)], grid.via_usage_ratios()
        )
        var = prob.vars[0]
        assert len(prob.pairs) == 0
        # Layer 3 is farther from the fixed child (layer 2)... both H layers
        # are 1 and 3; via spans |1-2| = 1 cut vs |3-2| = 1 cut -> equal via
        # cost, so instead check the source-pin via: layer 1 pin -> layer 3
        # costs more than layer 1.
        k1 = var.layers.index(1)
        k3 = var.layers.index(3)
        seg = net.topology.segments[0]
        cd = timings[0].downstream_caps[0]
        extra1 = var.cost[k1] - engine.segment_delay(seg, cd, layer=1)
        extra3 = var.cost[k3] - engine.segment_delay(seg, cd, layer=3)
        assert extra3 > extra1

    def test_weights_scale_costs(self):
        grid, engine, net, timings = build_setup()
        keys = [(0, 0)]
        plain = extract_partition_problem(
            grid, engine, {0: net}, timings, keys, grid.via_usage_ratios()
        )
        weighted = extract_partition_problem(
            grid, engine, {0: net}, timings, keys, grid.via_usage_ratios(),
            weights={(0, 0): 2.0},
        )
        assert np.allclose(weighted.vars[0].cost, 2.0 * plain.vars[0].cost)

    def test_via_penalty_reads_the_ratio_map(self, monkeypatch):
        """Extraction reads via capacities only through the ratio map, and
        the penalty equals the direct sum of used / capacity."""
        grid, engine, net, timings = build_setup()
        grid.add_via_stack((3, 0), 1, 4, count=3)
        original = grid.via_capacity
        keys = [(0, s.id) for s in net.topology.segments]
        ratios = grid.via_usage_ratios()
        monkeypatch.setattr(grid, "via_capacity", None)  # never called
        extract_partition_problem(
            grid, engine, {0: net}, timings, keys, ratios
        )
        penalty = _via_capacity_penalty(ratios, 2.0)
        direct = 2.0 * sum(
            grid.via_usage_at((3, 0), cut) / max(original((3, 0), cut), 1)
            for cut in (1, 2, 3)
        )
        assert penalty((3, 0), 4, 1) == direct > 0.0
        assert penalty((3, 0), 1, 4) == direct

    def test_assignment_cost_evaluates(self):
        grid, engine, net, timings = build_setup()
        keys = [(0, s.id) for s in net.topology.segments]
        prob = extract_partition_problem(
            grid, engine, {0: net}, timings, keys, grid.via_usage_ratios()
        )
        current = prob.current_layers()
        assert prob.assignment_cost(current) > 0


class TestCapacityConstraints:
    def test_no_constraint_when_uncontended(self):
        grid, engine, net, timings = build_setup(tracks=8)
        keys = [(0, s.id) for s in net.topology.segments]
        prob = extract_partition_problem(
            grid, engine, {0: net}, timings, keys, grid.via_usage_ratios()
        )
        assert prob.cap_constraints == []

    def test_contended_edge_gets_constraint(self):
        grid, engine, net, timings = build_setup(tracks=4)
        # Fill layer 3 of an edge the net crosses (the segment currently
        # sits on layer 1, which always stays admissible).
        for _ in range(4):
            grid.add_wire(("H", 0, 0), 3)
        keys = [(0, 0)]
        prob = extract_partition_problem(
            grid, engine, {0: net}, timings, keys, grid.via_usage_ratios()
        )
        cons = [
            c for c in prob.cap_constraints
            if c.edge == ("H", 0, 0) and c.layer == 3
        ]
        assert cons and cons[0].capacity == 0

    def test_current_layer_always_admissible(self):
        grid, engine, net, timings = build_setup(tracks=1)
        # Saturate every layer of every edge the H segment crosses.
        for e in net.topology.segments[0].edges():
            for l in grid.layers_for_edge(e):
                grid.add_wire(e, l)
        prob = extract_partition_problem(
            grid, engine, {0: net}, timings, [(0, 0)], grid.via_usage_ratios()
        )
        current = prob.vars[0].current_layer
        for con in prob.cap_constraints:
            if con.layer == current:
                assert con.capacity >= 1

    def test_relief_when_everything_full(self):
        grid, engine, net, timings = build_setup(tracks=1)
        # Saturate both H layers of one edge.
        grid.add_wire(("H", 0, 0), 1)
        grid.add_wire(("H", 0, 0), 3)
        prob = extract_partition_problem(
            grid, engine, {0: net}, timings, [(0, 0)], grid.via_usage_ratios()
        )
        # Relief must leave at least one layer admitting the segment: either
        # a constraint with capacity >= 1, or no constraint at all (vacuous
        # because the relieved capacity covers the demand).
        constrained = {
            c.layer: c.capacity
            for c in prob.cap_constraints
            if c.edge == ("H", 0, 0)
        }
        layers = grid.layers_for_edge(("H", 0, 0))
        assert any(constrained.get(l, 1) >= 1 for l in layers)
