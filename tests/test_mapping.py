"""Tests for the post-mapping algorithm and capacity ledger."""

import numpy as np
import pytest

from repro.core.mapping import CapacityLedger, post_map
from repro.core.problem import extract_partition_problem
from repro.grid.graph import GridGraph, manhattan_path_edges
from repro.route.net import Net, Pin
from repro.route.tree import build_topology
from repro.timing.elmore import ElmoreEngine

from tests.conftest import make_stack


def straight_net(nid, y, length=3):
    net = Net(nid, f"n{nid}", [Pin(0, y), Pin(length, y, capacitance=2.0)])
    net.route_edges = manhattan_path_edges([(x, y) for x in range(length + 1)])
    topo = build_topology(net)
    topo.segments[0].layer = 1
    return net


def problem_for(nets, grid):
    engine = ElmoreEngine(grid.stack)
    timings = {n.id: engine.analyze(n) for n in nets}
    keys = [(n.id, s.id) for n in nets for s in n.topology.segments]
    return extract_partition_problem(
        grid, engine, {n.id: n for n in nets}, timings, keys,
        grid.via_usage_ratios(),
    )


class TestLedger:
    def test_lazy_remaining(self, grid8):
        ledger = CapacityLedger(grid8)
        assert ledger.remaining(("H", 0, 0), 1) == 4
        grid8.add_wire(("H", 0, 1), 1)
        assert ledger.remaining(("H", 0, 1), 1) == 3

    def test_consume_release_roundtrip(self, grid8):
        ledger = CapacityLedger(grid8)
        edges = [("H", 0, 0), ("H", 1, 0)]
        ledger.consume(edges, 1)
        assert ledger.remaining(("H", 0, 0), 1) == 3
        ledger.release(edges, 1)
        assert ledger.remaining(("H", 0, 0), 1) == 4

    def test_overflow_events_counted(self, grid8):
        ledger = CapacityLedger(grid8)
        edges = [("H", 0, 0)]
        for _ in range(5):
            ledger.consume(edges, 1)
        assert ledger.overflow_events == 1

    def test_negative_remaining_clamped_at_init(self, grid8):
        for _ in range(6):
            grid8.add_wire(("H", 0, 0), 1)
        ledger = CapacityLedger(grid8)
        assert ledger.remaining(("H", 0, 0), 1) == 0


class TestPostMap:
    def test_one_hot_input_respected(self):
        grid = GridGraph(8, 8, make_stack(4))
        net = straight_net(0, 0)
        prob = problem_for([net], grid)
        var = prob.vars[0]
        x = np.zeros(len(var.layers))
        x[var.layers.index(3)] = 1.0
        layers = post_map(prob, [x], CapacityLedger(grid), refine_passes=0)
        assert layers == [3]

    def test_capacity_respected_under_contention(self):
        grid = GridGraph(8, 8, make_stack(4, tracks=1))
        nets = [straight_net(i, 0) for i in range(2)]
        # Both nets share the same edges; both "want" layer 3.
        prob = problem_for(nets, grid)
        xs = []
        for var in prob.vars:
            x = np.zeros(len(var.layers))
            x[var.layers.index(3)] = 1.0
            xs.append(x)
        ledger = CapacityLedger(grid)
        layers = post_map(prob, xs, ledger, refine_passes=0)
        assert sorted(layers) == [1, 3]
        assert ledger.overflow_events == 0

    def test_fallback_assigns_everything(self):
        grid = GridGraph(8, 8, make_stack(4, tracks=1))
        nets = [straight_net(i, 0) for i in range(4)]  # demand 4 > capacity 2
        prob = problem_for(nets, grid)
        xs = [np.full(len(v.layers), 0.5) for v in prob.vars]
        ledger = CapacityLedger(grid)
        layers = post_map(prob, xs, ledger)
        assert len(layers) == 4
        assert all(l in (1, 3) for l in layers)
        assert ledger.overflow_events > 0

    def test_modes_agree_on_easy_instance(self):
        grid = GridGraph(8, 8, make_stack(4))
        net = straight_net(0, 0)
        prob = problem_for([net], grid)
        var = prob.vars[0]
        x = np.zeros(len(var.layers))
        x[var.layers.index(3)] = 0.9
        x[var.layers.index(1)] = 0.1
        a = post_map(prob, [x], CapacityLedger(grid), mode="paper")
        b = post_map(prob, [x], CapacityLedger(grid), mode="greedy")
        assert a == b == [3]

    def test_bad_mode_rejected(self):
        grid = GridGraph(8, 8, make_stack(4))
        net = straight_net(0, 0)
        prob = problem_for([net], grid)
        with pytest.raises(ValueError):
            post_map(prob, [np.ones(2)], CapacityLedger(grid), mode="bogus")

    def test_misaligned_values_rejected(self):
        grid = GridGraph(8, 8, make_stack(4))
        net = straight_net(0, 0)
        prob = problem_for([net], grid)
        with pytest.raises(ValueError):
            post_map(prob, [], CapacityLedger(grid))


class TestRefinement:
    def test_refinement_never_worsens_cost(self):
        grid = GridGraph(8, 8, make_stack(4))
        nets = [straight_net(i, i) for i in range(3)]
        prob = problem_for(nets, grid)
        xs = [np.full(len(v.layers), 1.0 / len(v.layers)) for v in prob.vars]
        raw = post_map(prob, xs, CapacityLedger(grid), refine_passes=0)
        refined = post_map(prob, xs, CapacityLedger(grid), refine_passes=3)
        assert prob.assignment_cost(refined) <= prob.assignment_cost(raw) + 1e-9

    def test_refinement_respects_capacity(self):
        grid = GridGraph(8, 8, make_stack(4, tracks=1))
        nets = [straight_net(i, 0) for i in range(2)]
        prob = problem_for(nets, grid)
        xs = [np.full(len(v.layers), 0.5) for v in prob.vars]
        ledger = CapacityLedger(grid)
        layers = post_map(prob, xs, ledger, refine_passes=3)
        # Two segments over the same edges with one track per layer: they
        # must end on different layers.
        assert layers[0] != layers[1]
