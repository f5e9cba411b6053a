"""Tests for the SDP relaxation and exact ILP partition solvers.

The key oracle: on brute-forceable instances, the ILP must match exhaustive
enumeration of the partition objective, and the SDP + post-mapping must come
close (the paper's Fig. 7 claim).
"""

import itertools

import numpy as np
import pytest

from repro.core.ilp import IlpConfig, IlpPartitionSolver
from repro.core.mapping import CapacityLedger, post_map
from repro.core.problem import extract_partition_problem
from repro.core.sdp_relaxation import SdpPartitionSolver, SdpRelaxationConfig
from repro.grid.graph import GridGraph, manhattan_path_edges
from repro.route.net import Net, Pin
from repro.route.tree import build_topology
from repro.timing.elmore import ElmoreEngine

from tests.conftest import make_stack


def build_problem(num_nets=2, tracks=4, seed=0):
    grid = GridGraph(10, 10, make_stack(4, tracks=tracks))
    engine = ElmoreEngine(grid.stack)
    rng = np.random.default_rng(seed)
    nets = []
    for i in range(num_nets):
        y = int(rng.integers(0, 7))
        x = int(rng.integers(0, 4))
        net = Net(i, f"n{i}", [Pin(x, y), Pin(x + 3, y + 2, capacitance=3.0)])
        net.route_edges = manhattan_path_edges(
            [(x, y), (x + 1, y), (x + 2, y), (x + 3, y), (x + 3, y + 1), (x + 3, y + 2)]
        )
        topo = build_topology(net)
        for seg in topo.segments:
            seg.layer = 1 if seg.axis == "H" else 2
        nets.append(net)
    timings = {n.id: engine.analyze(n) for n in nets}
    keys = [(n.id, s.id) for n in nets for s in n.topology.segments]
    problem = extract_partition_problem(
        grid, engine, {n.id: n for n in nets}, timings, keys,
        grid.via_usage_ratios(),
    )
    return grid, problem


def brute_force_optimum(problem):
    """Exhaustive minimum of the partition objective (ignores capacity —
    instances used here are uncontended)."""
    choices = [v.layers for v in problem.vars]
    best = None
    for combo in itertools.product(*choices):
        cost = problem.assignment_cost(list(combo))
        if best is None or cost < best:
            best = cost
    return best


class TestIlpSolver:
    def test_matches_brute_force(self):
        grid, problem = build_problem(num_nets=2, seed=1)
        solver = IlpPartitionSolver(IlpConfig(include_via_capacity=False), grid=grid)
        xs, info = solver.solve(problem)
        assert info.status == "optimal"
        layers = post_map(problem, xs, CapacityLedger(grid), refine_passes=0)
        assert problem.assignment_cost(layers) == pytest.approx(
            brute_force_optimum(problem), rel=1e-6
        )

    def test_one_hot_output(self):
        grid, problem = build_problem(seed=2)
        solver = IlpPartitionSolver(IlpConfig(include_via_capacity=False), grid=grid)
        xs, _ = solver.solve(problem)
        for x in xs:
            assert np.isclose(x.sum(), 1.0)
            assert np.isclose(x.max(), 1.0)

    def test_empty_problem(self):
        grid, problem = build_problem(seed=3)
        problem.vars.clear()
        problem.pairs.clear()
        problem.index.clear()
        solver = IlpPartitionSolver(grid=grid)
        xs, info = solver.solve(problem)
        assert xs == [] and info.status == "optimal"

    def test_capacity_constraint_respected(self):
        grid, problem = build_problem(num_nets=1, seed=4)
        # Forbid the fastest H layer outright via an explicit constraint.
        from repro.core.problem import CapacityConstraint

        hvar_idx = next(
            i for i, v in enumerate(problem.vars) if v.segment.axis == "H"
        )
        hvar = problem.vars[hvar_idx]
        fast = max(hvar.layers)
        for e in hvar.segment.edges():
            problem.cap_constraints.append(
                CapacityConstraint(edge=e, layer=fast, capacity=0, var_indices=[hvar_idx])
            )
        solver = IlpPartitionSolver(IlpConfig(include_via_capacity=False), grid=grid)
        xs, info = solver.solve(problem)
        assert info.status == "optimal"
        assert xs[hvar_idx][hvar.layers.index(fast)] == pytest.approx(0.0)

    def test_via_capacity_rows_solvable(self):
        grid, problem = build_problem(num_nets=2, seed=5)
        solver = IlpPartitionSolver(IlpConfig(include_via_capacity=True), grid=grid)
        xs, info = solver.solve(problem)
        assert info.status == "optimal"


class TestSdpSolver:
    def test_close_to_ilp_quality(self):
        grid, problem = build_problem(num_nets=2, seed=6)
        ilp = IlpPartitionSolver(IlpConfig(include_via_capacity=False), grid=grid)
        sdp = SdpPartitionSolver(SdpRelaxationConfig())
        xs_i, _ = ilp.solve(problem)
        xs_s, info = sdp.solve(problem)
        li = post_map(problem, xs_i, CapacityLedger(grid), refine_passes=0)
        ls = post_map(problem, xs_s, CapacityLedger(grid), refine_passes=2)
        ci = problem.assignment_cost(li)
        cs = problem.assignment_cost(ls)
        assert cs <= ci * 1.1  # within 10% of exact (Fig. 7 shape)

    def test_x_values_are_distributions(self):
        grid, problem = build_problem(seed=7)
        sdp = SdpPartitionSolver()
        xs, _ = sdp.solve(problem)
        for x in xs:
            assert np.all(x >= -1e-6) and np.all(x <= 1 + 1e-6)
            assert x.sum() == pytest.approx(1.0, abs=0.1)

    def test_empty_problem(self):
        grid, problem = build_problem(seed=8)
        problem.vars.clear()
        problem.pairs.clear()
        problem.index.clear()
        xs, info = SdpPartitionSolver().solve(problem)
        assert xs == [] and info.mode == "empty"

    def test_penalty_mode_runs(self):
        grid, problem = build_problem(num_nets=2, tracks=1, seed=9)
        sdp = SdpPartitionSolver(SdpRelaxationConfig(constraint_mode="penalty"))
        xs, info = sdp.solve(problem)
        assert info.mode == "penalty"
        assert len(xs) == problem.num_vars

    def test_auto_mode_picks_slack_for_small(self):
        grid, problem = build_problem(num_nets=1, seed=10)
        sdp = SdpPartitionSolver(SdpRelaxationConfig(constraint_mode="auto"))
        _, info = sdp.solve(problem)
        assert info.mode == "slack"

    def test_linking_rows_budgeted(self):
        grid, problem = build_problem(num_nets=3, seed=11)
        limited = SdpPartitionSolver(SdpRelaxationConfig(max_linking_rows=2))
        unlimited = SdpPartitionSolver(SdpRelaxationConfig(max_linking_rows=0))
        _, info_lim = limited.solve(problem)
        _, info_un = unlimited.solve(problem)
        assert info_lim.matrix_order >= info_un.matrix_order

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SdpRelaxationConfig(constraint_mode="bogus")
        with pytest.raises(ValueError):
            SdpRelaxationConfig(max_linking_rows=-1)
