"""Hot-path optimization tests: incremental timing, warm starts, leaf pool.

Covers the perf-overhaul invariants:

- the per-net timing cache must be *exact*: cached ``analyze_all`` results
  equal a fresh engine's, including the critical-path segment lists, even
  when layers are mutated without an explicit ``mark_dirty``;
- the ``carrier_segment`` index answers exactly like the O(segments) scan
  it replaced;
- warm-started partition solves match cold-start objectives;
- the cached dense ``(A, b)`` of ``SDPProblem.constraint_matrix`` is
  invalidated by new rows;
- a failing leaf-solve pool (``--exec pool``: the dist fabric's local
  workers) downgrades to in-process solving instead of crashing the run,
  and counts the failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.core.engine import CPLAEngine
from repro.core.problem import PairTerm, PartitionProblem, SegmentVar
from repro.core.sdp_relaxation import SdpPartitionSolver, SdpRelaxationConfig
from repro.dist.fabric import DistFabric
from repro.ispd.synthetic import generate
from repro.obs import metrics
from repro.pipeline import prepare
from repro.route.net import Segment
from repro.solver.sdp import SDPProblem, SDPSettings
from repro.timing.elmore import ElmoreEngine

from tests.conftest import tiny_spec
from tests.test_engine import fast_cpla


@pytest.fixture(autouse=True)
def _metrics_clean():
    metrics.disable()
    yield
    metrics.disable()


def _mutate_layers(nets, num_layers):
    """Shift half the segments of every 3rd net by one tier (same parity)."""
    mutated = [n for n in nets[::3] if n.topology.segments]
    for net in mutated:
        for seg in net.topology.segments[::2]:
            seg.layer = seg.layer + 2 if seg.layer + 2 <= num_layers else seg.layer - 2
    return mutated


def _assert_timing_equal(cached, fresh, nets):
    for net in nets:
        a, b = cached[net.id], fresh[net.id]
        assert a.sink_delays == b.sink_delays
        assert a.segment_delays == b.segment_delays
        assert a.downstream_caps == b.downstream_caps
        assert a.total_capacitance == b.total_capacitance
        assert a.critical_path_segments(net.topology) == b.critical_path_segments(
            net.topology
        )


class TestIncrementalTiming:
    def test_cached_analyze_all_matches_fresh_engine(self, prepared_bench):
        bench = prepared_bench
        num_layers = len(bench.stack.layers)
        engine = ElmoreEngine(bench.stack)
        engine.analyze_all(bench.nets)

        mutated = _mutate_layers(bench.nets, num_layers)
        assert mutated, "fixture must yield nets to mutate"
        engine.mark_dirty(n.id for n in mutated)

        cached = engine.analyze_all(bench.nets)
        fresh = ElmoreEngine(bench.stack, incremental=False).analyze_all(bench.nets)
        _assert_timing_equal(cached, fresh, bench.nets)

    def test_fingerprint_catches_unannounced_mutation(self, prepared_bench):
        """Exactness must not depend on callers remembering mark_dirty."""
        bench = prepared_bench
        engine = ElmoreEngine(bench.stack)
        engine.analyze_all(bench.nets)
        _mutate_layers(bench.nets, len(bench.stack.layers))

        cached = engine.analyze_all(bench.nets)
        fresh = ElmoreEngine(bench.stack, incremental=False).analyze_all(bench.nets)
        _assert_timing_equal(cached, fresh, bench.nets)

    def test_hit_and_miss_counters(self, prepared_bench):
        bench = prepared_bench
        metrics.enable()
        engine = ElmoreEngine(bench.stack)
        engine.analyze_all(bench.nets)
        counters = metrics.registry().as_dict()["counters"]
        assert counters["elmore.cache_misses"] == len(bench.nets)
        assert "elmore.cache_hits" not in counters

        engine.analyze_all(bench.nets)
        counters = metrics.registry().as_dict()["counters"]
        assert counters["elmore.cache_hits"] == len(bench.nets)
        assert counters["elmore.cache_misses"] == len(bench.nets)

        mutated = _mutate_layers(bench.nets, len(bench.stack.layers))
        engine.mark_dirty(n.id for n in mutated)
        engine.analyze_all(bench.nets)
        counters = metrics.registry().as_dict()["counters"]
        assert counters["elmore.cache_misses"] == len(bench.nets) + len(mutated)

    def test_non_incremental_mode_never_caches(self, prepared_bench):
        bench = prepared_bench
        engine = ElmoreEngine(bench.stack, incremental=False)
        engine.analyze_all(bench.nets)
        assert not engine._cache


def _carrier_by_scan(topo, tile):
    """The pre-index implementation: two linear passes in segment-id order."""
    for seg in topo.segments:
        if topo.child_tile[seg.id] == tile:
            return seg.id
    for seg in topo.segments:
        if topo.parent_tile[seg.id] == tile:
            return topo.parent[seg.id]
    return None


class TestCarrierIndex:
    def test_index_matches_linear_scan(self, prepared_bench):
        for net in prepared_bench.nets:
            topo = net.topology
            for tile in sorted(topo.junction_tiles()):
                assert topo.carrier_segment(tile) == _carrier_by_scan(topo, tile)

    def test_unknown_tile_resolves_to_none(self, prepared_bench):
        topo = prepared_bench.nets[0].topology
        assert topo.carrier_segment((-99, -99)) is None


class TestConstraintMatrixCache:
    def test_repeat_calls_reuse_dense(self):
        p = SDPProblem(n=3, cost=np.eye(3))
        p.add_entry_constraint([(i, i) for i in range(3)], [1.0] * 3, 1.0)
        a1, b1 = p.constraint_matrix()
        a2, b2 = p.constraint_matrix()
        assert a1 is a2 and b1 is b2

    def test_new_row_invalidates(self):
        p = SDPProblem(n=3, cost=np.eye(3))
        p.add_entry_constraint([(i, i) for i in range(3)], [1.0] * 3, 1.0)
        a1, _ = p.constraint_matrix()
        p.add_entry_constraint([(0, 0)], [1.0], 0.5)
        a2, b2 = p.constraint_matrix()
        assert a2 is not a1
        assert a2.shape[0] == 2
        assert b2[-1] == 0.5

    def test_dense_constraint_invalidates_too(self):
        p = SDPProblem(n=2, cost=np.eye(2))
        p.add_entry_constraint([(0, 0)], [1.0], 1.0)
        p.constraint_matrix()
        p.add_constraint(np.eye(2), 1.0)
        a, _ = p.constraint_matrix()
        assert a.shape[0] == 2


def _partition_problem(seed: int = 11) -> PartitionProblem:
    """A small 3-variable chain with quadratic via terms."""
    rng = np.random.default_rng(seed)
    problem = PartitionProblem()
    layers = (1, 3, 5)
    for v in range(3):
        seg = Segment(id=v, net_id=7, axis="H", x1=0, y1=v, x2=3, y2=v, layer=1)
        problem.vars.append(
            SegmentVar(
                key=(7, v),
                segment=seg,
                layers=layers,
                cost=rng.uniform(0.5, 2.0, size=3),
                current_layer=1,
            )
        )
        problem.index[(7, v)] = v
    problem.pairs.append(
        PairTerm(a=0, b=1, tile=(3, 0), cost=rng.uniform(0.0, 1.0, size=(3, 3)))
    )
    problem.pairs.append(
        PairTerm(a=1, b=2, tile=(3, 1), cost=rng.uniform(0.0, 1.0, size=(3, 3)))
    )
    return problem


def _sdp_cfg(warm: bool) -> SdpRelaxationConfig:
    return SdpRelaxationConfig(
        warm_start=warm,
        max_linking_rows=0,
        settings=SDPSettings(tolerance=1e-5, max_iterations=4000),
    )


class TestPartitionWarmStart:
    def test_warm_objective_matches_cold(self):
        problem = _partition_problem()
        _, cold_info = SdpPartitionSolver(_sdp_cfg(False)).solve(problem)

        warm_solver = SdpPartitionSolver(_sdp_cfg(True))
        warm_solver.solve(problem)  # first solve of the signature: cold
        x_warm, warm_info = warm_solver.solve(problem)  # warm-started

        assert cold_info.converged and warm_info.converged
        assert warm_info.objective == pytest.approx(
            cold_info.objective, rel=1e-2, abs=1e-3
        )
        for vals in x_warm:
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_warm_start_counted(self):
        metrics.enable()
        solver = SdpPartitionSolver(_sdp_cfg(True))
        problem = _partition_problem()
        solver.solve(problem)
        counters = metrics.registry().as_dict()["counters"]
        assert "sdp.warm_starts" not in counters
        solver.solve(problem)
        counters = metrics.registry().as_dict()["counters"]
        assert counters["sdp.warm_starts"] == 1

    def test_shape_mismatch_falls_back_to_cold(self):
        solver = SdpPartitionSolver(_sdp_cfg(True))
        problem = _partition_problem()
        solver.solve(problem)
        signature = tuple(var.key for var in problem.vars)
        solver._warm[signature] = np.zeros((2, 2))  # stale, wrong order
        _, info = solver.solve(problem)
        assert info.converged

    def test_disabled_warm_start_keeps_no_state(self):
        solver = SdpPartitionSolver(_sdp_cfg(False))
        solver.solve(_partition_problem())
        assert not solver._warm


@dataclass(frozen=True)
class _Problem:
    value: int
    num_vars: int = 1


@dataclass(frozen=True)
class _UnpicklableProblem(_Problem):
    hook: Callable = lambda: None  # lambdas cannot pickle


class _DoublingSolver:
    def solve(self, problem):
        return problem.value * 2, "info"


class TestLeafSolvePool:
    """``--exec pool`` with ``workers > 1``: the dist fabric's workers."""

    def test_unpicklable_task_downgrades_pool(self):
        metrics.enable()
        with DistFabric(2, _DoublingSolver()) as pool:
            result = pool.solve_many([_UnpicklableProblem(1)])
            # Solved in-process instead.
            assert [entry[0] for entry in result] == [2]
            counters = metrics.registry().as_dict()["counters"]
            assert counters["engine.pool_failures"] == 1
            # The downgrade is permanent: no further pool attempts.
            assert pool.solve_many([_Problem(2)])[0][0] == 4
            assert not pool._workers
            counters = metrics.registry().as_dict()["counters"]
            assert counters["engine.pool_failures"] == 1

    def test_empty_submission_short_circuits(self):
        with DistFabric(2, solver=None) as pool:
            assert pool.solve_many([]) == []
            assert not pool._workers  # no worker spawned for nothing

    def test_engine_survives_pool_failure(self, monkeypatch):
        def broken(self):
            raise RuntimeError("injected fabric failure")

        monkeypatch.setattr(DistFabric, "_ensure_started", broken)
        bench = prepare(generate(tiny_spec()))
        with CPLAEngine(bench, fast_cpla(workers=2)) as engine:
            report = engine.run()
        assert report.final_avg_tcp <= report.initial_avg_tcp
        assert report.scheduler["failures"] == 1

    def test_pool_created_once_per_run(self, monkeypatch):
        created = []
        orig = DistFabric.__init__

        def counting_init(self, workers, solver, config=None):
            created.append(workers)
            orig(self, workers, solver, config)

        monkeypatch.setattr(DistFabric, "__init__", counting_init)
        bench = prepare(generate(tiny_spec()))
        with CPLAEngine(bench, fast_cpla(workers=2, max_iterations=2)) as engine:
            engine.run()
        assert created == [2]
