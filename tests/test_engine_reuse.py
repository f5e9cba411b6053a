"""Engine and pool lifecycle tests: reuse, close semantics, failure fallback.

The serving layer keeps one :class:`~repro.core.engine.CPLAEngine` resident
per problem signature and reruns it for every request, so the engine's
reuse contract is load-bearing:

- a rewound rerun on a warm engine (live worker pool, populated Elmore
  cache, the previous run's ADMM warm starts, which each run discards)
  must produce the **bit-identical** assignment a fresh engine would;
- a failing worker initializer must downgrade the pool (the dist fabric's
  workers) to the in-process fallback — counted in
  ``engine.pool_failures`` — without changing the result (the fallback
  solves the identically-extracted Jacobi problems);
- fabrics and engines are context managers with idempotent ``close``, and
  leaked fabrics are reaped by the module's ``atexit`` guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

import repro.dist.fabric as fabric_mod
from repro.core.engine import CPLAConfig, CPLAEngine
from repro.dist.fabric import DistFabric, DistFabricConfig
from repro.eco import EcoEngine, cold_replay_digest
from repro.ispd.request import assignment_digest
from repro.ispd.synthetic import generate
from repro.obs import metrics
from repro.pipeline import prepare
from tests.conftest import tiny_spec
from tests.test_eco import SCRIPT as ECO_SCRIPT
from tests.test_engine import fast_cpla


@pytest.fixture(autouse=True)
def _metrics_clean():
    metrics.disable()
    yield
    metrics.disable()


def _fresh_bench():
    return prepare(generate(tiny_spec()))


class TestPoolFailureFallback:
    def test_failing_initializer_downgrades_and_preserves_result(
        self, monkeypatch
    ):
        """A poisoned worker initializer must not change the answer.

        The fallback solves the already-extracted Jacobi problems inline,
        so the run with a broken pool is bit-identical to a healthy
        parallel run (not to the Gauss-Seidel serial mode, which is a
        different — also valid — algorithm).
        """
        metrics.enable()
        monkeypatch.setenv("REPRO_DIST_FAULT", "initfail:0,initfail:1")
        broken_bench = _fresh_bench()
        config = fast_cpla(
            workers=2,
            dist=DistFabricConfig(max_worker_restarts=0, worker_wait_timeout=5.0),
        )
        with CPLAEngine(broken_bench, config) as engine:
            report = engine.run()
        broken_digest = assignment_digest(broken_bench)

        counters = metrics.registry().as_dict()["counters"]
        assert counters["engine.pool_failures"] == 1
        assert report.final_avg_tcp <= report.initial_avg_tcp

        monkeypatch.undo()
        healthy_bench = _fresh_bench()
        with CPLAEngine(healthy_bench, fast_cpla(workers=2)) as engine:
            engine.run()
        assert broken_digest == assignment_digest(healthy_bench)


# (suite name, scale, critical ratio): the serve smoke design and one of
# the serving benchmark's resident designs.
DEFAULT_DESIGNS = [("adaptec1", 0.05, 0.02), ("bigblue1", 0.1, 0.01)]


class TestEngineReuse:
    def test_warm_rerun_bit_identical_to_fresh_engine(self):
        """Two runs on one engine == two fresh engines, bit for bit.

        This is the determinism contract the resident server relies on:
        rewinding to the post-prepare checkpoint and rerunning with warm
        caches (Elmore fingerprints, ADMM warm-start X) must reproduce
        exactly what a cold engine computes.
        """
        bench = _fresh_bench()
        with CPLAEngine(bench, fast_cpla()) as engine:
            baseline = engine.snapshot_layers()
            first = engine.run()
            first_digest = assignment_digest(bench)

            engine.restore_layers(baseline)
            assert engine.snapshot_layers() == baseline

            second = engine.run()
            second_digest = assignment_digest(bench)

        assert second_digest == first_digest
        assert second.final_avg_tcp == first.final_avg_tcp
        assert second.final_max_tcp == first.final_max_tcp

        fresh_bench = _fresh_bench()
        with CPLAEngine(fresh_bench, fast_cpla()) as engine:
            engine.run()
        assert assignment_digest(fresh_bench) == first_digest

    @pytest.mark.parametrize("name,scale,ratio", DEFAULT_DESIGNS)
    def test_warm_rerun_equals_fresh_run_at_defaults(self, name, scale, ratio):
        """The same contract at the solver settings the server ships:
        ``CPLAConfig()`` (Gauss-Seidel, the default ADMM stop), whose
        loose stop makes a leaf's rounding sensitive to its start.  Each
        run starts from an empty warm store, so every rerun repeats the
        fresh run."""
        config = CPLAConfig(critical_ratio=ratio)
        bench = prepare(name, scale=scale)
        warm_digests = []
        with CPLAEngine(bench, config) as engine:
            baseline = engine.snapshot_layers()
            engine.run()
            for _ in range(3):
                engine.restore_layers(baseline)
                engine.run()
                warm_digests.append(assignment_digest(bench))
        fresh = prepare(name, scale=scale)
        with CPLAEngine(fresh, config) as engine:
            engine.run()
        assert warm_digests == [assignment_digest(fresh)] * 3

    def test_eco_chain_after_warm_rerun_equals_cold_replay(self):
        """ECO edits applied after a warm rerun land where a cold replay
        of the same history does: the rerun leaves the engine in the
        fresh run's state, warm store included."""
        name, scale, ratio = DEFAULT_DESIGNS[0]
        bench = prepare(name, scale=scale)
        with CPLAEngine(bench, CPLAConfig(critical_ratio=ratio)) as engine:
            baseline = engine.snapshot_layers()
            engine.run()
            engine.restore_layers(baseline)
            engine.run()
            eco = EcoEngine(engine)
            for batch in ECO_SCRIPT:
                eco.apply(list(batch))
            digest = assignment_digest(bench)
        assert digest == cold_replay_digest(
            name, ECO_SCRIPT, scale=scale, critical_ratio=ratio,
            exec_backend="pool",
        )

    def test_rerun_repeats_the_fresh_runs_solve_sequence(self):
        """A full run never starts from a warm ``X`` left by an earlier
        run: a rewound rerun takes the same warm starts and the same ADMM
        iterations as the first run, and lands on its assignment."""
        name, scale, ratio = DEFAULT_DESIGNS[0]
        bench = prepare(name, scale=scale)
        runs = []
        with CPLAEngine(bench, CPLAConfig(critical_ratio=ratio)) as engine:
            baseline = engine.snapshot_layers()
            for _ in range(2):
                engine.restore_layers(baseline)
                metrics.disable()  # clears the registry
                metrics.enable()
                engine.run()
                counters = metrics.registry().as_dict()["counters"]
                runs.append((
                    counters["sdp.solves"],
                    counters["sdp.warm_starts"],
                    counters["sdp.iterations"],
                    assignment_digest(bench),
                ))
        assert runs[0][1] > 0, "the run should warm-start its later passes"
        assert runs[1] == runs[0]

    def test_pool_survives_between_runs(self):
        """run() must not tear the workers down; close() must."""
        bench = _fresh_bench()
        engine = CPLAEngine(bench, fast_cpla(workers=2))
        baseline = engine.snapshot_layers()
        engine.run()
        fabric = engine._backend
        assert isinstance(fabric, DistFabric)
        processes = [w.process for w in fabric._workers.values()]
        assert len(processes) == 2
        assert all(p.is_alive() for p in processes)

        engine.restore_layers(baseline)
        engine.run()  # reuses the same workers rather than respawning
        assert engine._backend is fabric
        assert [w.process for w in fabric._workers.values()] == processes

        engine.close()
        assert engine._backend is None
        assert not any(p.is_alive() for p in processes)
        engine.close()  # idempotent


@dataclass(frozen=True)
class _Problem:
    value: int
    num_vars: int = 1


class _DoublingSolver:
    def solve(self, problem):
        return problem.value * 2, "info"


def _started_fabric(workers=2):
    fabric = DistFabric(workers, _DoublingSolver())
    assert fabric.solve_many([_Problem(1)])[0][0] == 2
    return fabric, [w.process for w in fabric._workers.values()]


class _RecordingBackend:
    def __init__(self):
        self.closes = 0

    def close(self):
        self.closes += 1


class TestPoolLifecycle:
    def test_pool_context_manager_and_idempotent_close(self):
        fabric, processes = _started_fabric()
        with fabric:
            assert all(p.is_alive() for p in processes)
        assert not any(p.is_alive() for p in processes)
        assert not fabric._workers
        fabric.close()  # close after close is a no-op
        assert not fabric._workers

    def test_atexit_guard_reaps_leaked_pools(self):
        fabric, processes = _started_fabric(workers=1)
        assert fabric in fabric_mod._LIVE_FABRICS
        fabric_mod._close_leaked_fabrics()
        assert not any(p.is_alive() for p in processes)
        assert not fabric._workers

    def test_engine_context_manager_closes_pool(self):
        bench = _fresh_bench()
        backend = _RecordingBackend()
        with CPLAEngine(bench, fast_cpla(workers=2)) as engine:
            engine._backend = backend
        assert engine._backend is None
        assert backend.closes == 1
