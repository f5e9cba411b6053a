"""Determinism tests: identical inputs must give identical outputs.

The whole flow is deterministic by construction (seeded generation, ordered
iteration, no wall-clock dependencies in decisions), which the experiment
harness relies on for cacheing paired comparisons.
"""

from repro.core.engine import CPLAConfig, CPLAEngine
from repro.core.sdp_relaxation import SdpRelaxationConfig
from repro.ispd.synthetic import generate
from repro.pipeline import prepare
from repro.solver.sdp import SDPSettings
from repro.tila.engine import TILAConfig, TILAEngine

from tests.conftest import tiny_spec


def layer_signature(bench):
    return tuple(
        (n.id, s.id, s.layer)
        for n in bench.nets
        if n.topology
        for s in n.topology.segments
    )


class TestDeterminism:
    def test_prepare_deterministic(self):
        a = prepare(generate(tiny_spec()))
        b = prepare(generate(tiny_spec()))
        assert layer_signature(a) == layer_signature(b)
        assert a.grid.total_vias() == b.grid.total_vias()

    def test_tila_deterministic(self):
        results = []
        for _ in range(2):
            bench = prepare(generate(tiny_spec()))
            report = TILAEngine(bench, TILAConfig(critical_ratio=0.05)).run()
            results.append((layer_signature(bench), report.final_avg_tcp))
        assert results[0] == results[1]

    def test_cpla_deterministic(self):
        results = []
        cfg = dict(
            method="sdp",
            critical_ratio=0.05,
            max_iterations=2,
            max_phase_iterations=1,
            sdp=SdpRelaxationConfig(
                settings=SDPSettings(tolerance=5e-4, max_iterations=400)
            ),
        )
        for _ in range(2):
            bench = prepare(generate(tiny_spec()))
            report = CPLAEngine(bench, CPLAConfig(**cfg)).run()
            results.append((layer_signature(bench), round(report.final_avg_tcp, 6)))
        assert results[0] == results[1]

    def test_different_benchmarks_differ(self):
        a = prepare(generate(tiny_spec(seed=7)))
        b = prepare(generate(tiny_spec(seed=8)))
        assert layer_signature(a) != layer_signature(b)

    def test_exec_backend_family_bit_identical(self):
        """seq, batch, pool, and dist are one digest family.

        The batched backend lays leaves of mixed orders and block
        structures end to end in one kernel call (the tiny benchmark
        produces several distinct matrix orders per iteration), so this
        also exercises the ragged state + lockstep freezing end to end.
        """
        cfg = dict(
            method="sdp",
            critical_ratio=0.05,
            max_iterations=2,
            max_phase_iterations=1,
            sdp=SdpRelaxationConfig(
                settings=SDPSettings(tolerance=5e-4, max_iterations=400)
            ),
        )
        signatures = {}
        for backend, workers in (
            ("seq", 0), ("batch", 0), ("pool", 2), ("dist", 2),
        ):
            bench = prepare(generate(tiny_spec()))
            with CPLAEngine(
                bench,
                CPLAConfig(exec_backend=backend, workers=workers, **cfg),
            ) as engine:
                engine.run()
            signatures[backend] = layer_signature(bench)
        assert (
            signatures["seq"] == signatures["batch"]
            == signatures["pool"] == signatures["dist"]
        )
