"""Integration tests for the CPLA engine (SDP and ILP methods)."""

import pytest

from repro.core.engine import CPLAConfig, CPLAEngine, _is_improvement
from repro.core.sdp_relaxation import SdpRelaxationConfig
from repro.ispd.synthetic import generate
from repro.pipeline import prepare
from repro.solver.sdp import SDPSettings

from tests.conftest import tiny_spec


def fast_cpla(method="sdp", **kwargs) -> CPLAConfig:
    defaults = dict(
        method=method,
        critical_ratio=0.05,
        max_iterations=2,
        max_phase_iterations=1,
        sdp=SdpRelaxationConfig(
            max_linking_rows=0,
            settings=SDPSettings(tolerance=3e-4, max_iterations=600),
        ),
    )
    defaults.update(kwargs)
    return CPLAConfig(**defaults)


class TestImprovement:
    def test_avg_first_ordering(self):
        assert _is_improvement((9.0, 10.0), (10.0, 9.0))
        assert not _is_improvement((10.0, 9.0), (9.0, 10.0))
        assert _is_improvement((10.0, 8.0), (10.0, 9.0))

    def test_max_first_ordering(self):
        assert _is_improvement((12.0, 8.0), (10.0, 9.0), max_first=True)
        assert not _is_improvement((9.0, 10.0), (10.0, 9.0), max_first=True)


class TestCPLAEngineSdp:
    def test_improves_and_reports(self):
        bench = prepare(generate(tiny_spec()))
        report = CPLAEngine(bench, fast_cpla()).run()
        assert report.final_avg_tcp <= report.initial_avg_tcp
        assert report.method == "sdp"
        assert report.iterations
        assert report.runtime > 0
        assert len(report.initial_pin_delays) == len(report.final_pin_delays)

    def test_wire_capacity_never_overflowed(self):
        bench = prepare(generate(tiny_spec()))
        before = bench.grid.total_wire_overflow()
        CPLAEngine(bench, fast_cpla()).run()
        assert bench.grid.total_wire_overflow() <= before

    def test_non_released_segments_untouched(self):
        bench = prepare(generate(tiny_spec()))
        snapshot = {
            (n.id, s.id): s.layer for n in bench.nets for s in n.topology.segments
        }
        report = CPLAEngine(bench, fast_cpla()).run()
        released = set(report.critical_net_ids)
        for net in bench.nets:
            if net.id in released:
                continue
            for seg in net.topology.segments:
                assert seg.layer == snapshot[(net.id, seg.id)]

    def test_accepted_iterations_monotone(self):
        bench = prepare(generate(tiny_spec()))
        report = CPLAEngine(bench, fast_cpla(max_iterations=4)).run()
        accepted = [s.avg_tcp for s in report.iterations if s.accepted]
        assert accepted == sorted(accepted, reverse=True)

    def test_grid_usage_consistent_after_run(self):
        bench = prepare(generate(tiny_spec()))
        CPLAEngine(bench, fast_cpla()).run()
        expected = sum(
            seg.length for n in bench.nets for seg in n.topology.segments
        )
        assert bench.grid.total_wirelength() == expected

    def test_parallel_workers_equivalent_quality(self):
        serial = prepare(generate(tiny_spec()))
        r1 = CPLAEngine(serial, fast_cpla()).run()
        parallel = prepare(generate(tiny_spec()))
        r2 = CPLAEngine(parallel, fast_cpla(workers=2)).run()
        # Jacobi vs Gauss-Seidel differ, but both must improve.
        assert r1.final_avg_tcp <= r1.initial_avg_tcp
        assert r2.final_avg_tcp <= r2.initial_avg_tcp


class TestCPLAEngineIlp:
    def test_ilp_method_runs_and_improves(self):
        bench = prepare(generate(tiny_spec(nets=60)))
        report = CPLAEngine(bench, fast_cpla(method="ilp")).run()
        assert report.method == "ilp"
        assert report.final_avg_tcp <= report.initial_avg_tcp


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            CPLAConfig(method="bogus")

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            CPLAConfig(max_iterations=0)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            CPLAConfig(critical_ratio=2.0)
