"""Tests of convergence diagnostics and the run ledger (repro.obs)."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.engine import CPLAConfig, CPLAEngine
from repro.core.sdp_relaxation import SdpRelaxationConfig
from repro.ispd.synthetic import generate
from repro.obs import convergence, ledger
from repro.pipeline import prepare
from repro.solver.sdp import ADMMSDPSolver, SDPProblem, SDPSettings

from tests.conftest import tiny_spec


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.disable()
    yield
    obs.disable()


def fast_cpla(**kwargs) -> CPLAConfig:
    defaults = dict(
        method="sdp",
        critical_ratio=0.05,
        max_iterations=1,
        max_phase_iterations=1,
        sdp=SdpRelaxationConfig(
            settings=SDPSettings(tolerance=3e-4, max_iterations=400)
        ),
    )
    defaults.update(kwargs)
    return CPLAConfig(**defaults)


def tiny_sdp() -> SDPProblem:
    problem = SDPProblem(n=2, cost=np.array([[1.0, 0.0], [0.0, 2.0]]))
    problem.add_entry_constraint([(0, 0), (1, 1)], [1.0, 1.0], 1.0)
    problem.set_box(0.0, 1.0)
    return problem


class TestRecorder:
    def test_disabled_recording_is_noop(self):
        assert not convergence.is_enabled()
        ADMMSDPSolver().solve(tiny_sdp())
        convergence.record_partition(convergence.PartitionRecord(
            engine_iteration=0, leaf_index=0, num_segments=1, matrix_order=2,
            num_constraints=1, iterations=5, converged=True, warm_start=False,
            mode="slack", objective=0.0, solve_seconds=0.0, overflow_events=0,
            tcp_contribution=0.0,
        ))
        snap = convergence.snapshot()
        assert snap == {"solves": [], "partitions": []}

    def test_admm_solve_produces_record_with_samples(self):
        convergence.enable()
        result = ADMMSDPSolver().solve(tiny_sdp())
        solves = convergence.snapshot()["solves"]
        assert len(solves) == 1
        rec = solves[0]
        assert rec["solver"] == "sdp"
        assert rec["matrix_order"] == 2
        assert rec["num_constraints"] == 1
        assert rec["warm_start"] is False
        assert rec["iterations"] == result.iterations
        assert rec["converged"] is result.converged
        assert rec["solve_seconds"] > 0.0
        assert 0.0 <= rec["psd_identity_fraction"] <= 1.0
        assert rec["samples"], "residual checks must be sampled"
        sample = rec["samples"][0]
        assert set(sample) == {"iteration", "objective", "primal", "dual", "rho"}
        # Everything in the record must be JSON-serializable as-is.
        json.dumps(solves)
        assert rec["samples"][-1]["iteration"] == result.iterations

    def test_warm_start_disposition_recorded(self):
        convergence.enable()
        solver = ADMMSDPSolver()
        cold = solver.solve(tiny_sdp())
        solver.solve(tiny_sdp(), warm_start=cold.X)
        solves = convergence.snapshot()["solves"]
        assert [s["warm_start"] for s in solves] == [False, True]

    def test_reset_clears_buffers(self):
        convergence.enable()
        ADMMSDPSolver().solve(tiny_sdp())
        convergence.reset()
        assert convergence.snapshot() == {"solves": [], "partitions": []}


def _snapshot_fixture():
    """Hand-built snapshot with known percentiles and one bad partition."""
    solves = [
        dict(solver="sdp", matrix_order=8, num_constraints=4, warm_start=i > 0,
             iterations=100 + 10 * i, converged=True, objective=1.0,
             primal_residual=1e-6 * (i + 1), dual_residual=1e-6,
             solve_seconds=0.01, projection_seconds=0.008,
             psd_identity_fraction=0.5, samples=[])
        for i in range(10)
    ]
    partitions = [
        dict(engine_iteration=0, leaf_index=i, num_segments=3, matrix_order=8,
             num_constraints=4, iterations=100 + 10 * i, converged=(i != 7),
             warm_start=False, mode="slack", objective=1.0,
             solve_seconds=0.01 * (i + 1), overflow_events=1 if i == 7 else 0,
             tcp_contribution=float(100 - i))
        for i in range(10)
    ]
    return {"solves": solves, "partitions": partitions}


class TestSummarize:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        # Nearest-rank over 10 values: index round(q * 9).
        assert convergence._percentile(values, 0.50) == 5.0
        assert convergence._percentile(values, 0.90) == 9.0
        assert convergence._percentile([], 0.50) == 0.0
        assert convergence._percentile([42.0], 0.90) == 42.0

    def test_summarize_counts_and_worst_ranking(self):
        summary = convergence.summarize(_snapshot_fixture(), worst=3)
        s = summary["solves"]
        assert s["count"] == 10
        assert s["converged"] == 10
        assert s["warm_started"] == 9
        assert s["iterations"]["p50"] == 140
        assert s["iterations"]["max"] == 190
        p = summary["partitions"]
        assert p["count"] == 10 and p["nonconverged"] == 1
        assert p["overflow_events"] == 1
        assert len(p["worst"]) == 3
        # Non-converged leaf first, then highest iteration counts.
        assert p["worst"][0]["leaf_index"] == 7
        assert p["worst"][0]["converged"] is False
        assert p["worst"][1]["iterations"] >= p["worst"][2]["iterations"]

    def test_summarize_empty(self):
        assert convergence.summarize(None) == {}
        assert convergence.summarize({"solves": [], "partitions": []}) == {}
        assert "no records" in convergence.summary_text({})

    def test_summary_text_renders_table(self):
        text = convergence.summary_text(
            convergence.summarize(_snapshot_fixture())
        )
        assert "solves: 10 (10 converged, 9 warm-started)" in text
        assert "worst-converging partitions:" in text
        assert "NO" in text  # the non-converged leaf is called out


    def test_summary_text_renders_kernel_calls_old_and_new(self):
        """Kernel calls render their per-projection split; summaries
        stored before the split existed render without it."""
        record = dict(
            members=3, max_order=12, size_groups=2, max_block=6,
            iterations=40, member_iterations=100, converged=3,
            frozen_fraction=0.1667, solve_seconds=0.5, psd_seconds=0.3,
            affine_seconds=0.05, box_seconds=0.01,
        )
        summary = convergence.summarize({"buckets": [record]})
        assert summary["buckets"]["psd_seconds"] == 0.3
        text = convergence.summary_text(summary)
        assert "largest PSD block 6: PSD 0.300s, affine 0.050s" in text
        old = {key: value for key, value in summary["buckets"].items()
               if key not in ("max_block", "psd_seconds", "affine_seconds",
                              "box_seconds")}
        text = convergence.summary_text({"buckets": old})
        assert "batch buckets: 1 kernel calls over 3 members" in text
        assert "PSD" not in text

class TestEngineIntegration:
    def test_sequential_run_attributes_partitions(self):
        convergence.enable()
        bench = prepare(generate(tiny_spec(nets=60)))
        report = CPLAEngine(bench, fast_cpla()).run()
        solves = report.convergence["solves"]
        partitions = report.convergence["partitions"]
        assert solves and partitions
        # One partition record per leaf solve dispatched by the engine.
        assert all(p["engine_iteration"] >= 0 for p in partitions)
        assert all(p["num_segments"] >= 1 for p in partitions)
        assert all(isinstance(p["leaf_index"], int) for p in partitions)
        # Leaves hold critical nets, so Tcp attribution must be positive.
        assert any(p["tcp_contribution"] > 0.0 for p in partitions)
        assert any(s["samples"] for s in solves)
        summary = report.observability_summary()
        assert "convergence:" in summary
        assert "worst-converging partitions:" in summary

    def test_parallel_solve_records_ride_home(self):
        convergence.enable()
        bench = prepare(generate(tiny_spec(nets=60)))
        report = CPLAEngine(bench, fast_cpla(workers=2)).run()
        solves = report.convergence["solves"]
        partitions = report.convergence["partitions"]
        assert solves, "worker solve records must reach the parent"
        assert partitions, "partition attribution is parent-side"
        assert any(s["samples"] for s in solves)
        assert any(p["solve_seconds"] > 0.0 for p in partitions)


def run_report():
    bench = prepare(generate(tiny_spec(nets=60)))
    return CPLAEngine(bench, fast_cpla()).run()


class TestLedger:
    def test_build_append_read_round_trip(self, tmp_path):
        convergence.enable()
        report = run_report()
        entry = ledger.build_entry(
            report, config={"scale": 0.05, "workers": None}, label="unit"
        )
        assert entry["schema"] == ledger.SCHEMA
        assert entry["label"] == "unit"
        assert entry["quality"]["final_avg_tcp"] == report.final_avg_tcp
        assert entry["fingerprint"]["config"] == {"scale": 0.05, "workers": None}
        assert entry["convergence"]["solves"]["count"] >= 1
        path = tmp_path / "runs.jsonl"
        ledger.append_entry(str(path), entry)
        ledger.append_entry(str(path), entry)
        entries = ledger.read_entries(str(path))
        assert len(entries) == 2
        assert entries[0] == json.loads(json.dumps(entry))
        text = ledger.render_entry(entries[-1])
        assert "Avg(Tcp)" in text and "convergence:" in text

    def test_fingerprint_digest_tracks_config(self):
        a = ledger.fingerprint({"scale": 0.05})
        b = ledger.fingerprint({"scale": 0.05})
        c = ledger.fingerprint({"scale": 0.10})
        assert a["config_digest"] == b["config_digest"]
        assert a["config_digest"] != c["config_digest"]

    def test_read_rejects_corruption(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            ledger.read_entries(str(path))
        path.write_text(json.dumps({"schema": "other/v9"}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            ledger.read_entries(str(path))
        path.write_text("\n")
        with pytest.raises(ValueError, match="no entries"):
            ledger.read_entries(str(path))

    def test_match_baseline_latest_same_run_kind(self):
        entries = [
            {"schema": ledger.SCHEMA, "benchmark": "a1", "method": "sdp", "i": 0},
            {"schema": ledger.SCHEMA, "benchmark": "a1", "method": "tila", "i": 1},
            {"schema": ledger.SCHEMA, "benchmark": "a1", "method": "sdp", "i": 2},
        ]
        current = {"benchmark": "a1", "method": "sdp"}
        assert ledger.match_baseline(entries, current)["i"] == 2
        assert ledger.match_baseline(
            entries, {"benchmark": "a2", "method": "sdp"}
        ) is None

    def test_check_identical_passes(self):
        convergence.enable()
        entry = ledger.build_entry(run_report())
        assert ledger.check_entries(entry, entry) == []

    def test_check_flags_regressions(self):
        convergence.enable()
        base = ledger.build_entry(run_report())
        cur = copy.deepcopy(base)
        cur["quality"]["final_avg_tcp"] = base["quality"]["final_avg_tcp"] * 1.5
        cur["convergence"]["solves"]["iterations"]["p90"] *= 3.0
        violations = ledger.check_entries(base, cur)
        assert len(violations) == 2
        assert any("Avg(Tcp)" in v for v in violations)
        assert any("iterations p90" in v for v in violations)
        # Runtime gating is opt-in: a slower run alone must not fail.
        slow = copy.deepcopy(base)
        slow["runtime"]["total_seconds"] = base["runtime"]["total_seconds"] * 10
        assert ledger.check_entries(base, slow) == []
        assert ledger.check_entries(
            base, slow, ledger.CheckThresholds(runtime=0.5)
        ) != []

    def test_check_flags_nonconverged_fraction(self):
        convergence.enable()
        base = ledger.build_entry(run_report())
        parts = base["convergence"].get("partitions")
        if parts is None:
            pytest.skip("run produced no partition records")
        cur = copy.deepcopy(base)
        cur["convergence"]["partitions"]["nonconverged"] = parts["count"]
        violations = ledger.check_entries(base, cur)
        assert any("non-converged" in v for v in violations)

    def test_diff_entries_renders_deltas(self):
        convergence.enable()
        a = ledger.build_entry(run_report())
        b = copy.deepcopy(a)
        b["quality"]["final_avg_tcp"] = a["quality"]["final_avg_tcp"] * 2
        text = ledger.diff_entries(a, b)
        assert "final Avg(Tcp)" in text
        assert "+100.0%" in text


class TestCli:
    def test_run_ledger_show_diff_check(self, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        argv = [
            "run", "--benchmark", "adaptec1", "--method", "sdp",
            "--scale", "0.05", "--ratio", "2", "--ledger", str(runs),
        ]
        # This configuration finishes with residual via overflow, which
        # `repro run` reports as exit code 3 (result still produced).
        assert main(argv) == 3
        out = capsys.readouterr().out
        assert "convergence:" in out
        assert f"appended run-ledger entry to {runs}" in out
        entries = ledger.read_entries(str(runs))
        assert len(entries) == 1

        assert main(["obs", "show", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "adaptec1/sdp" in out and "convergence:" in out

        assert main([
            "obs", "diff", str(runs), str(runs), "--entry-a", "0",
        ]) == 0
        assert "final Avg(Tcp)" in capsys.readouterr().out

        # Gate against itself: within thresholds.
        assert main(["obs", "check", str(runs), "--baseline", str(runs)]) == 0
        assert "obs check ok" in capsys.readouterr().out

        # Degrade the current entry past the Tcp threshold: exit 1.
        entry = copy.deepcopy(entries[0])
        entry["quality"]["final_avg_tcp"] *= 1.5
        degraded = tmp_path / "degraded.jsonl"
        ledger.append_entry(str(degraded), entry)
        assert main([
            "obs", "check", str(degraded), "--baseline", str(runs),
        ]) == 1
        err = capsys.readouterr().err
        assert "obs check FAILED" in err and "Avg(Tcp)" in err

        # A loosened threshold lets the same entry pass.
        assert main([
            "obs", "check", str(degraded), "--baseline", str(runs),
            "--max-avg-tcp-regression", "1.0",
        ]) == 0
        capsys.readouterr()

        # No matching baseline entry: exit 2.
        foreign = copy.deepcopy(entries[0])
        foreign["benchmark"] = "nonesuch"
        mismatch = tmp_path / "mismatch.jsonl"
        ledger.append_entry(str(mismatch), foreign)
        assert main([
            "obs", "check", str(mismatch), "--baseline", str(runs),
        ]) == 2
        assert "no baseline entry" in capsys.readouterr().err

    def test_obs_check_corrupt_ledger_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["obs", "show", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_workers_warning_for_serial_method(self, capsys):
        rc = main([
            "run", "--benchmark", "adaptec1", "--method", "tila",
            "--scale", "0.05", "--ratio", "2", "--workers", "2",
        ])
        assert rc == 3  # this tila configuration ends with via overflow
        err = capsys.readouterr().err
        assert "--workers only parallelizes the sdp/ilp methods" in err
