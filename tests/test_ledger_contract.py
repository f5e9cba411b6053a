"""The run-ledger contract: the eleven ``obs check`` gates and the entry keys.

Gates are driven through the command line, so each test pins a flag's
name, its default bound, its kind (relative to the baseline, an
absolute increase, an absolute floor or ceiling) and the words of its
violation.  The writer tests pin the keys every ledger writer puts in
its entries: ``repro run``, closure rounds, sweep points, ``bench-serve``
campaigns and ``benchmarks/bench_eco.py``.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional, Tuple

import pytest

from repro import obs
from repro.cli import main
from repro.obs import ledger


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.disable()
    yield
    obs.disable()


# -- gates -------------------------------------------------------------------


def _base_entry() -> Dict[str, Any]:
    """An entry every gate can read, healthy on every field."""
    return {
        "schema": ledger.SCHEMA,
        "benchmark": "adaptec1",
        "method": "sdp",
        "quality": {
            "final_avg_tcp": 100.0,
            "final_max_tcp": 200.0,
            "final_via_overflow": 3,
        },
        "runtime": {"total_seconds": 2.0},
        "convergence": {
            "solves": {"iterations": {"p90": 40}},
            "partitions": {"count": 100, "nonconverged": 5},
        },
        "serving": {
            "latency_ms": {"p95": 10.0},
            "warm_speedup": 2.0,
            "fleet": {"cache_hit_rate": 0.5, "failover_cold_starts": 0},
        },
        "eco": {"dirty_fraction": 0.2},
    }


def _set(entry: Dict[str, Any], path: Tuple[str, ...], value: Any) -> None:
    node = entry
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _drop(entry: Dict[str, Any], path: Tuple[str, ...]) -> None:
    node = entry
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]


NONCONVERGED = ("convergence", "partitions", "nonconverged")

# flag, bound, path, inside, past, violation words, kind.  ``inside`` and
# ``past`` replace the base entry's value at ``path`` in the current entry.
GATES = [
    ("--max-avg-tcp-regression", "0.10", ("quality", "final_avg_tcp"),
     109.0, 111.0, "Avg(Tcp)", "relative"),
    ("--max-max-tcp-regression", "0.10", ("quality", "final_max_tcp"),
     218.0, 222.0, "Max(Tcp)", "relative"),
    ("--max-iterations-regression", "0.5",
     ("convergence", "solves", "iterations", "p90"),
     59, 61, "iterations p90", "relative"),
    ("--max-nonconverged-increase", "0.10", NONCONVERGED,
     14, 16, "non-converged", "increase"),
    ("--max-runtime-regression", "1.0", ("runtime", "total_seconds"),
     3.9, 4.1, "runtime", "relative"),
    ("--max-serve-p95-regression", "4.0", ("serving", "latency_ms", "p95"),
     49.0, 51.0, "p95 latency", "relative"),
    ("--min-warm-speedup", "1.05", ("serving", "warm_speedup"),
     1.05, 1.04, "warm speedup", "floor"),
    ("--max-via-overflow-increase", "0", ("quality", "final_via_overflow"),
     3, 4, "via overflow", "increase"),
    ("--max-dirty-fraction", "0.75", ("eco", "dirty_fraction"),
     0.75, 0.8, "dirty fraction", "ceiling"),
    ("--min-cache-hit-rate", "0.25", ("serving", "fleet", "cache_hit_rate"),
     0.25, 0.2, "cache hit rate", "floor"),
    ("--max-failover-cold-starts", "0",
     ("serving", "fleet", "failover_cold_starts"),
     0, 2, "cold starts", "ceiling"),
]
GATE_IDS = [row[0] for row in GATES]
ABSOLUTE = [row for row in GATES if row[6] in ("floor", "ceiling")]
COMPARED = [row for row in GATES if row[6] in ("relative", "increase")]

# The four gates on by default, with a value inside and one past the
# default bound.
DEFAULT_ON = [
    (("quality", "final_avg_tcp"), 101.9, 102.1, "Avg(Tcp)"),
    (("quality", "final_max_tcp"), 209.8, 210.2, "Max(Tcp)"),
    (("convergence", "solves", "iterations", "p90"), 59, 61, "iterations p90"),
    (NONCONVERGED, 14, 16, "non-converged"),
]


def _check(
    tmp_path, capsys, current: Dict[str, Any],
    baseline: Optional[Dict[str, Any]] = None, *flags: str,
) -> Tuple[int, str]:
    """``repro obs check`` of ``current`` against ``baseline``."""
    cur_path, base_path = tmp_path / "current.jsonl", tmp_path / "base.jsonl"
    for path in (cur_path, base_path):
        if path.exists():
            path.unlink()
    ledger.append_entry(str(cur_path), current)
    ledger.append_entry(str(base_path), baseline or _base_entry())
    capsys.readouterr()
    code = main([
        "obs", "check", str(cur_path), "--baseline", str(base_path), *flags,
    ])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("row", GATES, ids=GATE_IDS)
def test_gate_passes_inside_and_fails_past_its_bound(tmp_path, capsys, row):
    flag, bound, path, inside, past, words, _ = row
    current = _base_entry()
    _set(current, path, inside)
    code, err = _check(tmp_path, capsys, current, None, flag, bound)
    assert code == 0, err
    _set(current, path, past)
    code, err = _check(tmp_path, capsys, current, None, flag, bound)
    assert code == 1
    violations = [line for line in err.splitlines() if line.startswith("  - ")]
    assert len(violations) == 1, err
    assert words in violations[0]


# Each gate's whole violation line for its row's ``past`` value: CI logs
# are where these lines are read.
WORDING = {
    "--max-avg-tcp-regression":
        "final Avg(Tcp) regressed +11.0% (limit +10.0%): 100 -> 111",
    "--max-max-tcp-regression":
        "final Max(Tcp) regressed +11.0% (limit +10.0%): 200 -> 222",
    "--max-iterations-regression":
        "solver iterations p90 regressed +52.5% (limit +50.0%): 40 -> 61",
    "--max-nonconverged-increase":
        "non-converged partition fraction rose 5.0% -> 16.0% "
        "(limit +10%)",
    "--max-runtime-regression":
        "runtime regressed +105.0% (limit +100.0%): 2 -> 4.1",
    "--max-serve-p95-regression":
        "serving p95 latency regressed +410.0% (limit +400.0%): 10 -> 51",
    "--min-warm-speedup":
        "serving warm speedup 1.04x is below the 1.05x floor "
        "(resident warm state not being reused?)",
    "--max-via-overflow-increase":
        "final via overflow rose 3 -> 4 (limit +0)",
    "--max-dirty-fraction":
        "eco dirty fraction 80.0% exceeds the 75.0% ceiling "
        "(edits are dirtying most of the design)",
    "--min-cache-hit-rate":
        "fleet cache hit rate 20.0% is below the 25.0% floor "
        "(idempotent repeats are reaching solvers)",
    "--max-failover-cold-starts":
        "fleet failover cold starts 2 exceed the 0 ceiling "
        "(replica seeding is not keeping failover warm)",
}


@pytest.mark.parametrize("row", GATES, ids=GATE_IDS)
def test_violation_wording(tmp_path, capsys, row):
    flag, bound, path, _, past = row[:5]
    current = _base_entry()
    _set(current, path, past)
    _, err = _check(tmp_path, capsys, current, None, flag, bound)
    violations = [line for line in err.splitlines() if line.startswith("  - ")]
    assert violations == ["  - " + WORDING[flag]]


@pytest.mark.parametrize("row", ABSOLUTE, ids=[r[0] for r in ABSOLUTE])
def test_absolute_gate_requires_its_field(tmp_path, capsys, row):
    flag, bound, path = row[:3]
    current = _base_entry()
    _drop(current, path)
    code, err = _check(tmp_path, capsys, current, None, flag, bound)
    assert code == 1
    assert "requested but" in err
    assert "has no " + ".".join(path) in err


@pytest.mark.parametrize("row", COMPARED, ids=[r[0] for r in COMPARED])
def test_compared_gate_skips_a_missing_field(tmp_path, capsys, row):
    flag, bound, path = row[:3]
    current = _base_entry()
    _drop(current, path)
    code, err = _check(tmp_path, capsys, current, None, flag, bound)
    assert code == 0, err
    baseline = _base_entry()
    _drop(baseline, path)
    current = _base_entry()
    _set(current, path, row[4])
    code, err = _check(tmp_path, capsys, current, baseline, flag, bound)
    assert code == 0, err


@pytest.mark.parametrize(
    "path, inside, past, words", DEFAULT_ON, ids=[w for *_, w in DEFAULT_ON]
)
def test_default_bounds(tmp_path, capsys, path, inside, past, words):
    current = _base_entry()
    _set(current, path, inside)
    assert _check(tmp_path, capsys, current)[0] == 0
    _set(current, path, past)
    code, err = _check(tmp_path, capsys, current)
    assert code == 1 and words in err


def test_opt_in_gates_are_off_by_default(tmp_path, capsys):
    current = _base_entry()
    default_on = {tuple(path) for path, *_ in DEFAULT_ON}
    for _, _, path, _, past, _, _ in GATES:
        if tuple(path) not in default_on:
            _set(current, path, past)
    code, err = _check(tmp_path, capsys, current)
    assert code == 0, err


def test_every_gate_reports_at_once(tmp_path, capsys):
    current = _base_entry()
    flags = []
    for flag, bound, path, _, past, _, _ in GATES:
        _set(current, path, past)
        flags += [flag, bound]
    code, err = _check(tmp_path, capsys, current, None, *flags)
    assert code == 1
    violations = [line for line in err.splitlines() if line.startswith("  - ")]
    assert len(violations) == len(GATES)
    for row in GATES:
        assert any(row[5] in v for v in violations), row[0]


def test_relative_gate_skips_a_zero_baseline(tmp_path, capsys):
    baseline = _base_entry()
    _set(baseline, ("runtime", "total_seconds"), 0.0)
    current = copy.deepcopy(baseline)
    _set(current, ("runtime", "total_seconds"), 9.0)
    code, err = _check(
        tmp_path, capsys, current, baseline,
        "--max-runtime-regression", "0.1",
    )
    assert code == 0, err


# -- writers -----------------------------------------------------------------

ENVELOPE = [
    "schema", "created", "benchmark", "method", "critical_ratio",
    "fingerprint", "quality", "runtime",
]
FINGERPRINT = {"python", "platform", "commit", "config", "config_digest"}
QUALITY = {
    "initial_avg_tcp", "final_avg_tcp", "initial_max_tcp", "final_max_tcp",
    "initial_via_overflow", "final_via_overflow", "initial_vias",
    "final_vias",
}
RUNTIME = {"total_seconds", "phases", "worker_phases"}
ECO_ROUND = {
    "round", "epoch", "num_edits", "edit_digest", "released",
    "dirty_leaves", "num_leaves", "dirty_fraction", "accepted", "digest",
}


def _assert_envelope(entry: Dict[str, Any], config: set, quality=QUALITY,
                     runtime=RUNTIME) -> None:
    assert list(entry)[:len(ENVELOPE)] == ENVELOPE
    assert entry["schema"] == ledger.SCHEMA
    assert set(entry["fingerprint"]) == FINGERPRINT
    assert set(entry["fingerprint"]["config"]) == config
    assert set(entry["quality"]) == quality
    assert set(entry["runtime"]) == runtime


def test_run_entry_keys(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    main([
        "run", "--benchmark", "adaptec1", "--scale", "0.05", "--ratio", "2",
        "--ledger", str(path),
    ])
    capsys.readouterr()
    (entry,) = ledger.read_entries(str(path))
    assert list(entry) == ENVELOPE + ["convergence", "router"]
    _assert_envelope(entry, {
        "benchmark", "method", "scale", "ratio_percent", "workers", "exec",
        "router_rounds", "maze_expansion_limit",
    })
    assert set(entry["convergence"]) == {"solves", "partitions"}
    # Stops by the rounding exit count as converged; the count says how many.
    assert set(entry["convergence"]["solves"]) == {
        "count", "converged", "rounding_exits", "warm_started", "iterations",
        "primal_residual_max", "projection_seconds", "psd_identity_fraction",
    }
    assert set(entry["router"]) == {
        "nets_routed", "nets_rerouted", "reroute_rounds", "maze_aborts",
        "final_overflow",
    }


def test_closure_entry_keys(tmp_path):
    from repro.eco.closure import ClosureConfig, run_closure

    path = tmp_path / "closure.jsonl"
    run_closure(
        ClosureConfig(
            benchmark="adaptec1", scale=0.05, critical_ratio=0.02,
            max_rounds=1,
        ),
        ledger_path=str(path),
        trace_info={"trace_id": "t" * 32, "file": "spans.jsonl"},
    )
    (entry,) = ledger.read_entries(str(path))
    assert list(entry) == ENVELOPE + ["convergence", "eco", "trace"]
    _assert_envelope(entry, {
        "scale", "critical_ratio", "workers", "exec_backend", "release_k",
        "max_rounds", "min_gain",
    })
    assert entry["method"] == "closure:sdp"
    assert entry["convergence"] == {}
    assert entry["runtime"]["phases"] == entry["runtime"]["worker_phases"] == {}
    assert set(entry["eco"]) == ECO_ROUND
    assert entry["trace"] == {"trace_id": "t" * 32, "file": "spans.jsonl"}


def test_sweep_entry_keys(tmp_path):
    from repro.eco.sweep import SweepConfig, run_sweep

    path = tmp_path / "sweep.jsonl"
    run_sweep(
        SweepConfig(benchmark="adaptec1", scale=0.05, ratios=(0.02,)),
        ledger_path=str(path),
    )
    (entry,) = ledger.read_entries(str(path))
    assert list(entry) == ENVELOPE + ["convergence", "sweep"]
    _assert_envelope(entry, {
        "scale", "workers", "exec_backend", "partition_size", "alpha", "rho",
        "ratio",
    })
    assert entry["method"] == "sweep:sdp"
    assert entry["critical_ratio"] == 0.02
    assert entry["convergence"] == {}
    assert set(entry["sweep"]) == {"point", "points", "knobs", "pareto"}


def test_bench_serve_entry_keys():
    from repro.service.loadgen import LoadGenConfig, run_loadgen

    entry = run_loadgen(LoadGenConfig(
        benchmark="adaptec1", scale=0.05, ratio_percent=2,
        qps=20, requests=2, concurrency=2, warmup=1,
    )).entry
    assert list(entry) == ENVELOPE + ["serving", "trace"]
    _assert_envelope(entry, {
        "benchmark", "scale", "ratio_percent", "method", "workers", "exec",
        "qps", "requests", "concurrency",
    }, runtime={"total_seconds", "phases"})
    assert entry["method"] == "serve:sdp"
    assert set(entry["serving"]) == {
        "latency_ms", "first_request_ms", "warm_request_ms", "warm_speedup",
        "throughput_qps", "target_qps", "requests", "queue_depth",
        "digest_consistent", "verified_against_run", "engine_runs",
    }
    assert set(entry["trace"]) == {"trace_id", "cold_trace_id", "slowest_ms"}


def test_serve_entry_renders_every_serving_line():
    """``repro obs show`` and ``repro bench-serve`` print one rendering of
    a serve entry, ECO rounds and fleet failover included."""
    entry = ledger.make_entry(
        "adaptec1", "fleet:sdp", 0.02, {}, {}, 1.5,
        serving={
            "latency_ms": {"p50": 3.0, "p95": 12.0, "p99": 14.0},
            "first_request_ms": 420.0,
            "warm_request_ms": 2.0,
            "warm_speedup": 210.0,
            "throughput_qps": 11.9,
            "target_qps": 12.0,
            "requests": {"sent": 12, "ok": 11, "rejected_429": 1,
                         "errors": 0},
            "queue_depth": {"p50": 0, "p95": 1, "max": 2},
            "eco": {"rounds": 2, "ok": 2, "accepted": 1, "failed": 0,
                    "final_epoch": 2, "latency_ms": {"p50": 61.0,
                                                     "max": 70.0}},
            "digest_consistent": True,
            "verified_against_run": True,
            "fleet": {
                "shards": 2, "cache_hit_rate": 0.5, "cache_hits": 6,
                "cache_misses": 6, "cache_invalidations": 2,
                "failovers": 1, "failover_cold_starts": 0,
                "replica_seeds": 1, "replica_pushes": 4, "engine_runs": 4,
                "failover": {"victim": "s1", "probes": 2, "ok": 2,
                             "failed": 0, "latency_ms": {"max": 480.0}},
            },
        },
    )
    text = ledger.render_entry(entry)
    for line in (
        "  requests             11/12 ok, 1 rejected, 0 errors",
        "  eco rounds           2/2 ok (1 accepted), final epoch 2, p50 61 ms",
        "  digests consistent   True, verified vs repro run: True",
        "  failover probes 2/2 ok after shard 's1' stopped  (max 480 ms)",
    ):
        assert line in text.splitlines()


def test_bench_eco_entry_keys(tmp_path, capsys):
    from benchmarks import bench_eco

    path = tmp_path / "eco.jsonl"
    assert bench_eco.main([
        "--label", "unit", "--out", str(tmp_path / "BENCH_eco.json"),
        "--scale", "0.05", "--ratio", "2", "--edit-sizes", "1",
        "--ledger", str(path),
    ]) == 0
    capsys.readouterr()
    (entry,) = ledger.read_entries(str(path))
    assert list(entry) == ENVELOPE + ["convergence", "eco"]
    _assert_envelope(
        entry,
        {
            "scale", "critical_ratio", "workers", "exec_backend", "tier",
            "edit_size", "resize_factor",
        },
        quality={
            "initial_avg_tcp", "final_avg_tcp", "initial_max_tcp",
            "final_max_tcp",
        },
    )
    assert entry["method"] == "eco:sdp"
    assert set(entry["runtime"]["phases"]) == {
        "eco:incremental", "eco:cold_replay",
    }
    assert set(entry["eco"]) == ECO_ROUND - {"round"} | {
        "edit_size", "speedup",
    }
