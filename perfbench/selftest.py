"""Self-tests of the benchmark (not of the program).

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py            # all tests, about two minutes
    python3 perfbench/selftest.py gate tail  # tests whose name contains a word

- smoke: every workload, untraced and traced, with a few operations on small
  designs; every metric named in BENCHMARK.json must print with its unit.
- gate: a wrong expected digest and an HTTP 500 each count as a failed
  operation, and a failure no known defect explains makes the run incorrect.
- empty: in a directory holding only BENCHMARK.json and the benchmark, the
  command exits non-zero without printing a result.

Exit code 0 when every selected test passes.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
import traceback
from contextlib import redirect_stdout

import common

TESTS = []


def _bench():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test(fn):
    TESTS.append(fn)
    return fn


def _shrink():
    """Few operations on small designs: the smoke runs take seconds."""
    import eco
    import oneshot
    import serve

    oneshot.MIN_JOBS, oneshot.JOBS_PER_SECOND = 2, 0.0
    eco.DESIGN = ("adaptec1", 0.3, 1.0)
    eco.MIN_APPLIES, eco.APPLIES_PER_SECOND = 3, 0.0
    serve.DESIGNS = (("adaptec1", 0.05, 2.0), ("bigblue1", 0.05, 2.0))
    serve.MIN_BLOCKS, serve.REQUESTS_PER_SECOND = 1, 0.0


def _run(workload: str, trace: bool):
    import run

    out = io.StringIO()
    with redirect_stdout(out):
        record, log, metrics, notes = run.run_workload(workload, 1, 1, trace)
        common.emit(record, log, metrics, notes)
    return json.loads(out.getvalue().strip().splitlines()[-1]), log


def _check_metrics(result, expected):
    names = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    assert set(got) == set(names), (
        f"missing {sorted(set(names) - set(got))}, "
        f"unexpected {sorted(set(got) - set(names))}"
    )
    for name, entry in got.items():
        assert set(entry) == {"value", "unit"}, (name, entry)
        assert entry["unit"] == names[name], (name, entry["unit"], names[name])
        assert isinstance(entry["value"], (int, float)) and \
            math.isfinite(entry["value"]), (name, entry["value"])


def _smoke(workload: str) -> None:
    _shrink()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, log = _run(workload, trace)
        _check_metrics(result, _bench()[key])
        assert result["attempted"] >= 1 and result["attempted"] == log.attempted
        assert result["correct"], log.unexplained()


@test
def smoke_oneshot():
    _smoke("oneshot")


@test
def smoke_eco():
    _smoke("eco")


@test
def smoke_serve():
    _smoke("serve")


def _replies(statuses_and_bodies):
    import serve

    replies = []
    for kind, status, body, edit_kind in statuses_and_bodies:
        op = serve.Op(client=0, design=0, kind=kind, edit_kind=edit_kind)
        replies.append(serve.Reply(op, 0.1, status, body))
    return replies


@test
def gate_wrong_digest_counts():
    import serve

    _shrink()
    log = common.OpLog()
    replies = _replies([("assign", 200, {"assignment_digest": "sha256:0"}, "")])
    serve.check(log, replies, [log.record(r.seconds) for r in replies])
    assert log.failed == 1 and log.attempted == 1
    (failure,) = log.failures.values()
    assert failure.kind == common.DIGEST_MISMATCH and failure.defect is None
    out = io.StringIO()
    with redirect_stdout(out):
        correct = common.emit({"workload": "serve", "seed": 0, "trace": False},
                              log, {}, {})
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert not correct and result["failed"] == 1 and result["attempted"] == 1


@test
def gate_http_500_counts():
    import serve

    _shrink()
    log = common.OpLog()
    error = {"error": {"type": "solve_failed", "message": "ValueError: boom"}}
    replies = _replies([("assign", 500, error, "")])
    serve.check(log, replies, [log.record(r.seconds) for r in replies])
    (failure,) = log.failures.values()
    assert failure.kind == common.HTTP_ERROR and failure.defect is None


@test
def gate_known_defect_attribution():
    """A 500 naming an unhostable edge after a reroute is defect (a)."""
    import serve

    _shrink()
    engine, fresh_digest = serve.one_shot_states()[0]
    engine.close()
    log = common.OpLog()
    error = {"error": {"type": "solve_failed", "message":
                       "ValueError: layer 2 routes V, cannot host edge ('H', 2, 5)"}}
    # An empty edit set labelled as a reroute replays to the fresh digest.
    replies = _replies([
        ("eco", 200, {"assignment_digest": fresh_digest}, "net_reroute"),
        ("assign", 500, error, ""),
    ])
    serve.check(log, replies, [log.record(r.seconds) for r in replies])
    kinds = [(f.index, f.kind, f.defect) for f in log.failures.values()]
    assert kinds == [(1, common.HTTP_ERROR, "a")], kinds
    assert not log.unexplained()


@test
def tail_percentile_rule():
    assert common.tail_percentile(list(range(40))) == (75, 29)
    assert common.tail_percentile(list(range(20))) == (50, 9)
    assert common.tail_percentile(list(range(19)))[0] == 100


@test
def empty_checkout_fails():
    target = common.WORK / "empty-checkout"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    bench = _bench()
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
        for path in bench["paths"]:
            shutil.copytree(common.ROOT / path, target / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*bench["command"], "--workload", "oneshot", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=target, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(target, ignore_errors=True)
    assert done.returncode != 0, done.returncode
    assert '"correct"' not in done.stdout, done.stdout


def main(argv) -> int:
    common.require_program()
    selected = [t for t in TESTS if not argv or any(a in t.__name__ for a in argv)]
    failed = 0
    for fn in selected:
        try:
            fn()
        except Exception:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {fn.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {fn.__name__}")
    print(f"{len(selected) - failed}/{len(selected)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
