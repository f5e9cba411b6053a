"""Resident solved state: one full solve, ECO edits rewound to it.

A :class:`~repro.service.resident.ResidentEngine` runs the optimizer once.
Every later ``/v1/assign`` (``ResidentEngine.solve``) answers from the
solved state, and after ECO edits the design is first rewound to the
solved checkpoint.  Each edit op gets a regression test on one resident:
the assign after the edit must return the one-shot digest without running
the engine and leave the design exactly as solved, and an ECO chain sent
after that assign must land where a cold replay of the chain does.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.engine import CPLAConfig, CPLAEngine
from repro.eco import cold_replay_digest
from repro.eco.edits import parse_edits
from repro.ispd.request import AssignRequest, EcoRequest, assignment_digest
from repro.obs import metrics
from repro.pipeline import prepare
from repro.service.resident import ResidentEngine

# perfbench's serve configuration of defects (a) and (e).
SCALE = 0.1
RATIO_PERCENT = 2

# ECOs sent after the assign that follows the edit under test.
CHAIN = (
    [{"op": "net_resize", "nets": [3, 17], "factor": 2.0}],
    [{"op": "release_nets", "worst": 4}],
)


@pytest.fixture(autouse=True)
def _metrics_clean():
    metrics.disable()
    yield
    metrics.disable()


def _body(name, **extra):
    return {"benchmark": name, "scale": SCALE,
            "ratio_percent": RATIO_PERCENT, **extra}


def _eco(name, edits, epoch):
    return EcoRequest.from_json(_body(name, edits=edits, state_epoch=epoch))


@functools.lru_cache(maxsize=None)
def _one_shot_digest(name):
    bench = prepare(name, scale=SCALE)
    config = CPLAConfig(critical_ratio=RATIO_PERCENT / 100.0)
    with CPLAEngine(bench, config) as engine:
        engine.run()
    return assignment_digest(bench)


@functools.lru_cache(maxsize=None)
def _chain_replay_digest(name):
    return cold_replay_digest(
        name, [parse_edits(batch) for batch in CHAIN], scale=SCALE,
        critical_ratio=RATIO_PERCENT / 100.0, exec_backend="pool",
    )


def _design_state(bench):
    """Everything an edit can change: layers, routes, pin loads, grid."""
    grid = bench.grid
    arrays = [grid.snapshot().via_usage]
    for layer in grid.stack:
        arrays += [grid.capacity_array(layer.index),
                   grid.usage_array(layer.index)]
    return (
        assignment_digest(bench),
        [tuple(net.route_edges) for net in bench.nets],
        [pin.capacitance for net in bench.nets for pin in net.pins],
        [array.tobytes() for array in arrays],
    )


EDITS = [
    # Defect (a): the reroute rebuilt net 25's segments, and the old
    # layer-only rewind raised "layer 6 routes V".
    pytest.param(
        "adaptec1", [{"op": "net_reroute", "nets": [25]}], id="reroute-a"
    ),
    # Defect (e): the rerouted net outlived the next full solve.
    pytest.param(
        "bigblue1", [{"op": "net_reroute", "nets": [71]}], id="reroute-e"
    ),
    # Defect (b): scaled pin capacitances outlived the next full solve.
    pytest.param(
        "adaptec1",
        [{"op": "net_resize", "nets": list(range(60)), "factor": 4.0}],
        id="resize-b",
    ),
    # A tile on the longest segment of the worst net, on its layer.
    pytest.param(
        "adaptec1",
        [{"op": "capacity_change", "tile": [2, 9], "layer": 6, "delta": -2}],
        id="capacity",
    ),
    pytest.param(
        "adaptec1", [{"op": "release_nets", "worst": 4}], id="release"
    ),
]


class TestRewindAfterEco:
    @pytest.mark.parametrize("name,edits", EDITS)
    def test_assign_after_eco_is_the_one_shot_answer(self, name, edits):
        resident = ResidentEngine(AssignRequest.from_json(_body(name)))
        try:
            _, solved_digest = resident.solve()
            solved = _design_state(resident.bench)
            resident.apply_eco(_eco(name, edits, 0))
            runs = resident.runs

            _, digest = resident.solve()
            assert digest == solved_digest == _one_shot_digest(name)
            assert resident.runs == runs, "the assign re-ran the engine"
            assert resident.state_epoch == 0
            assert _design_state(resident.bench) == solved

            epoch = 0
            for batch in CHAIN:
                epoch = resident.apply_eco(_eco(name, batch, epoch)).epoch
            assert assignment_digest(resident.bench) == \
                _chain_replay_digest(name)
        finally:
            resident.close()


class TestRepeatedAssign:
    @pytest.mark.parametrize("method", ["sdp", "tila"])
    def test_repeated_assign_does_not_run_the_engine(self, method):
        metrics.enable()
        request = AssignRequest.from_json(
            {"benchmark": "adaptec1", "scale": 0.05, "ratio_percent": 2,
             "method": method}
        )
        resident = ResidentEngine(request)
        try:
            first_report, first_digest = resident.solve()
            counters = metrics.registry().as_dict()["counters"]
            assert counters["engine.runs"] == 1
            for _ in range(2):
                report, digest = resident.solve()
                assert (report, digest) == (first_report, first_digest)
            counters = metrics.registry().as_dict()["counters"]
            assert counters["engine.runs"] == 1
            assert resident.runs == 1
            assert assignment_digest(resident.bench) == first_digest
        finally:
            resident.close()
