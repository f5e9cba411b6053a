"""ECO subsystem tests: edits, equivalence, closure, sweep, and serving.

The load-bearing property is the **equivalence guarantee**: applying an
edit history incrementally on a warm engine (re-solving only the dirty
partition leaves) lands on the bit-identical assignment digest as a cold
fresh-state replay of the same history — across the seq, pool, and batch
execution backends, and for *random* edit sets (hypothesis).  The closure
loop's Max(Tcp) monotonicity and the serve layer's stale-epoch 409 are
pinned here too.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import CPLAConfig, CPLAEngine
from repro.eco import (
    ClosureConfig,
    EcoEdit,
    EcoEngine,
    EditError,
    cold_replay_digest,
    edit_set_digest,
    edits_to_json,
    SweepConfig,
    parse_edits,
    run_closure,
    run_sweep,
)
from repro.ispd.request import (
    AssignRequest,
    EcoRequest,
    RequestError,
    assignment_digest,
)
from repro.obs import ledger as run_ledger
from repro.pipeline import prepare

# The standard ECO smoke problem (73 nets, 20x20 tiles, 6 layers).
BENCH = "adaptec1"
SCALE = 0.05
RATIO = 0.005


def _engine(exec_backend: str = "seq", workers: int = 0) -> CPLAEngine:
    bench = prepare(BENCH, scale=SCALE)
    return CPLAEngine(bench, CPLAConfig(
        method="sdp", critical_ratio=RATIO,
        workers=workers, exec_backend=exec_backend,
    ))


def _incremental_digest(
    batches, exec_backend: str = "seq", workers: int = 0
) -> str:
    """Warm-path digest: full solve, then apply every batch in sequence."""
    with _engine(exec_backend, workers) as engine:
        engine.run()
        eco = EcoEngine(engine)
        for batch in batches:
            eco.apply(list(batch))
        return assignment_digest(engine.bench)


class TestEdits:
    def test_parse_round_trip(self):
        payload = [
            {"op": "net_resize", "nets": [3], "factor": 1.5},
            {"op": "release_nets", "worst": 4},
            {"op": "capacity_change", "tile": [4, 5], "layer": 3, "delta": -2},
            {"op": "net_reroute", "nets": [7]},
        ]
        edits = parse_edits(payload)
        assert [e.op for e in edits] == [
            "net_resize", "release_nets", "capacity_change", "net_reroute"
        ]
        assert parse_edits(edits_to_json(edits)) == edits

    def test_rejections(self):
        for bad in (
            [{"op": "teleport"}],
            [{"op": "net_resize", "nets": [1]}],          # missing factor
            [{"op": "net_resize", "nets": [], "factor": 2.0}],
            [{"op": "net_resize", "nets": [1], "factor": 0.0}],
            [{"op": "release_nets"}],                      # nets or worst
            [{"op": "capacity_change", "tile": [1], "layer": 1, "delta": 1}],
            [{"op": "net_reroute", "nets": [1], "factor": 2.0}],  # stray key
            "not a list",
        ):
            with pytest.raises(EditError):
                parse_edits(bad)

    def test_digest_is_canonical_and_order_sensitive(self):
        a = parse_edits([{"op": "release_nets", "worst": 2}])
        b = parse_edits([{"op": "net_resize", "nets": [1], "factor": 2.0}])
        assert edit_set_digest(a).startswith("sha256:")
        assert edit_set_digest(a) == edit_set_digest(a)
        assert edit_set_digest(a) != edit_set_digest(b)
        assert edit_set_digest(tuple(a) + tuple(b)) != edit_set_digest(
            tuple(b) + tuple(a)
        )


ECO_BODY = {
    "schema": "repro.eco_request/v1",
    "benchmark": BENCH,
    "scale": SCALE,
    "method": "sdp",
    "exec": "seq",
    "edits": [{"op": "release_nets", "worst": 3}],
    "state_epoch": 0,
}


class TestEcoRequest:
    def test_round_trip_and_routing_signature(self):
        request = EcoRequest.from_json(dict(ECO_BODY))
        assert request.state_epoch == 0
        assert len(request.edits) == 1
        assert EcoRequest.from_json(request.to_json()) == request
        # Same signature as the matching assign request: an ECO delta
        # routes to (and reuses) exactly that resident.
        assign = AssignRequest.from_json({
            k: v for k, v in ECO_BODY.items()
            if k not in ("edits", "state_epoch", "schema")
        })
        assert request.signature() == assign.signature()

    def test_rejections(self):
        for patch in (
            {"state_epoch": -1},
            {"state_epoch": True},
            {"edits": []},
            {"edits": [{"op": "bogus"}]},
            {"method": "tila"},
            {"schema": "repro.assign_request/v1"},
            {"extra_knob": 1},
        ):
            with pytest.raises(RequestError):
                EcoRequest.from_json({**ECO_BODY, **patch})
        with pytest.raises(RequestError, match="edits"):
            EcoRequest.from_json({
                k: v for k, v in ECO_BODY.items() if k != "edits"
            })


# One representative script touching every edit op, in two batches.
SCRIPT = (
    (
        EcoEdit(op="net_resize", nets=(3,), factor=1.5),
        EcoEdit(op="release_nets", worst=3),
    ),
    (
        EcoEdit(op="capacity_change", tile=(4, 5), layer=3, delta=-2),
        EcoEdit(op="net_reroute", nets=(7,)),
    ),
)


class TestEquivalence:
    def test_incremental_matches_cold_replay_across_backends(self):
        cold_seq = cold_replay_digest(
            BENCH, SCRIPT, scale=SCALE, critical_ratio=RATIO,
        )
        assert _incremental_digest(SCRIPT) == cold_seq
        # pool and batch must land on the same digest: the ECO path's
        # leaf_mask restriction preserves the backends' bit-identity.
        assert _incremental_digest(SCRIPT, "pool", workers=2) == cold_seq
        assert _incremental_digest(SCRIPT, "batch") == cold_seq

    def test_single_net_edit_dirties_a_strict_subset(self):
        with _engine() as engine:
            engine.run()
            eco = EcoEngine(engine)
            report = eco.apply(
                [EcoEdit(op="net_resize", nets=(3,), factor=1.5)]
            )
        assert report.epoch == 1
        assert 0 < report.dirty["dirty_leaves"] < report.dirty["num_leaves"]
        assert 0.0 < report.dirty_fraction < 1.0

    def test_edits_commit_even_when_resolve_rolls_back(self):
        # A resize with factor 1.0 changes nothing physical: no-op delta,
        # pre == post, epoch still advances, digest unchanged.
        with _engine() as engine:
            engine.run()
            before = assignment_digest(engine.bench)
            eco = EcoEngine(engine)
            report = eco.apply(
                [EcoEdit(op="net_resize", nets=(3,), factor=1.0)]
            )
            assert report.epoch == 1
            assert report.pre_max_tcp == pytest.approx(report.post_max_tcp)
            if not report.accepted:
                assert assignment_digest(engine.bench) == before


_EDIT = st.one_of(
    st.builds(
        lambda n, f: EcoEdit(op="net_resize", nets=(n,), factor=f),
        st.integers(min_value=0, max_value=72),
        st.sampled_from([0.5, 0.8, 1.25, 2.0]),
    ),
    st.builds(
        lambda k: EcoEdit(op="release_nets", worst=k),
        st.integers(min_value=1, max_value=4),
    ),
    st.builds(
        lambda x, y, lay, d: EcoEdit(
            op="capacity_change", tile=(x, y), layer=lay, delta=d
        ),
        st.integers(min_value=1, max_value=18),
        st.integers(min_value=1, max_value=18),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([-2, -1, 1, 2]),
    ),
    st.builds(
        lambda n: EcoEdit(op="net_reroute", nets=(n,)),
        st.integers(min_value=0, max_value=72),
    ),
)


class TestEquivalenceProperty:
    @settings(max_examples=4, deadline=None)
    @given(
        batches=st.lists(
            st.lists(_EDIT, min_size=1, max_size=2),
            min_size=1, max_size=2,
        )
    )
    def test_random_edit_histories_replay_bit_identically(self, batches):
        script = tuple(tuple(batch) for batch in batches)
        incremental = _incremental_digest(script)
        assert incremental == cold_replay_digest(
            BENCH, script, scale=SCALE, critical_ratio=RATIO,
        )


class TestClosure:
    def test_max_tcp_monotone_and_ledgered(self, tmp_path):
        ledger_path = str(tmp_path / "closure.jsonl")
        result = run_closure(
            ClosureConfig(
                benchmark=BENCH, scale=SCALE, critical_ratio=RATIO,
                release_k=3, max_rounds=3,
            ),
            ledger_path=ledger_path,
        )
        assert result.rounds
        assert result.stopped in ("min_gain", "max_rounds")
        tol = 1e-6
        previous = result.initial_max_tcp
        for report in result.rounds:
            # Release rounds change nothing physical, so the committed
            # Max(Tcp) can only stay or improve, round over round.
            assert report.pre_max_tcp <= previous * (1 + tol)
            assert report.post_max_tcp <= report.pre_max_tcp * (1 + tol)
            previous = report.post_max_tcp
        assert result.final_max_tcp <= result.initial_max_tcp * (1 + tol)
        entries = run_ledger.read_entries(ledger_path)
        assert len(entries) == len(result.rounds)
        for i, entry in enumerate(entries, 1):
            assert entry["method"] == "closure:sdp"
            assert entry["eco"]["round"] == i
            assert 0.0 <= entry["eco"]["dirty_fraction"] <= 1.0
        # The eco section renders and diffs like any other entry.
        assert "dirty" in run_ledger.render_entry(entries[-1])

    def test_bad_config_rejected(self):
        for kwargs in (
            {"release_k": 0}, {"max_rounds": 0}, {"min_gain": -0.1}
        ):
            with pytest.raises(ValueError):
                ClosureConfig(benchmark=BENCH, **kwargs)


    def test_round_entries_carry_the_round_via_counts(self, tmp_path):
        """Each round's entry reads the via counts of the grid before and
        after its own apply, replayed here round by round."""
        config = ClosureConfig(
            benchmark=BENCH, scale=SCALE, critical_ratio=0.02,
            max_rounds=2, min_gain=0,
        )
        ledger_path = str(tmp_path / "closure.jsonl")
        run_closure(config, ledger_path=ledger_path)
        entries = run_ledger.read_entries(ledger_path)

        bench = prepare(BENCH, scale=SCALE)
        expected = []
        with CPLAEngine(bench, CPLAConfig(
            method="sdp", critical_ratio=0.02, exec_backend="seq",
        )) as engine:
            engine.run()
            eco = EcoEngine(engine)
            for _ in entries:
                before = bench.grid.total_via_overflow(), bench.grid.total_vias()
                eco.apply(
                    [EcoEdit(op="release_nets", worst=config.release_k)],
                    max_first=True,
                )
                after = bench.grid.total_via_overflow(), bench.grid.total_vias()
                expected.append(before + after)
        got = [
            (q["initial_via_overflow"], q["initial_vias"],
             q["final_via_overflow"], q["final_vias"])
            for q in (entry["quality"] for entry in entries)
        ]
        assert got == expected
        # This design's first round moves its vias, so the pair is a test.
        assert expected[0][:2] != expected[0][2:]


class TestSweep:
    def test_each_point_entry_carries_its_own_run(self, tmp_path):
        """Every sweep point's quality block is the one its own run
        reports, via counts included."""
        config = SweepConfig(
            benchmark=BENCH, scale=0.2, partition_sizes=(4, 40),
            ratios=(0.02,),
        )
        ledger_path = str(tmp_path / "sweep.jsonl")
        result = run_sweep(config, ledger_path=ledger_path)
        entries = run_ledger.read_entries(ledger_path)
        assert len(entries) == len(result.points) == 2
        for entry, point in zip(entries, result.points):
            bench = prepare(BENCH, scale=config.scale)
            cpla = CPLAConfig(
                method="sdp", critical_ratio=0.02, exec_backend="seq",
                max_segments_per_partition=int(point.knobs["partition_size"]),
            )
            with CPLAEngine(bench, cpla) as engine:
                report = engine.run()
            assert entry["quality"] == {
                key: getattr(report, key) for key in (
                    "initial_avg_tcp", "final_avg_tcp",
                    "initial_max_tcp", "final_max_tcp",
                    "initial_via_overflow", "final_via_overflow",
                    "initial_vias", "final_vias",
                )
            }
            assert entry["sweep"]["knobs"] == point.knobs
        qualities = [entry["quality"] for entry in entries]
        assert qualities[0]["final_vias"] != qualities[1]["final_vias"]


class TestDirtyFractionGate:
    BASE = {
        "benchmark": BENCH, "method": "closure:sdp",
        "quality": {"final_avg_tcp": 10.0, "final_max_tcp": 10.0},
    }

    def test_gate_passes_under_ceiling(self):
        current = {**self.BASE, "eco": {"dirty_fraction": 0.2}}
        thresholds = {"max_dirty_fraction": 0.5}
        assert run_ledger.check_entries(self.BASE, current, thresholds) == []

    def test_gate_fails_over_ceiling_and_on_non_eco_entries(self):
        thresholds = {"max_dirty_fraction": 0.5}
        over = {**self.BASE, "eco": {"dirty_fraction": 0.8}}
        assert any(
            "dirty fraction" in v
            for v in run_ledger.check_entries(self.BASE, over, thresholds)
        )
        assert any(
            "no eco.dirty_fraction" in v
            for v in run_ledger.check_entries(self.BASE, self.BASE, thresholds)
        )


class TestServeEco:
    """The epoch-conflict contract of ``POST /v1/eco``, end to end."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.service import AssignServer, FrontThread, ServeConfig

        with FrontThread(
            AssignServer, ServeConfig(port=0, max_queue=8)
        ) as srv:
            yield srv

    def _post(self, server, path, body):
        from repro.service import http_request

        return asyncio.run(http_request(
            server.config.host, server.port, "POST", path, body,
            timeout=180.0,
        ))

    def test_eco_applies_then_stale_epoch_409(self, server):
        body = {k: v for k, v in ECO_BODY.items()}
        status, first = self._post(server, "/v1/eco", body)
        assert status == 200
        assert first["schema"] == "repro.eco_response/v1"
        assert first["state_epoch"] == 1
        assert first["assignment_digest"].startswith("sha256:")

        # Replaying epoch 0 must conflict — structured 409, both epochs.
        status, stale = self._post(server, "/v1/eco", body)
        assert status == 409
        assert stale["error"]["type"] == "stale_epoch"
        assert stale["error"]["expected_epoch"] == 0
        assert stale["error"]["current_epoch"] == 1

        # The conflict did not poison the resident: the correctly chained
        # delta still applies against the same (undiscarded) state.
        status, second = self._post(
            server, "/v1/eco", {**body, "state_epoch": 1}
        )
        assert status == 200
        assert second["state_epoch"] == 2

    def test_duplicate_queued_delta_gets_409(self, server, monkeypatch):
        """Two identical deltas queued together are two deltas: one
        applies, and the other names the epoch the first one left."""
        import repro.pipeline as pipeline
        from repro.service import http_request

        building, release = threading.Event(), threading.Event()
        real_prepare = pipeline.prepare

        def held_prepare(*args, **kwargs):
            building.set()
            release.wait(timeout=120)
            return real_prepare(*args, **kwargs)

        monkeypatch.setattr(pipeline, "prepare", held_prepare)
        # A resident no other test builds: its cold build holds the engine
        # while both deltas queue behind it.
        eco = {**ECO_BODY, "ratio_percent": 3}
        assign = {
            k: v for k, v in eco.items()
            if k not in ("edits", "state_epoch", "schema")
        }
        host, port = server.config.host, server.port

        async def post(path, body):
            return await http_request(
                host, port, "POST", path, body, timeout=180.0
            )

        async def main():
            build = asyncio.create_task(post("/v1/assign", assign))
            await asyncio.get_running_loop().run_in_executor(
                None, building.wait, 60
            )
            deltas = [
                asyncio.create_task(post("/v1/eco", dict(eco)))
                for _ in range(2)
            ]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                _, ready = await http_request(host, port, "GET", "/readyz")
                if ready["queue_depth"] == 2:
                    break
                await asyncio.sleep(0.02)
            release.set()
            assert (await build)[0] == 200
            return await asyncio.gather(*deltas)

        try:
            replies = asyncio.run(main())
        finally:
            release.set()
        assert sorted(status for status, _ in replies) == [200, 409]
        applied = next(body for status, body in replies if status == 200)
        stale = next(body for status, body in replies if status == 409)
        assert applied["state_epoch"] == 1
        assert stale["error"]["type"] == "stale_epoch"
        assert stale["error"]["expected_epoch"] == 0
        assert stale["error"]["current_epoch"] == 1
        # The conflict kept the resident: a delta at epoch 1 applies.
        status, chained = self._post(
            server, "/v1/eco", {**eco, "state_epoch": 1}
        )
        assert status == 200
        assert chained["state_epoch"] == 2

    def test_full_solve_resets_the_epoch(self, server):
        assign = {
            k: v for k, v in ECO_BODY.items()
            if k not in ("edits", "state_epoch", "schema")
        }
        status, _ = self._post(server, "/v1/assign", assign)
        assert status == 200
        status, response = self._post(
            server, "/v1/eco", dict(ECO_BODY)  # epoch 0 again
        )
        assert status == 200
        assert response["state_epoch"] == 1

    def test_malformed_eco_bodies_get_400(self, server):
        for patch in (
            {"edits": [{"op": "bogus"}]},
            {"state_epoch": -1},
            {"method": "tila"},
        ):
            status, response = self._post(
                server, "/v1/eco", {**ECO_BODY, **patch}
            )
            assert status == 400
            assert response["error"]["type"] == "bad_request"
