"""Scale-tier tests: streaming ingest, structured-array storage, A* maze.

Covers the three legs of the scale tier together because they share
fixtures: the chunked parser must be byte-equivalent to a one-chunk
parse, the :class:`NetStore` bulk queries must agree with their per-net
counterparts, and the goal-oriented A* maze search must return paths of
exactly minimum cost (property-tested against the Dijkstra reference it
replaced).
"""

import heapq
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.runreport import RunReport
from repro.grid.graph import GridGraph, edge_between
from repro.ispd.parser import ParseError, parse_ispd08
from repro.ispd.request import AssignRequest, RequestError
from repro.ispd.store import NetStoreBuilder, store_from_nets
from repro.obs import ledger as run_ledger
from repro.route.net import Net, Pin
from repro.route.router import GlobalRouter, RouterConfig

from tests.conftest import make_stack

SAMPLE = """\
grid 4 4 2
vertical capacity 0 8
horizontal capacity 8 0
minimum width 1 1
minimum spacing 1 1
via spacing 1 1
0 0 10 10
num net 3
netA 0 2
5 5 1
35 5 1
netB 1 3
5 5 1
15 25 1
35 35 2
netC 2 2
0 0 1
39.9 39.9 2
0
"""


def _store_equal(a, b):
    return (
        np.array_equal(a.store.net_table, b.store.net_table)
        and np.array_equal(a.store.pin_table, b.store.pin_table)
        and a.store.names == b.store.names
    )


class TestStreamingParser:
    def test_chunked_equals_whole(self):
        whole = parse_ispd08(SAMPLE, chunk_pins=1 << 20)
        for chunk in (1, 2, 3, 5):
            chunked = parse_ispd08(SAMPLE, chunk_pins=chunk)
            assert _store_equal(whole, chunked), f"chunk_pins={chunk} diverged"

    def test_boundary_pins_clipped_into_grid(self):
        bench = parse_ispd08(SAMPLE)
        net_c = bench.net_by_name("netC")
        # Origin pin lands in tile (0, 0); a pin at the far corner of the
        # chip (just inside 4 tiles * 10 units) clips to the last tile.
        assert net_c.pins[0].tile == (0, 0)
        assert net_c.pins[1].tile == (3, 3)

    def test_out_of_chip_pins_clipped(self):
        bad = SAMPLE.replace("39.9 39.9 2", "400 -5 2")
        bench = parse_ispd08(bad)
        assert bench.net_by_name("netC").pins[1].tile == (3, 0)

    def test_capacity_line_wrong_count_rejected(self):
        bad = SAMPLE.replace("vertical capacity 0 8", "vertical capacity 0 8 4")
        with pytest.raises(ParseError, match="expected 2 values"):
            parse_ispd08(bad)

    def test_capacity_line_non_numeric_rejected(self):
        bad = SAMPLE.replace("horizontal capacity 8 0", "horizontal capacity 8 x")
        with pytest.raises(ParseError):
            parse_ispd08(bad)

    def test_capacity_line_wrong_keyword_rejected(self):
        bad = SAMPLE.replace("via spacing 1 1", "via blocking 1 1")
        with pytest.raises(ParseError, match="via spacing"):
            parse_ispd08(bad)

    def test_bad_pin_token_names_net_and_line(self):
        bad = SAMPLE.replace("15 25 1", "15 oops 1")
        with pytest.raises(ParseError, match=r"line 14.*netB"):
            parse_ispd08(bad, chunk_pins=1 << 20)
        # Same error (same line, same net) regardless of chunking.
        with pytest.raises(ParseError, match=r"line 14.*netB"):
            parse_ispd08(bad, chunk_pins=1)

    def test_pin_with_wrong_arity_rejected(self):
        bad = SAMPLE.replace("35 5 1", "35 5")
        with pytest.raises(ParseError, match="expected 3 values"):
            parse_ispd08(bad)

    def test_zero_pin_net_rejected(self):
        bad = SAMPLE.replace("netA 0 2", "netA 0 0")
        with pytest.raises(ParseError, match="0 pins"):
            parse_ispd08(bad)

    def test_non_finite_layer_rejected(self):
        bad = SAMPLE.replace("35 35 2", "35 35 nan")
        with pytest.raises(ParseError, match="non-finite"):
            parse_ispd08(bad)

    def test_tile_dimensions_must_be_positive(self):
        bad = SAMPLE.replace("0 0 10 10", "0 0 0 10")
        with pytest.raises(ParseError, match="positive"):
            parse_ispd08(bad)

    def test_file_object_matches_text(self):
        assert _store_equal(
            parse_ispd08(SAMPLE), parse_ispd08(io.StringIO(SAMPLE))
        )


class TestNetStore:
    def _store(self):
        nets = [
            Net(0, "a", [Pin(1, 1), Pin(4, 5)]),
            Net(1, "b", [Pin(2, 2), Pin(2, 2, layer=3), Pin(7, 0)]),
            Net(2, "c", [Pin(0, 9)]),
        ]
        return store_from_nets(nets), nets

    def test_all_pin_tiles_matches_per_net(self):
        store, _ = self._store()
        assert store.all_pin_tiles() == [
            store.pin_tiles(r) for r in range(store.num_nets)
        ]

    def test_hpwl_array_matches_scalar(self):
        store, nets = self._store()
        assert store.hpwl_array().tolist() == [n.hpwl() for n in nets]

    def test_materialized_views_answer_from_arrays(self):
        store, nets = self._store()
        views = store.materialize()
        assert [v.pin_tiles for v in views] == [n.pin_tiles for n in nets]
        assert [v.num_pins for v in views] == [n.num_pins for n in nets]
        assert [p.layer for p in views[1].pins] == [1, 3, 1]

    def test_builder_rejects_count_mismatch(self):
        builder = NetStoreBuilder()
        builder.add_net(0, "a", 2)
        builder.add_pin(1, 1, 1, 1.0)
        with pytest.raises(ValueError, match="sum to 2"):
            builder.build()

    def test_empty_store(self):
        store = NetStoreBuilder().build()
        assert store.num_nets == 0
        assert store.all_pin_tiles() == []
        assert store.hpwl_array().tolist() == []


def _path_cost(router, path):
    return sum(
        router._edge_cost(edge_between(u, v)) for u, v in zip(path, path[1:])
    )


def _dijkstra(router, sources, targets):
    """Reference shortest-path search over ``router``'s edge costs.

    The oracle the A* property test compares against: plain Dijkstra
    from every source, stopping at the first target settled, under the
    router's expansion limit.
    """
    nx, ny = router.grid.nx_tiles, router.grid.ny_tiles
    dist = {s: 0.0 for s in sources}
    prev = {s: None for s in sources}
    heap = [(0.0, s) for s in sources]
    heapq.heapify(heap)
    expanded = 0
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u in targets:
            path = [u]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            path.reverse()
            return path
        expanded += 1
        if expanded > router.config.maze_expansion_limit:
            return None
        x, y = u
        for v in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if not (0 <= v[0] < nx and 0 <= v[1] < ny):
                continue
            nd = d + router._edge_cost(edge_between(u, v))
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return None


def _randomized_router(rng, n):
    router = GlobalRouter(GridGraph(n, n, make_stack(4)))
    for orient in ("H", "V"):
        shape = router._cap[orient].shape
        router._cap[orient][...] = rng.integers(0, 4, size=shape)
        router._usage[orient][...] = rng.integers(0, 6, size=shape)
        router._history[orient][...] = rng.integers(0, 7, size=shape) * 0.5
    router._history_zero = False
    router._recompute_costs()
    return router


class TestAStarOptimality:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(3, 9),
        num_sources=st.integers(1, 4),
        num_targets=st.integers(1, 4),
    )
    def test_astar_cost_equals_dijkstra(self, seed, n, num_sources, num_targets):
        """A* with the nearest-target L1 heuristic is exactly minimum-cost.

        Costs are randomized multiples of 0.5 >= 1.0 (the router invariant
        that keeps the heuristic admissible), so both searches' path costs
        are exact dyadic sums and must compare equal with ==.
        """
        rng = np.random.default_rng(seed)
        router = _randomized_router(rng, n)
        tiles = [(int(x), int(y)) for x in range(n) for y in range(n)]
        picks = rng.choice(len(tiles), size=num_sources + num_targets, replace=False)
        sources = {tiles[i] for i in picks[:num_sources]}
        targets = {tiles[i] for i in picks[num_sources:]}

        path, aborted = router._astar(sources, set(targets))
        reference = _dijkstra(router, sources, set(targets))
        assert not aborted
        assert path is not None and reference is not None
        assert path[0] in sources and path[-1] in targets
        for u, v in zip(path, path[1:]):
            assert abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1
        assert _path_cost(router, path) == _path_cost(router, reference)

    def test_expansion_limit_aborts(self):
        rng = np.random.default_rng(0)
        router = _randomized_router(rng, 9)
        router.config.maze_expansion_limit = 2
        path, aborted = router._astar({(0, 0)}, {(8, 8)})
        assert path is None and aborted

    def test_unreachable_reports_no_abort(self):
        router = GlobalRouter(GridGraph(1, 1, make_stack(4)))
        router._recompute_costs()
        path, aborted = router._astar({(0, 0)}, {(5, 5)})
        assert path is None and not aborted


class TestRouterStats:
    def test_stats_populated_after_route(self):
        grid = GridGraph(8, 8, make_stack(4, tracks=1))
        router = GlobalRouter(grid, RouterConfig(rounds=3))
        nets = [
            Net(i, f"n{i}", [Pin(0, i % 8), Pin(7, (i + 3) % 8)])
            for i in range(24)
        ]
        router.route(nets)
        stats = router.stats
        assert stats.nets_routed == len(nets)
        assert stats.final_overflow == router.total_overflow()
        assert 0 <= stats.reroute_rounds <= 2
        assert stats.maze_aborts == 0
        assert set(stats.as_dict()) == {
            "nets_routed", "nets_rerouted", "reroute_rounds",
            "maze_aborts", "final_overflow",
        }

    def test_aborted_net_keeps_previous_route(self):
        grid = GridGraph(8, 8, make_stack(4, tracks=1))
        router = GlobalRouter(
            grid, RouterConfig(rounds=3, maze_expansion_limit=1)
        )
        nets = [
            Net(i, f"n{i}", [Pin(0, 4), Pin(7, 4)]) for i in range(12)
        ]
        router.route(nets)
        assert router.stats.maze_aborts > 0
        for net in nets:
            assert net.route_edges, f"{net.name} lost its route on abort"


class TestRouterKnobsOnRequests:
    def test_defaults_stay_out_of_signature_key(self):
        req = AssignRequest.from_json({"benchmark": "adaptec1"})
        assert req.router_rounds == 0
        assert req.maze_expansion_limit == 0
        assert "router_rounds" not in req.signature_key()
        assert "router_rounds" not in req.to_json()

    def test_knobs_round_trip_and_split_signatures(self):
        body = {
            "benchmark": "adaptec1",
            "router_rounds": 5,
            "maze_expansion_limit": 1000,
        }
        req = AssignRequest.from_json(body)
        assert req.router_rounds == 5
        assert req.maze_expansion_limit == 1000
        assert AssignRequest.from_json(req.to_json()) == req
        assert "router_rounds=5" in req.signature_key()
        assert "maze_limit=1000" in req.signature_key()
        base = AssignRequest.from_json({"benchmark": "adaptec1"})
        assert req.signature() != base.signature()

    @pytest.mark.parametrize("key", ["router_rounds", "maze_expansion_limit"])
    @pytest.mark.parametrize("value", [-1, 1.5, True, "3"])
    def test_bad_knob_values_rejected(self, key, value):
        with pytest.raises(RequestError):
            AssignRequest.from_json({"benchmark": "adaptec1", key: value})


def _report(**overrides):
    report = RunReport(benchmark="adaptec1", method="sdp", critical_ratio=0.005)
    for key, value in overrides.items():
        setattr(report, key, value)
    return report


class TestLedgerRouterSection:
    ROUTER = {
        "nets_routed": 100, "nets_rerouted": 7, "reroute_rounds": 2,
        "maze_aborts": 1, "final_overflow": 3,
    }

    def test_entry_carries_router_section(self, tmp_path):
        entry = run_ledger.build_entry(_report(router=dict(self.ROUTER)))
        assert entry["router"] == self.ROUTER
        path = tmp_path / "ledger.jsonl"
        run_ledger.append_entry(str(path), entry)
        read = run_ledger.read_entries(str(path))[-1]
        assert read["router"] == self.ROUTER
        rendered = run_ledger.render_entry(read)
        assert "router" in rendered
        assert "maze aborts" in rendered

    def test_entry_without_router_omits_section(self):
        entry = run_ledger.build_entry(_report())
        assert "router" not in entry
        assert "maze aborts" not in run_ledger.render_entry(entry)

    def test_via_overflow_gate(self):
        base = run_ledger.build_entry(_report(final_via_overflow=0))
        worse = run_ledger.build_entry(_report(final_via_overflow=2))
        thr = {"max_via_overflow_increase": 0.0}
        assert run_ledger.check_entries(base, base, thr) == []
        violations = run_ledger.check_entries(base, worse, thr)
        assert violations and "via overflow" in violations[0]
        # Ungated by default: the same pair passes without the threshold.
        assert run_ledger.check_entries(
            base, worse, {}
        ) == []
