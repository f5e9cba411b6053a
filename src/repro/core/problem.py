"""Per-partition problem extraction.

Builds, for one partition leaf, the quadratic assignment instance the ILP
and SDP solvers consume:

- one :class:`SegmentVar` per critical segment in the leaf, with a cost
  vector over its direction-legal layers.  The vector holds the Elmore
  segment delay ``ts(i, j)`` of Eqn. (2) plus every *linear* via term: vias
  to pins, and vias to neighbour segments whose layer is fixed (outside the
  partition or non-released);
- one :class:`PairTerm` per connected pair with *both* segments in the leaf
  — the genuinely quadratic via cost ``tv(i, j, p, q)`` of Eqn. (3), with
  the paper's via-capacity penalty (existing vias / capacity) folded in;
- :class:`CapacityConstraint` rows for the contended (edge, layer) pairs.
  A pair is contended only when more candidate segments cross the edge than
  it has free tracks; all other capacity rows are vacuous and omitted —
  this is what keeps the SDP matrices small.

Costs are computed against the *current* downstream capacitances (the
engine refreshes them every outer iteration, as the paper's iterative
scheme does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.graph import Edge2D, GridGraph, Tile
from repro.route.net import Net, Segment
from repro.timing.elmore import ElmoreEngine, NetTiming

SegKey = Tuple[int, int]  # (net_id, segment_id)


@dataclass
class SegmentVar:
    """One critical segment's assignment variable block."""

    key: SegKey
    segment: Segment
    layers: Tuple[int, ...]
    cost: np.ndarray  # aligned with `layers`
    current_layer: int

    def layer_index(self, layer: int) -> int:
        return self.layers.index(layer)


@dataclass
class PairTerm:
    """Quadratic via cost between two in-partition segments.

    ``cost[aj, bq]`` is the via delay (plus capacity penalty) of putting
    var ``a`` on its ``aj``-th layer and var ``b`` on its ``bq``-th layer.
    """

    a: int
    b: int
    tile: Tile
    cost: np.ndarray


@dataclass
class CapacityConstraint:
    """Contended (edge, layer): at most ``capacity`` of ``var_indices``."""

    edge: Edge2D
    layer: int
    capacity: int
    var_indices: List[int]


@dataclass
class PartitionProblem:
    """The optimization instance of one partition leaf."""

    vars: List[SegmentVar] = field(default_factory=list)
    pairs: List[PairTerm] = field(default_factory=list)
    cap_constraints: List[CapacityConstraint] = field(default_factory=list)
    index: Dict[SegKey, int] = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    def assignment_cost(self, layers: Sequence[int]) -> float:
        """Objective value of a full assignment (one layer per var)."""
        total = 0.0
        for var, layer in zip(self.vars, layers):
            total += float(var.cost[var.layer_index(layer)])
        for pair in self.pairs:
            ai = self.vars[pair.a].layer_index(layers[pair.a])
            bi = self.vars[pair.b].layer_index(layers[pair.b])
            total += float(pair.cost[ai, bi])
        return total

    def current_layers(self) -> List[int]:
        return [v.current_layer for v in self.vars]


def extract_partition_problem(
    grid: GridGraph,
    engine: ElmoreEngine,
    nets_by_id: Dict[int, Net],
    timings: Dict[int, NetTiming],
    seg_keys: Sequence[SegKey],
    via_ratios: np.ndarray,
    via_penalty_weight: float = 1.0,
    weights: Optional[Dict[SegKey, float]] = None,
) -> PartitionProblem:
    """Build the :class:`PartitionProblem` for the given critical segments.

    ``grid`` must be in the *released* state (critical nets' wires/vias
    removed), so edge capacities reflect exactly the non-released usage —
    the "more stringent" incremental capacities of constraint (4c).

    ``weights`` (optional, per segment key) scale the timing costs: the
    engine passes criticality weights that emphasize the worst paths of the
    worst nets, the "critical path" focus distinguishing CPLA from the
    total-delay objective of TILA.

    ``via_ratios`` is ``grid.via_usage_ratios()``; the engine builds it
    once per pass (the released grid is not written until commit) and
    passes it to every leaf of the pass.
    """
    stack = grid.stack
    problem = PartitionProblem()
    weights = weights or {}

    for key in seg_keys:
        net_id, sid = key
        net = nets_by_id[net_id]
        topo = net.topology
        assert topo is not None
        seg = topo.segments[sid]
        layers = stack.layers_of(seg.direction)
        cd = timings[net_id].downstream_caps.get(sid, 0.0)
        w = weights.get(key, 1.0)
        cost = np.array(
            [w * engine.segment_delay(seg, cd, layer=l) for l in layers],
            dtype=np.float64,
        )
        var = SegmentVar(
            key=key,
            segment=seg,
            layers=layers,
            cost=cost,
            current_layer=seg.layer,
        )
        problem.index[key] = len(problem.vars)
        problem.vars.append(var)

    _add_via_terms(
        problem, engine, nets_by_id, timings,
        _via_capacity_penalty(via_ratios, via_penalty_weight), weights,
    )
    _add_capacity_constraints(problem, grid)
    return problem


# -- via terms ----------------------------------------------------------------


ViaPenalty = Callable[[Tile, int, int], float]


def _via_capacity_penalty(ratios: np.ndarray, weight: float) -> ViaPenalty:
    """The paper's SDP via-capacity penalty as a function of
    ``(tile, lower, upper)``: existing vias / capacity, summed over the
    cuts a (lower, upper) via stack would traverse, read from the
    ``(nx, ny, L - 1)`` map ``ratios``."""

    def penalty(tile: Tile, lower: int, upper: int) -> float:
        if weight == 0.0 or lower == upper:
            return 0.0
        if lower > upper:
            lower, upper = upper, lower
        x, y = tile
        total = 0.0
        for cut in range(lower, upper):
            total += ratios[x, y, cut - 1]
        return weight * total

    return penalty


def _add_via_terms(
    problem: PartitionProblem,
    engine: ElmoreEngine,
    nets_by_id: Dict[int, Net],
    timings: Dict[int, NetTiming],
    via_penalty: ViaPenalty,
    weights: Dict[SegKey, float],
) -> None:
    seen_nets = {key[0] for key in problem.index}
    for net_id in sorted(seen_nets):
        net = nets_by_id[net_id]
        topo = net.topology
        assert topo is not None
        timing = timings[net_id]
        cd = timing.downstream_caps

        # Parent-child junction vias.
        for parent_sid, child_sid in topo.connected_pairs():
            pk, ck = (net_id, parent_sid), (net_id, child_sid)
            tile = topo.parent_tile[child_sid]
            p_in, c_in = pk in problem.index, ck in problem.index
            if not p_in and not c_in:
                continue
            cd_p = cd.get(parent_sid, 0.0)
            cd_c = cd.get(child_sid, 0.0)
            w = max(weights.get(pk, 1.0), weights.get(ck, 1.0))
            if p_in and c_in:
                a = problem.index[pk]
                b = problem.index[ck]
                va, vb = problem.vars[a], problem.vars[b]
                cost = np.zeros((len(va.layers), len(vb.layers)))
                for i, lj in enumerate(va.layers):
                    for j, lq in enumerate(vb.layers):
                        cost[i, j] = w * engine.via_delay(lj, lq, cd_p, cd_c)
                        cost[i, j] += via_penalty(tile, lj, lq)
                problem.pairs.append(PairTerm(a=a, b=b, tile=tile, cost=cost))
            elif p_in:
                fixed = topo.segments[child_sid].layer
                _add_linear_via(
                    problem, engine, pk, fixed, cd_p, cd_c, tile, via_penalty, w
                )
            else:
                fixed = topo.segments[parent_sid].layer
                _add_linear_via(
                    problem, engine, ck, fixed, cd_c, cd_p, tile, via_penalty,
                    w, fixed_is_parent=True,
                )

        # Pin vias: source pin at the roots, sink pins at child tiles.
        source = net.source
        for rid in topo.root_segments():
            rk = (net_id, rid)
            if rk in problem.index:
                cd_r = cd.get(rid, 0.0)
                _add_linear_via(
                    problem, engine, rk, source.layer, cd_r, cd_r,
                    topo.root_tile, via_penalty, weights.get(rk, 1.0),
                    fixed_is_parent=True,
                )
        for key, var_idx in problem.index.items():
            if key[0] != net_id:
                continue
            sid = key[1]
            var = problem.vars[var_idx]
            w = weights.get(key, 1.0)
            tile = topo.child_tile[sid]
            for pin in topo.pins_at.get(tile, []):
                if pin == source and tile == topo.root_tile:
                    continue
                for i, lj in enumerate(var.layers):
                    r = stack_via_r(engine, lj, pin.layer)
                    var.cost[i] += w * r * pin.capacitance
                    var.cost[i] += via_penalty(tile, lj, pin.layer)


def stack_via_r(engine: ElmoreEngine, layer_a: int, layer_b: int) -> float:
    return engine.stack.via_resistance_between(layer_a, layer_b)


def _add_linear_via(
    problem: PartitionProblem,
    engine: ElmoreEngine,
    key: SegKey,
    fixed_layer: int,
    cd_self: float,
    cd_other: float,
    tile: Tile,
    via_penalty: ViaPenalty,
    timing_weight: float = 1.0,
    fixed_is_parent: bool = False,
) -> None:
    """Fold a via to a fixed-layer neighbour into a var's linear cost."""
    var = problem.vars[problem.index[key]]
    for i, layer in enumerate(var.layers):
        if fixed_is_parent:
            delay = engine.via_delay(fixed_layer, layer, cd_other, cd_self)
        else:
            delay = engine.via_delay(layer, fixed_layer, cd_self, cd_other)
        var.cost[i] += timing_weight * delay
        var.cost[i] += via_penalty(tile, layer, fixed_layer)


# -- capacity constraints -------------------------------------------------------


def _add_capacity_constraints(problem: PartitionProblem, grid: GridGraph) -> None:
    """Contended (edge, layer) rows, plus a feasibility relief pass.

    If an edge cannot hold all its candidate segments even using every layer
    (pre-existing overflow), capacities are lifted uniformly so a feasible
    assignment exists; the post-mapper and OV metrics still see the real
    capacities, so such overflow remains visible in the results.
    """
    edge_vars: Dict[Edge2D, List[int]] = {}
    for idx, var in enumerate(problem.vars):
        for edge in var.segment.edges():
            edge_vars.setdefault(edge, []).append(idx)

    for edge in sorted(edge_vars):
        indices = edge_vars[edge]
        layers = grid.layers_for_edge(edge)
        caps = {l: max(grid.remaining(edge, l), 0) for l in layers}
        # Feasibility guarantee: re-admitting every candidate on its current
        # layer must always be possible, even under pre-existing overflow —
        # otherwise a multi-edge segment can face edges whose free layers
        # are disjoint and the exact ILP goes infeasible.
        for l in layers:
            incumbent = sum(
                1 for v in indices if problem.vars[v].current_layer == l
            )
            caps[l] = max(caps[l], incumbent)
        total = sum(caps.values())
        if total < len(indices):
            # Relief: spread any remaining deficit over layers, topmost first.
            deficit = len(indices) - total
            for l in reversed(layers):
                if deficit <= 0:
                    break
                bump = (deficit + len(layers) - 1) // len(layers)
                caps[l] += bump
                deficit -= bump
        for l in layers:
            if len(indices) > caps[l]:
                problem.cap_constraints.append(
                    CapacityConstraint(
                        edge=edge, layer=l, capacity=caps[l], var_indices=list(indices)
                    )
                )
