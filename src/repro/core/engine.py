"""The incremental CPLA framework (Problem 1 + the iterative scheme).

One engine iteration:

1. refresh Elmore timing of the released (critical) nets — downstream caps
   feed the cost models;
2. release those nets' wires/vias from the grid, so capacities show exactly
   the non-released usage (the "more stringent" incremental capacities);
3. partition the critical segments (K x K + self-adaptive quadtree);
4. per leaf: extract the problem, solve it (SDP relaxation or exact ILP),
   post-map to integer layers — a shared :class:`CapacityLedger` keeps
   leaves from jointly overfilling an edge;
5. commit the nets back and re-evaluate ``(Avg(Tcp), Max(Tcp))``; keep the
   result if it improved, otherwise roll back and stop — the paper's
   "stops when no further optimizations can be achieved".

Leaves are solved through one backend contract, ``solve_many(problems,
leaf_mask)``, implemented in-process (:class:`InlineLeafSolver`), by the
batched kernels (:class:`BatchLeafSolver`) and by the worker fabric
(:class:`DistFabric`, the paper's OpenMP parallelism).  The default
schedule updates boundary layers leaf by leaf (Gauss–Seidel, the behaviour
ref. [12] of the paper motivates); every other configuration solves all
leaves from a common snapshot (Jacobi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.runreport import IterationStats, RunReport
from repro.batchsolve.solver import BatchLeafSolver
from repro.dist.fabric import DistFabric, DistFabricConfig, InlineLeafSolver
from repro.obs import collect, convergence, metrics, tracer
from repro.core.ilp import IlpConfig, IlpPartitionSolver
from repro.core.mapping import CapacityLedger, post_map
from repro.core.partition import self_adaptive_partition
from repro.core.problem import SegKey, extract_partition_problem
from repro.core.sdp_relaxation import SdpPartitionSolver, SdpRelaxationConfig
from repro.grid.graph import Edge2D, GridSnapshot
from repro.ispd.benchmark import Benchmark
from repro.route.net import Net
from repro.route.occupancy import commit_net, release_net
from repro.route.tree import NetTopology
from repro.timing.critical import (
    CriticalitySelector,
    critical_path_stats,
    pin_delay_distribution,
)
from repro.timing.elmore import ElmoreEngine, TimingConfig
from repro.utils import WallClock, get_logger

log = get_logger(__name__)

_REL_TOL = 1e-9

# Per-leaf solve latency buckets (seconds) — leaves are small problems.
_LEAF_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0)


def _is_improvement(
    obj: Tuple[float, float], best: Tuple[float, float], max_first: bool = False
) -> bool:
    """Lexicographic improvement of (Avg, Max) — or (Max, Avg) — Tcp."""
    if max_first:
        obj = (obj[1], obj[0])
        best = (best[1], best[0])
    first, second = obj
    best_first, best_second = best
    if first < best_first * (1 - _REL_TOL):
        return True
    if first <= best_first * (1 + _REL_TOL) and second < best_second * (1 - _REL_TOL):
        return True
    return False


@dataclass
class CPLAConfig:
    """Configuration of the incremental framework."""

    method: str = "sdp"  # "sdp" or "ilp"
    critical_ratio: float = 0.005
    k_division: int = 5
    max_segments_per_partition: int = 10
    max_iterations: int = 4
    via_penalty_weight: float = 1.0
    mapping_mode: str = "paper"
    mapping_refine_passes: int = 2
    # Critical-path emphasis: a net's segments are weighted by
    # (Tcp_net / Tcp_worst) ** criticality_exponent, and segments off the
    # net's own critical path further scaled by branch_weight.  This is the
    # "worst path, not total delay" focus distinguishing CPLA from TILA;
    # exponent 0 recovers the plain sum of (4a) (ablated in the benches).
    criticality_exponent: float = 2.0
    branch_weight: float = 0.5
    # After Avg(Tcp) stalls, a short second phase chases the worst path:
    # weights sharpen to max_phase_exponent and iterations are accepted on
    # (Max, Avg) ordering — Problem 1 asks for the *maximum* path timing.
    max_phase_iterations: int = 2
    max_phase_exponent: float = 8.0
    max_phase_avg_slack: float = 0.02  # max Avg(Tcp) regression tolerated
    # Final selection: among every state visited (including the initial
    # one), the engine keeps the smallest Max(Tcp) whose Avg(Tcp) is within
    # this slack of the best average seen — Problem 1 minimizes the worst
    # path of *each* net, so a marginal average gain must not buy a worse
    # worst path.
    final_selection_avg_slack: float = 0.02
    # Track reservation: nets whose Tcp is within this fraction of the worst
    # keep their current tracks reserved in the capacity ledger until their
    # own partition is mapped, so less-critical leaves mapped earlier cannot
    # steal the fast layers out from under the worst paths ("the segments
    # leading to critical sinks are preferred", Section 1).
    protect_fraction: float = 0.9
    workers: int = 0
    # Execution backend of the leaf solves:
    # - "pool" / "dist": with workers > 1, the coordinator/worker solve
    #   fabric (largest-first scheduling, work stealing, crash/timeout
    #   retry — see repro.dist; "pool" is kept as a name for it); with
    #   workers <= 1, the Gauss-Seidel schedule, one leaf at a time
    #   in-process;
    # - "batch": in-process vectorized ADMM, one kernel call over every
    #   leaf of a pass (repro.batchsolve; sdp method only, --workers is
    #   meaningless);
    # - "seq": in-process one-at-a-time solves of the same common snapshot
    #   (the single-threaded reference of the family).
    # seq, batch, and pool/dist with workers > 1 are Jacobi solves from a
    # common snapshot and produce bit-identical assignments.  The
    # Gauss-Seidel schedule legitimately differs — boundary layers update
    # leaf by leaf.
    exec_backend: str = "pool"
    dist: Optional[DistFabricConfig] = None
    sdp: SdpRelaxationConfig = field(default_factory=SdpRelaxationConfig)
    ilp: IlpConfig = field(default_factory=IlpConfig)

    def __post_init__(self) -> None:
        if self.method not in ("sdp", "ilp"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.critical_ratio <= 1:
            raise ValueError("critical_ratio must be a fraction in (0, 1]")
        if self.exec_backend not in ("pool", "dist", "batch", "seq"):
            raise ValueError(f"unknown exec_backend {self.exec_backend!r}")
        if self.exec_backend == "batch" and self.method != "sdp":
            raise ValueError(
                "exec_backend 'batch' requires method 'sdp' "
                "(the ILP solver has no batched kernels)"
            )


# The report type is shared with the TILA baseline so the evaluation
# harness tabulates both methods uniformly.
CPLAReport = RunReport


@dataclass(eq=False)
class EngineCheckpoint:
    """A state :meth:`CPLAEngine.restore_layers` returns the engine to.

    It holds everything an engine pass or an ECO edit can change: per net
    (in benchmark order) the 2-D route edges and the topology, which a
    reroute replaces, the segment layers and the pin capacitances, which a
    resize scales; the grid's capacities, which a capacity change edits,
    and its usage; and the ADMM warm store the ECO passes start from.
    Route edge lists and topologies are kept by reference: a reroute
    replaces them rather than editing them.
    """

    nets: List[Tuple[List[Edge2D], NetTopology, Tuple[int, ...], Tuple[float, ...]]]
    grid: GridSnapshot
    warm: Dict[Tuple, Any]


class CPLAEngine:
    """Runs critical-path layer assignment on a routed, assigned benchmark."""

    def __init__(
        self,
        benchmark: Benchmark,
        config: Optional[CPLAConfig] = None,
        timing_config: Optional[TimingConfig] = None,
    ) -> None:
        self.bench = benchmark
        self.grid = benchmark.grid
        self.config = config or CPLAConfig()
        self.elmore = ElmoreEngine(benchmark.stack, timing_config)
        self.selector = CriticalitySelector(self.elmore)
        if self.config.method == "sdp":
            self._solver = SdpPartitionSolver(self.config.sdp)
        else:
            if self.config.exec_backend == "batch":
                # Re-checked here because callers (the benchmark pipeline's
                # run_method) may swap config.method after construction of
                # the config object.
                raise ValueError(
                    "exec_backend 'batch' requires method 'sdp' "
                    "(the ILP solver has no batched kernels)"
                )
            self._solver = IlpPartitionSolver(self.config.ilp, grid=self.grid)
        self._worker_clock = WallClock()
        # The leaf backend (InlineLeafSolver, BatchLeafSolver or
        # DistFabric), created on the first solve; see _leaf_backend.
        self._backend = None
        self._iter_index = 0
        # Populated by ECO-restricted iterations (see eco_iterate): how many
        # leaves the dirtiness propagator actually re-solved.
        self.last_eco: Optional[Dict[str, float]] = None

    # -- public API -------------------------------------------------------

    def run(self) -> CPLAReport:
        """One full optimization pass; safe to call repeatedly.

        The engine is reusable: the leaf backend (with its workers) and
        the timing cache survive between calls and serve the ECO passes
        that follow, without paying worker spawning again.
        Each call starts from an empty ADMM warm store, so a rerun after
        :meth:`restore_layers` gives exactly the assignment a fresh
        engine would.  Call :meth:`close` (or use the engine as a
        context manager) when done with it.
        """
        with tracer.span(
            "engine.run", benchmark=self.bench.name, method=self.config.method
        ):
            report = self._run()
        if metrics.is_enabled():
            report.metrics = metrics.registry().as_dict()
        if convergence.is_enabled():
            report.convergence = convergence.snapshot()
        # The dist fabric and the batched backend publish scheduler
        # counters; the in-process loop has none.
        if hasattr(self._backend, "stats_snapshot"):
            report.scheduler = self._backend.stats_snapshot()
        router_stats = getattr(self.bench, "router_stats", None)
        if router_stats:
            report.router = dict(router_stats)
        return report

    def close(self) -> None:
        """Release the leaf backend and its workers (idempotent)."""
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "CPLAEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def snapshot_layers(self) -> EngineCheckpoint:
        """Checkpoint the whole design state and the ADMM warm store.

        Together with :meth:`restore_layers` this lets a caller return the
        shared benchmark to a known state instead of re-routing it: the
        resident serving layer checkpoints its solved design and rewinds
        ECO edits to it.
        """
        warm = self._solver.warm_store() if hasattr(
            self._solver, "warm_store"
        ) else {}
        return EngineCheckpoint(
            nets=[
                (
                    net.route_edges,
                    net.topology,
                    tuple(seg.layer for seg in net.topology.segments),
                    tuple(pin.capacitance for pin in net.pins),
                )
                for net in self.bench.nets
            ],
            grid=self.grid.snapshot(),
            warm=warm,
        )

    def restore_layers(self, checkpoint: EngineCheckpoint) -> None:
        """Rewind the design and the warm store to a checkpoint.

        Every net gets its checkpointed route, topology, layers and pin
        capacitances back, and the grid its capacities and usage, copied
        whole (no net is released or re-committed).  The timing cache
        drops the nets whose topology or pin loads changed; its layer
        fingerprints catch the rest.
        """
        changed = []
        for net, (edges, topo, layers, caps) in zip(
            self.bench.nets, checkpoint.nets
        ):
            if net.topology is not topo:
                changed.append(net.id)
            net.route_edges = edges
            net.topology = topo
            for seg, layer in zip(topo.segments, layers):
                seg.layer = layer
            pins = net.pins
            if any(pin.capacitance != cap for pin, cap in zip(pins, caps)):
                changed.append(net.id)
                for pin, cap in zip(pins, caps):
                    # Pin is frozen; the ECO resize edits it the same way.
                    object.__setattr__(pin, "capacitance", cap)
        self.grid.restore(checkpoint.grid)
        self.elmore.mark_dirty(changed)
        if hasattr(self._solver, "load_warm_store"):
            self._solver.load_warm_store(checkpoint.warm)

    def eco_iterate(
        self,
        released: Sequence[Net],
        dirty_keys,
        clock: WallClock,
        max_first: bool = False,
    ) -> IterationStats:
        """One restricted ECO pass: re-solve only leaves dirtied by an edit.

        ``released`` is the full working set — partition geometry, timing
        weights and objective statistics are computed over all of it
        exactly as a full iteration would, so the restricted pass sees
        the same leaf boundaries.  ``dirty_keys`` is the set of
        ``(net_id, segment_id)`` keys the edit propagation marked dirty;
        only the leaves containing at least one are extracted and
        solved, clean leaves keep their layers (and their tracks stay
        consumed in the shared capacity ledger).  ``max_first`` sharpens
        the criticality weights onto the worst paths — the closure
        loop's acceptance is max-first.  Dirtiness statistics land in
        :attr:`last_eco`.
        """
        self._iter_index += 1
        exponent = (
            self.config.max_phase_exponent if max_first else None
        )
        return self._iterate(
            self._iter_index, list(released), clock, exponent,
            dirty_keys=set(dirty_keys),
        )

    def _run(self) -> CPLAReport:
        cfg = self.config
        # A full solve starts from an empty ADMM warm store, so its result
        # depends only on the design state: after restore_layers a rerun
        # repeats a fresh engine's solve sequence exactly.  Warm starts
        # still carry from pass to pass, and into the ECO passes that
        # follow the run.
        if hasattr(self._solver, "reset_warm"):
            self._solver.reset_warm()
        report = RunReport(
            benchmark=self.bench.name,
            method=cfg.method,
            critical_ratio=cfg.critical_ratio,
        )
        clock = report.clock
        self._worker_clock = report.worker_clock

        with clock.phase("timing"):
            critical, timings = self.selector.select(self.bench.nets, cfg.critical_ratio)
        report.critical_net_ids = [n.id for n in critical]
        report.initial_avg_tcp, report.initial_max_tcp = critical_path_stats(
            timings, critical
        )
        report.initial_pin_delays = pin_delay_distribution(timings, critical)
        report.initial_via_overflow = self.grid.total_via_overflow()
        report.initial_vias = self.grid.total_vias()

        best_layers = self._snapshot_layers(critical)
        best_obj = (report.initial_avg_tcp, report.initial_max_tcp)
        visited = [(report.initial_avg_tcp, report.initial_max_tcp, best_layers)]

        # Phase 1 drives Avg(Tcp) down; once it stalls, phase 2 sharpens the
        # weights onto the worst nets and accepts on Max(Tcp) first.
        phases = [
            (cfg.max_iterations, cfg.criticality_exponent, False),
            (cfg.max_phase_iterations, cfg.max_phase_exponent, True),
        ]
        it = 0
        for phase_iters, exponent, max_first in phases:
            for _ in range(phase_iters):
                subset = None
                segment_limit = None
                k_div = None
                if max_first:
                    # Max phase: re-optimize only the near-worst nets as a
                    # handful of large joint blocks (K = 1, 4x segment
                    # limit), so a long critical path is one problem rather
                    # than frozen-boundary fragments.
                    with clock.phase("timing"):
                        current = self.elmore.analyze_all(critical)
                    worst = max(
                        current[n.id].critical_delay for n in critical
                    )
                    subset = [
                        n for n in critical
                        if current[n.id].critical_delay
                        >= cfg.protect_fraction * worst
                    ]
                    segment_limit = 4 * cfg.max_segments_per_partition
                    k_div = 1
                stats = self._iterate(
                    it, critical, clock, exponent, subset, segment_limit, k_div
                )
                it += 1
                visited.append(
                    (stats.avg_tcp, stats.max_tcp, self._snapshot_layers(critical))
                )
                improved = _is_improvement(
                    (stats.avg_tcp, stats.max_tcp), best_obj, max_first
                )
                if max_first and improved:
                    # A shorter worst path must not cost the average much.
                    improved = stats.avg_tcp <= best_obj[0] * (
                        1 + cfg.max_phase_avg_slack
                    )
                stats.accepted = improved
                report.iterations.append(stats)
                metrics.inc("engine.iterations")
                if improved:
                    metrics.inc("engine.iterations_accepted")
                if improved:
                    best_obj = (stats.avg_tcp, stats.max_tcp)
                    best_layers = self._snapshot_layers(critical)
                else:
                    with clock.phase("rollback"):
                        self._restore_layers(critical, best_layers)
                    break

        # Final selection over every visited state: smallest Max(Tcp) whose
        # Avg(Tcp) stays within the slack of the best average.
        min_avg = min(v[0] for v in visited)
        candidates = [
            v for v in visited
            if v[0] <= min_avg * (1 + cfg.final_selection_avg_slack)
        ]
        chosen = min(candidates, key=lambda v: (v[1], v[0]))
        if chosen[2] != best_layers:
            with clock.phase("rollback"):
                self._restore_layers(critical, chosen[2])

        with clock.phase("timing"):
            final_timings = self.elmore.analyze_all(critical)
        report.final_avg_tcp, report.final_max_tcp = critical_path_stats(
            final_timings, critical
        )
        report.final_pin_delays = pin_delay_distribution(final_timings, critical)
        report.final_via_overflow = self.grid.total_via_overflow()
        report.final_vias = self.grid.total_vias()
        log.info(
            "%s/%s: Avg(Tcp) %.1f -> %.1f (%.1f%%), Max(Tcp) %.1f -> %.1f, %.2fs",
            self.bench.name, cfg.method,
            report.initial_avg_tcp, report.final_avg_tcp,
            100 * report.avg_improvement,
            report.initial_max_tcp, report.final_max_tcp,
            report.runtime,
        )
        return report

    # -- one iteration ------------------------------------------------------

    def _iterate(
        self,
        index: int,
        critical: Sequence[Net],
        clock: WallClock,
        exponent: Optional[float] = None,
        subset: Optional[Sequence[Net]] = None,
        segment_limit: Optional[int] = None,
        k_division: Optional[int] = None,
        dirty_keys: Optional[set] = None,
    ) -> IterationStats:
        with tracer.span("engine.iteration", index=index):
            return self._iterate_inner(
                index, critical, clock, exponent, subset, segment_limit,
                k_division, dirty_keys,
            )

    def _iterate_inner(
        self,
        index: int,
        critical: Sequence[Net],
        clock: WallClock,
        exponent: Optional[float] = None,
        subset: Optional[Sequence[Net]] = None,
        segment_limit: Optional[int] = None,
        k_division: Optional[int] = None,
        dirty_keys: Optional[set] = None,
    ) -> IterationStats:
        """One release -> partition -> solve -> map -> commit pass.

        ``subset`` restricts the nets actually re-optimized (the max phase
        passes the near-worst nets only; everything else stays committed and
        acts as fixed boundary/capacity).  Objective statistics are always
        computed over the full released set.

        ``dirty_keys`` (ECO mode) restricts the *leaves* actually solved:
        the partition geometry is built over every released segment exactly
        as a full pass would, but only leaves containing a dirty segment
        key are extracted and solved.  Clean leaves keep their current
        layers, and their current tracks are consumed in the shared
        capacity ledger up front so dirty leaves cannot overfill the edges
        pinned segments still occupy.
        """
        cfg = self.config
        active = list(subset) if subset is not None else list(critical)
        nets_by_id = {n.id: n for n in active}
        limit = segment_limit or cfg.max_segments_per_partition
        self._iter_index = index  # partition-attribution records carry it

        with clock.phase("timing"):
            timings = self.elmore.analyze_all(critical)
        weights = self._criticality_weights(active, timings, exponent)

        with clock.phase("release"):
            for net in active:
                release_net(self.grid, net.topology)

        with clock.phase("partition"):
            keyed = [
                ((net.id, seg.id), seg)
                for net in active
                for seg in net.topology.segments
            ]
            leaves = self_adaptive_partition(
                self.grid.nx_tiles,
                self.grid.ny_tiles,
                keyed,
                k_division or cfg.k_division,
                limit,
            )

        metrics.inc("engine.partitions", len(leaves))
        ledger = CapacityLedger(self.grid)
        reserved = self._reserve_protected_tracks(active, timings, ledger)
        mask = None
        if dirty_keys is not None:
            mask = [
                i for i, (_, keys) in enumerate(leaves)
                if any(k in dirty_keys for k in keys)
            ]
            self.last_eco = {
                "num_leaves": len(leaves),
                "dirty_leaves": len(mask),
                "dirty_fraction": (
                    len(mask) / len(leaves) if leaves else 0.0
                ),
                "dirty_segments": sum(
                    1 for _, keys in leaves for k in keys if k in dirty_keys
                ),
                "num_segments": len(keyed),
            }
            metrics.inc("engine.eco_dirty_leaves", len(mask))
            metrics.inc("engine.eco_clean_leaves", len(leaves) - len(mask))
            self._pin_clean_leaves(leaves, mask, nets_by_id, ledger, reserved)
        self._solve_leaves(
            leaves, mask, nets_by_id, timings, weights, ledger, reserved, clock
        )

        with clock.phase("commit"):
            for net in active:
                commit_net(self.grid, net.topology)

        metrics.inc("ledger.overflow_events", ledger.overflow_events)
        with clock.phase("timing"):
            new_timings = self.elmore.analyze_all(critical)
        avg, mx = critical_path_stats(new_timings, critical)
        return IterationStats(
            index=index,
            num_partitions=len(leaves),
            num_segments=sum(len(keys) for _, keys in leaves),
            avg_tcp=avg,
            max_tcp=mx,
            accepted=False,
        )

    def _criticality_weights(
        self, critical, timings, exponent: Optional[float] = None
    ) -> Dict[SegKey, float]:
        """Per-segment timing weights emphasizing the worst paths."""
        cfg = self.config
        if exponent is None:
            exponent = cfg.criticality_exponent
        worst = max(
            (timings[n.id].critical_delay for n in critical), default=0.0
        )
        weights: Dict[SegKey, float] = {}
        if worst <= 0:
            return weights
        for net in critical:
            timing = timings[net.id]
            net_w = (timing.critical_delay / worst) ** exponent
            on_path = set(timing.critical_path_segments(net.topology))
            for seg in net.topology.segments:
                seg_w = net_w if seg.id in on_path else net_w * cfg.branch_weight
                weights[(net.id, seg.id)] = seg_w
        return weights

    def _reserve_protected_tracks(
        self, critical, timings, ledger: CapacityLedger
    ) -> Dict[SegKey, Tuple]:
        """Pre-consume the current tracks of near-worst nets in the ledger.

        Returns the reservations (key -> (edges, layer)); each is released
        just before its segment's own partition is mapped, so a protected
        net can always at least reclaim its previous assignment.
        """
        cfg = self.config
        worst = max(
            (timings[n.id].critical_delay for n in critical), default=0.0
        )
        if worst <= 0 or cfg.protect_fraction >= 1.0:
            return {}
        reserved: Dict[SegKey, Tuple] = {}
        for net in critical:
            if timings[net.id].critical_delay < cfg.protect_fraction * worst:
                continue
            for seg in net.topology.segments:
                edges = seg.edges()
                if edges:
                    ledger.consume(edges, seg.layer)
                    reserved[(net.id, seg.id)] = (edges, seg.layer)
        return reserved

    def _pin_clean_leaves(
        self, leaves, mask, nets_by_id, ledger, reserved
    ) -> None:
        """Consume clean leaves' current tracks in the capacity ledger.

        ECO mode only: leaves without a dirty segment keep their layers,
        so their track usage must be visible to the dirty leaves sharing
        the first-come-first-served ledger.  Keys the protection pass
        already reserved are skipped — those tracks are consumed once
        and (since a pinned segment's partition is never mapped) never
        released, which is exactly "keep your current assignment".
        """
        masked = set(mask)
        for leaf_index, (_, keys) in enumerate(leaves):
            if leaf_index in masked:
                continue
            for key in keys:
                if key in reserved:
                    continue
                net_id, sid = key
                seg = nets_by_id[net_id].topology.segments[sid]
                edges = seg.edges()
                if edges:
                    ledger.consume(edges, seg.layer)

    def _leaf_backend(self):
        """The leaf backend ``exec_backend`` names, created once per engine."""
        if self._backend is None:
            cfg = self.config
            if cfg.exec_backend == "batch":
                self._backend = BatchLeafSolver(self._solver)
            elif cfg.exec_backend in ("pool", "dist") and cfg.workers > 1:
                self._backend = DistFabric(cfg.workers, self._solver, cfg.dist)
            else:
                self._backend = InlineLeafSolver(self._solver)
        return self._backend

    def _solve_leaves(
        self, leaves, mask, nets_by_id, timings, weights, ledger, reserved,
        clock,
    ) -> None:
        """Extract, solve and post-map the leaves ``mask`` selects (or all).

        Every backend answers the same ``solve_many`` call; the schedule
        only decides when leaves are extracted.  Jacobi (``seq``,
        ``batch``, and ``pool``/``dist`` with ``workers > 1``) extracts
        every leaf from the common snapshot and solves them in one call.
        Gauss-Seidel (``pool``/``dist`` with ``workers <= 1``) extracts
        each leaf after the previous one is mapped, so it sees its
        neighbours' new boundary layers.
        """
        cfg = self.config
        backend = self._leaf_backend()
        selected = range(len(leaves)) if mask is None else mask
        if cfg.exec_backend in ("pool", "dist") and cfg.workers <= 1:
            rounds, leaf_mask = [[index] for index in selected], None
        else:
            rounds, leaf_mask = [range(len(leaves))], mask
        wanted = set(selected)
        with clock.phase("extract"):
            # Nothing writes the released grid before commit, so one
            # via-capacity ratio map serves every leaf of the pass.
            via_ratios = self.grid.via_usage_ratios()
        parent_ctx = tracer.current_context()
        parent_span = parent_ctx.span_id if parent_ctx is not None else None
        parent_trace = parent_ctx.trace_id if parent_ctx is not None else None
        for indices in rounds:
            # Off-mask leaves stay ``None`` placeholders, index-aligned
            # with ``leaf_mask``.
            with clock.phase("extract"):
                problems = [
                    extract_partition_problem(
                        self.grid, self.elmore, nets_by_id, timings,
                        leaves[index][1], via_ratios, cfg.via_penalty_weight,
                        weights,
                    )
                    if index in wanted else None
                    for index in indices
                ]
            with clock.phase("solve"):
                results = backend.solve_many(problems, leaf_mask)
            for leaf_index, problem, result in zip(indices, problems, results):
                if result is None:
                    continue
                x_values, info, seconds, telemetry = result
                metrics.inc("engine.leaves")
                metrics.observe(
                    "engine.leaf_solve_seconds", seconds, _LEAF_BUCKETS
                )
                collect.merge_worker_telemetry(
                    telemetry, self._worker_clock, parent_span, parent_trace
                )
                overflow = self._map_and_apply(
                    problem, x_values, ledger, reserved, nets_by_id, clock
                )
                if convergence.is_enabled():
                    self._record_partition(
                        leaf_index, problem, info, seconds, overflow, timings
                    )

    def _record_partition(
        self, leaf_index, problem, info, solve_seconds, overflow, timings
    ) -> None:
        """Attribute one leaf's solver behaviour for the convergence recorder.

        ``info`` is duck-typed: the SDP solver reports iterations/converged/
        mode, the ILP solver a status string — both attribute cleanly.  The
        Tcp contribution is the worst critical-path delay among the nets
        with segments in this leaf (from the iteration's timing snapshot).
        """
        net_ids = {var.key[0] for var in problem.vars}
        tcp = max(
            (timings[n].critical_delay for n in net_ids if n in timings),
            default=0.0,
        )
        status = getattr(info, "status", "")
        convergence.record_partition(convergence.PartitionRecord(
            engine_iteration=self._iter_index,
            leaf_index=leaf_index,
            num_segments=problem.num_vars,
            matrix_order=getattr(info, "matrix_order", 0),
            num_constraints=getattr(info, "num_constraints", 0),
            iterations=getattr(info, "iterations", 0),
            converged=bool(getattr(info, "converged", status == "optimal")),
            warm_start=bool(getattr(info, "warm_start", False)),
            mode=getattr(info, "mode", status),
            objective=float(getattr(info, "objective", 0.0)),
            solve_seconds=float(solve_seconds),
            overflow_events=overflow,
            tcp_contribution=tcp,
        ))

    def _map_and_apply(
        self, problem, x_values, ledger, reserved, nets_by_id, clock
    ) -> int:
        """Post-map one solved leaf; returns its capacity-overflow events."""
        if not problem.vars:
            return 0
        # Give protected segments of this partition their reserved tracks
        # back: their own mapping decides whether to keep or move them.
        for var in problem.vars:
            reservation = reserved.pop(var.key, None)
            if reservation is not None:
                ledger.release(*reservation)
        overflow_before = ledger.overflow_events
        with clock.phase("mapping"):
            layers = post_map(
                problem, x_values, ledger,
                self.config.mapping_mode, self.config.mapping_refine_passes,
            )
        for var, layer in zip(problem.vars, layers):
            net_id, sid = var.key
            nets_by_id[net_id].topology.segments[sid].layer = layer
        # The timing cache's layer fingerprints would catch this anyway, but
        # explicit dirty-marking keeps stale NetTiming objects from lingering.
        self.elmore.mark_dirty({var.key[0] for var in problem.vars})
        return ledger.overflow_events - overflow_before

    # -- layer snapshots --------------------------------------------------------

    @staticmethod
    def _snapshot_layers(critical: Sequence[Net]) -> Dict[SegKey, int]:
        return {
            (net.id, seg.id): seg.layer
            for net in critical
            for seg in net.topology.segments
        }

    def _restore_layers(self, critical: Sequence[Net], layers: Dict[SegKey, int]) -> None:
        for net in critical:
            release_net(self.grid, net.topology)
            for seg in net.topology.segments:
                seg.layer = layers[(net.id, seg.id)]
            commit_net(self.grid, net.topology)
        self.elmore.mark_dirty(net.id for net in critical)
