"""Per-layer metrics of a traced run, from a :class:`tracing.Window`.

Times are self times per operation unless the name says otherwise below;
counts are per operation; ratios are over the whole timed phase.  Every
metric is printed for every workload: a layer the workload does not
exercise reads 0.

Totals (span duration including wrapped calls inside it) are used where
the layer is a hop that contains other layers: ``eco.apply_s``,
``service.rewind_s``, ``service.engine_s`` and ``service.eco_apply_s``.

``clock.*`` are the program's own ``RunReport.clock`` phases (and
``EcoReport.seconds``) summed over the same interval, printed beside the
span-measured layers they correspond to (:data:`CLOCK_PAIRS`).
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracing import Window

# span-measured layers -> the program's own clock for the same work
CLOCK_PAIRS = {
    "core.select_s + timing.analyze_s": "clock.timing_s",
    "core.partition_s": "clock.partition_s",
    "core.extract_s": "clock.extract_s",
    "core.solve_s + core.build_sdp_s + batchsolve.admm_s": "clock.solve_s",
    "core.post_map_s": "clock.mapping_s",
    "route.occupancy_s": "clock.occupancy_s",
    "eco.apply_s": "clock.eco_apply_s",
}


def layer_vs_clock(metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Tuple[float, float]]:
    """Each span-measured sum beside the program's clock for it.

    ``route.occupancy_s`` also counts release/commit outside the engine's
    iterations (ECO edits, rewinds), which its clock phase does not.
    """
    out = {}
    for label, clock in CLOCK_PAIRS.items():
        layer = sum(metrics[name.strip()][0] for name in label.split("+"))
        out[label] = (layer, metrics[clock][0])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    win: Window,
    ops: int,
    wall_s: float,
    serve: bool,
    client: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """All per-layer metrics; ``client`` carries the client-side serve figures.

    ``wall_s`` is the time the spans are attributed against: the timed
    phase for in-process workloads, the engine's busy time (sum of
    ``service_ms``) for ``serve``.
    """
    s, t, c = win.self_s, win.total_s, win.counts
    per = (lambda v: v / ops) if ops else (lambda v: 0.0)
    admm = s["batchsolve.admm"]
    projection = c["admm.projection_seconds"]
    runs = c["run.calls"]
    m: Dict[str, Tuple[float, str]] = {
        "ispd.parse_s": (per(s["ispd.parse"]), "s/op"),
        "route.route_s": (per(s["route.route"]), "s/op"),
        "route.nets_routed": (per(c["route.nets_routed"]), "count/op"),
        "route.topology_s": (per(s["route.topology"]), "s/op"),
        "route.initial_assign_s": (per(s["route.initial_assign"]), "s/op"),
        "route.occupancy_s": (per(s["route.occupancy"]), "s/op"),
        "timing.analyze_s": (per(s["timing.analyze"]), "s/op"),
        "timing.nets_requested": (per(c["timing.nets_requested"]), "count/op"),
        "core.select_s": (per(s["core.select"]), "s/op"),
        "core.partition_s": (per(s["core.partition"]), "s/op"),
        "core.leaves": (per(c["core.leaves"]), "count/op"),
        "core.leaves_solved": (per(c["core.leaves_solved"]), "count/op"),
        "core.solved_leaf_share": (
            _ratio(c["core.leaves_solved"], c["core.leaves"]), "ratio"),
        "core.extract_s": (per(s["core.extract"]), "s/op"),
        "core.build_sdp_s": (per(s["core.build_sdp"]), "s/op"),
        "core.solve_s": (per(s["core.solve"]), "s/op"),
        "core.post_map_s": (per(s["core.post_map"]), "s/op"),
        "core.run_self_s": (per(s["core.run"]), "s/op"),
        "core.iterations": (_ratio(c["run.iterations"], runs), "count/run"),
        "core.iteration_accept_ratio": (
            _ratio(c["run.accepted"], c["run.iterations"]), "ratio"),
        "batchsolve.admm_s": (per(admm), "s/op"),
        "batchsolve.psd_projection_s": (per(projection), "s/op"),
        "batchsolve.admm_other_s": (per(admm - projection), "s/op"),
        "batchsolve.member_iters": (
            per(c["admm.member_iterations"]), "count/op"),
        "batchsolve.unconverged_share": (
            _ratio(c["admm.unconverged"], c["admm.members"]), "ratio"),
        "batchsolve.psd_identity_share": (
            _ratio(c["admm.identities"], c["admm.projections"]), "ratio"),
        "batchsolve.bucket_members": (
            _ratio(c["admm.members"], c["admm.calls"]), "count/call"),
        "eco.apply_s": (per(t["eco.apply"]), "s/op"),
        "eco.digest_s": (per(s["eco.digest"]), "s/op"),
        "eco.dirty_fraction": (
            _ratio(c["eco.dirty_fraction"], c["eco.applies"]), "ratio"),
        "eco.accept_ratio": (
            _ratio(c["eco.accepted"], c["eco.applies"]), "ratio"),
        "service.queue_wait_ms": (client.get("queue_wait_ms", 0.0), "ms"),
        "service.service_ms": (client.get("service_ms", 0.0), "ms"),
        "service.http_ms": (client.get("http_ms", 0.0), "ms"),
        "service.rewind_s": (per(t["service.rewind"]), "s/op"),
        "service.engine_s": (per(t["core.run"]) if serve else 0.0, "s/op"),
        "service.eco_apply_s": (per(t["service.eco_apply"]), "s/op"),
        "service.digest_s": (per(s["service.digest"]), "s/op"),
        "service.resident_builds": (c["service.resident_builds"], "count"),
        "clock.timing_s": (per(c["clock.timing"]), "s/op"),
        "clock.partition_s": (per(c["clock.partition"]), "s/op"),
        "clock.extract_s": (per(c["clock.extract"]), "s/op"),
        "clock.solve_s": (per(c["clock.solve"]), "s/op"),
        "clock.mapping_s": (per(c["clock.mapping"]), "s/op"),
        "clock.occupancy_s": (
            per(c["clock.release"] + c["clock.commit"] + c["clock.rollback"]),
            "s/op"),
        "clock.run_s": (per(c["clock.runtime"]), "s/op"),
        "clock.eco_apply_s": (per(c["clock.eco_apply"]), "s/op"),
        "trace.wall_s": (per(wall_s), "s/op"),
        "unattributed_s": (per(wall_s - win.attributed_s), "s/op"),
        "trace.overhead_share": (client.get("overhead_share", 0.0), "ratio"),
    }
    return m
