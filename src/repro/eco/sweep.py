"""Knob-grid sweep: the quality-vs-runtime frontier of the CPLA engine.

``repro sweep`` runs the full pipeline once per point of a small knob
grid — partition size, criticality exponent (the paper's timing-weight
alpha), ADMM rho, and release ratio — and marks the points on the
Pareto frontier of ``(final Avg(Tcp), runtime)``: a point survives if no
other point is at least as good on both axes and strictly better on one.

Every point appends one ``sweep:<method>`` entry to the run ledger with
a ``sweep`` section (knobs + frontier flag), so ``repro obs show`` and
``repro obs diff`` render sweep points exactly like any other run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.engine import CPLAConfig, CPLAEngine
from repro.obs import tracer
from repro.obs.ledger import append_entry, make_entry, run_quality
from repro.utils import get_logger

log = get_logger(__name__)


@dataclass
class SweepConfig:
    """The knob grid (the ``repro sweep`` CLI mirrors these)."""

    benchmark: str
    scale: float = 1.0
    method: str = "sdp"
    workers: int = 0
    exec_backend: str = "seq"
    partition_sizes: Tuple[int, ...] = (10,)
    alphas: Tuple[float, ...] = (2.0,)      # criticality exponent
    rhos: Tuple[float, ...] = (1.0,)        # ADMM rho
    ratios: Tuple[float, ...] = (0.005,)    # release (critical) ratio

    def points(self) -> List[Dict[str, float]]:
        return [
            {
                "partition_size": p,
                "alpha": a,
                "rho": r,
                "ratio": c,
            }
            for p, a, r, c in itertools.product(
                self.partition_sizes, self.alphas, self.rhos, self.ratios
            )
        ]


@dataclass
class SweepPoint:
    """One grid point's knobs and outcome.

    ``quality`` is the point's own run's ledger quality block
    (:func:`~repro.obs.ledger.run_quality`).
    """

    knobs: Dict[str, float]
    quality: Dict[str, Any]
    seconds: float
    pareto: bool = False

    @property
    def final_avg_tcp(self) -> float:
        return self.quality["final_avg_tcp"]

    @property
    def final_max_tcp(self) -> float:
        return self.quality["final_max_tcp"]


@dataclass
class SweepResult:
    benchmark: str
    method: str
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def frontier(self) -> List[SweepPoint]:
        return [p for p in self.points if p.pareto]


def mark_frontier(points: List[SweepPoint]) -> None:
    """Flag the Pareto-optimal points of (final Avg(Tcp), runtime)."""
    for p in points:
        p.pareto = not any(
            q is not p
            and q.final_avg_tcp <= p.final_avg_tcp
            and q.seconds <= p.seconds
            and (q.final_avg_tcp < p.final_avg_tcp or q.seconds < p.seconds)
            for q in points
        )


def _point_entry(
    config: SweepConfig,
    point: SweepPoint,
    index: int,
    total: int,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    return make_entry(
        config.benchmark, f"sweep:{config.method}", point.knobs["ratio"],
        {
            "scale": config.scale,
            "workers": config.workers,
            "exec_backend": config.exec_backend,
            **point.knobs,
        },
        point.quality,
        point.seconds,
        convergence={},
        sweep={
            "point": index,
            "points": total,
            "knobs": dict(point.knobs),
            "pareto": point.pareto,
        },
        trace=trace or None,
    )


def run_sweep(
    config: SweepConfig,
    ledger_path: Optional[str] = None,
    trace_info: Optional[Dict[str, Any]] = None,
) -> SweepResult:
    """Run the grid; mark the frontier; append one entry per point.

    Entries are appended only after the whole grid ran (the frontier flag
    needs every point), in grid order.
    """
    from repro.pipeline import prepare  # deferred: pipeline imports engines

    result = SweepResult(benchmark=config.benchmark, method=config.method)
    grid_points = config.points()
    for index, knobs in enumerate(grid_points, 1):
        with tracer.span(
            "sweep.point", index=index,
            partition_size=knobs["partition_size"], alpha=knobs["alpha"],
        ):
            bench = prepare(config.benchmark, scale=config.scale)
            cpla = CPLAConfig(
                method=config.method,
                critical_ratio=knobs["ratio"],
                workers=config.workers,
                exec_backend=config.exec_backend,
                max_segments_per_partition=int(knobs["partition_size"]),
                criticality_exponent=knobs["alpha"],
            )
            cpla.sdp.settings.rho = knobs["rho"]
            with CPLAEngine(bench, cpla) as engine:
                report = engine.run()
        result.points.append(SweepPoint(
            knobs=knobs, quality=run_quality(report), seconds=report.runtime,
        ))
        log.info(
            "sweep point %d/%d %s: Avg(Tcp) %.1f, %.2fs",
            index, len(grid_points), knobs,
            report.final_avg_tcp, report.runtime,
        )
    mark_frontier(result.points)
    if ledger_path:
        for index, point in enumerate(result.points, 1):
            append_entry(
                ledger_path,
                _point_entry(
                    config, point, index, len(result.points), trace_info
                ),
            )
    return result


def render_sweep(result: SweepResult) -> str:
    """Terminal table of the sweep: one row per point, frontier starred."""
    lines = [
        f"sweep {result.benchmark}/{result.method}: "
        f"{len(result.points)} points, {len(result.frontier)} on frontier",
        f"  {'':2} {'part':>5} {'alpha':>6} {'rho':>5} {'ratio':>7} "
        f"{'Avg(Tcp)':>12} {'Max(Tcp)':>12} {'seconds':>8}",
    ]
    for p in result.points:
        k = p.knobs
        lines.append(
            f"  {'*' if p.pareto else '':2} {int(k['partition_size']):>5} "
            f"{k['alpha']:>6g} {k['rho']:>5g} {k['ratio']:>7g} "
            f"{p.final_avg_tcp:>12.2f} {p.final_max_tcp:>12.2f} "
            f"{p.seconds:>8.2f}"
        )
    lines.append("  (* = on the quality-vs-runtime Pareto frontier)")
    return "\n".join(lines)
