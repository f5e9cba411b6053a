"""SDP relaxation of the per-partition assignment problem (Section 3.3).

Following the paper, the partition's quadratic assignment is lifted to
``min <T, X>`` over PSD matrices ``X``:

- the diagonal block of variable *i* holds its ``x_ij`` over candidate
  layers, with the segment timing costs ``ts(i, j)`` on the diagonal of T;
- the off-diagonal entry pairing ``x_ij`` with ``x_pq`` holds ``y_ijpq``,
  with half the via cost ``tv(i, j, p, q)`` in T (so the Frobenius inner
  product charges it once), via-capacity penalties already folded in by the
  problem extraction;
- assignment rows (4b) are exact equality constraints;
- contended edge-capacity rows (4c) get a diagonal slack entry (PSD keeps
  the diagonal non-negative, so the slack is automatically >= 0) — the
  paper's slack-variable treatment.  ``constraint_mode="penalty"`` instead
  prices contended layers into T, an ablation of that choice;
- all entries are boxed to [0, 1], which together with the PSD 2x2-minor
  bound ``y^2 <= x_ij * x_pq`` plays the role of the linking rows (4e)-(4g)
  (see DESIGN.md).

The relaxed diagonal is what the post-mapper consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.problem import PartitionProblem
from repro.obs import metrics, tracer
from repro.solver.sdp import ADMMSDPSolver, SDPProblem, SDPResult, SDPSettings
from repro.utils import get_logger

log = get_logger(__name__)


@dataclass
class SdpRelaxationConfig:
    """Options of the SDP-based partition solver."""

    constraint_mode: str = "slack"  # "slack", "penalty", or "auto"
    # Reuse the relaxed X of the previous solve of the *same partition*
    # (same segment-variable set) as the ADMM starting point.  The engine
    # re-solves the same leaves every outer iteration with slightly shifted
    # costs, so the previous optimum is a near-feasible start; a solve whose
    # matrix order changed (capacity slacks appear/disappear) falls back to
    # a cold start via the same-shape check.
    warm_start: bool = True
    slack_constraint_limit: int = 48  # "auto": switch to penalty above this
    capacity_penalty_weight: float = 2.0
    # (4g) linking rows  y >= x_ij + x_pq - 1  keep the relaxation honest
    # about via costs (without them the PSD cone admits y = 0 under x = 1).
    # Rows are spent on the costliest layer combinations first.  With the
    # post-mapping refinement enabled they buy no measurable quality on the
    # suite while tripling solve time, so the default is 0; the ablation
    # bench sweeps them (see DESIGN.md / EXPERIMENTS.md).
    max_linking_rows: int = 0
    linking_cost_floor: float = 0.02  # skip combos cheaper than this x median ts
    # The post-mapping only rounds the relaxed diagonal, so a loose stop
    # suffices.  In the benchmarks/bench_tolerance.py sweep (2e-4 .. 5e-2)
    # every stop keeps the Table 2 suite's mean Avg/Max(Tcp), OV# and via#
    # within 0.5 % of 2e-4.  On CI's scale-3 designs 2e-2 moves adaptec1's
    # Max(Tcp) by +6.6 %, and 5e-2 doubles the ECO chains' Avg(Tcp) move
    # that every stop from 1e-3 on shows; 1e-2 is the loosest stop with
    # neither.  It cuts the suite's ADMM iterations 2.7x
    # (docs/PERFORMANCE.md).  Each leaf also stops once the layer every
    # segment rounds to has settled (the kernel's rounding exit, fed by
    # the segment counts build_sdp records).
    settings: SDPSettings = field(
        default_factory=lambda: SDPSettings(tolerance=1e-2, max_iterations=1200)
    )

    def __post_init__(self) -> None:
        if self.constraint_mode not in ("slack", "penalty", "auto"):
            raise ValueError(f"unknown constraint_mode {self.constraint_mode!r}")
        if self.max_linking_rows < 0:
            raise ValueError("max_linking_rows must be >= 0")


@dataclass
class SdpSolveInfo:
    """Diagnostics of one partition solve."""

    matrix_order: int
    num_constraints: int
    iterations: int
    converged: bool
    objective: float
    mode: str
    warm_start: bool = False


class SdpPartitionSolver:
    """Solves a :class:`PartitionProblem` through the SDP relaxation.

    The solver instance is long-lived (one per engine run; shipped once per
    worker in pool mode) and keeps the relaxed ``X`` of every partition it
    solved, keyed by the partition's variable signature, to warm-start the
    next solve of that same partition.
    """

    def __init__(self, config: Optional[SdpRelaxationConfig] = None) -> None:
        self.config = config or SdpRelaxationConfig()
        self._solver = ADMMSDPSolver(self.config.settings)
        # partition signature -> relaxed X of the last solve
        self._warm: Dict[Tuple, np.ndarray] = {}

    # -- externally-managed warm state ------------------------------------
    #
    # ADMM's output depends on its warm start, so warm state must be a
    # function of the *task*, never of which worker happens to solve it —
    # otherwise work stealing, retries, and pool scheduling would make the
    # assignment timing-dependent.  The parallel backends therefore keep
    # the authoritative warm store on the parent's solver instance, ship
    # the X with each task via ``export_warm``, overwrite the worker-local
    # entry via ``import_warm`` before solving, and write the accepted
    # result's X back into the parent store in task order.

    @staticmethod
    def warm_key(problem: PartitionProblem) -> Tuple:
        """The partition signature that keys the warm-start store."""
        return tuple(var.key for var in problem.vars)

    def export_warm(self, problem: PartitionProblem) -> Optional[np.ndarray]:
        """The stored relaxed ``X`` for this partition, if any."""
        return self._warm.get(self.warm_key(problem))

    def import_warm(
        self, problem: PartitionProblem, X: Optional[np.ndarray]
    ) -> None:
        """Overwrite (``None``: clear) the stored ``X`` for this partition."""
        key = self.warm_key(problem)
        if X is None:
            self._warm.pop(key, None)
        else:
            self._warm[key] = X

    def reset_warm(self) -> None:
        """Empty the warm store, the state of a freshly built solver."""
        self._warm.clear()

    def warm_store(self) -> Dict[Tuple, np.ndarray]:
        """A copy of the warm store, for :meth:`load_warm_store`.

        The copy is shallow: stored ``X`` arrays are replaced, never
        written in place.
        """
        return dict(self._warm)

    def load_warm_store(self, store: Dict[Tuple, np.ndarray]) -> None:
        """Replace the warm store with a :meth:`warm_store` copy."""
        self._warm = dict(store)

    @property
    def admm(self) -> ADMMSDPSolver:
        """The underlying ADMM solver (the batch backend shares it)."""
        return self._solver

    def lookup_warm(
        self, signature: Tuple, n: int
    ) -> Optional[np.ndarray]:
        """The stored relaxed X for ``signature`` if shape-compatible.

        A solve whose matrix order changed (capacity slacks appeared or
        disappeared) falls back to a cold start.
        """
        if not self.config.warm_start:
            return None
        warm = self._warm.get(signature)
        if warm is not None and warm.shape != (n, n):
            warm = None
        return warm

    def store_warm(
        self, signature: Tuple, X: np.ndarray, was_warm: bool
    ) -> None:
        """Advance the warm store after one solve (counts warm reuses)."""
        if self.config.warm_start:
            self._warm[signature] = X
            if was_warm:
                metrics.inc("sdp.warm_starts")

    @staticmethod
    def note_solve(result: SDPResult, n: int) -> None:
        """Per-solve metrics, identical across execution backends."""
        metrics.inc("sdp.solves")
        metrics.inc("sdp.iterations", result.iterations)
        if not result.converged:
            metrics.inc("sdp.nonconverged")
        if result.rounded:
            metrics.inc("sdp.rounding_exits")
        metrics.set_gauge("sdp.last_objective", result.objective)
        metrics.observe(
            "sdp.matrix_order", n, buckets=(4, 8, 16, 32, 64, 128, 256)
        )

    def build_sdp(
        self, problem: PartitionProblem
    ) -> Tuple[SDPProblem, List[int], str]:
        """Lift one partition problem to its SDP (Section 3.3 construction).

        Returns the assembled :class:`SDPProblem`, the per-variable layer
        offsets into the matrix, and the resolved constraint mode.  Shared
        by the scalar :meth:`solve` and the batched backend so both lift
        the identical SDP instance.
        """
        mode = self.config.constraint_mode
        if mode == "auto":
            mode = (
                "slack"
                if len(problem.cap_constraints) <= self.config.slack_constraint_limit
                else "penalty"
            )

        offsets, n_assign = self._variable_offsets(problem)
        num_cap_slacks = len(problem.cap_constraints) if mode == "slack" else 0
        linking = self._select_linking_rows(problem)
        n = n_assign + num_cap_slacks + len(linking)

        cost = self._build_cost(problem, offsets, n, mode)
        # The segments' layer entries open the diagonal (``offsets``), so
        # their counts tell the kernel what post-mapping will round.
        sdp = SDPProblem(
            n=n, cost=cost, segments=[len(var.layers) for var in problem.vars]
        )
        sdp.set_box(0.0, 1.0)

        # (4b): each segment on exactly one layer.
        for v, var in enumerate(problem.vars):
            entries = [(offsets[v] + k, offsets[v] + k) for k in range(len(var.layers))]
            sdp.add_entry_constraint(entries, [1.0] * len(entries), 1.0)

        # (4c): contended capacities with diagonal slack.
        if mode == "slack":
            for c_idx, con in enumerate(problem.cap_constraints):
                slack = n_assign + c_idx
                entries = []
                for v in con.var_indices:
                    var = problem.vars[v]
                    if con.layer in var.layers:
                        k = var.layers.index(con.layer)
                        entries.append((offsets[v] + k, offsets[v] + k))
                entries.append((slack, slack))
                sdp.add_entry_constraint(
                    entries, [1.0] * len(entries), float(con.capacity)
                )
                sdp.set_entry_bounds(slack, slack, 0.0, max(float(con.capacity), 1.0))

        # (4g): x_ij + x_pq - y_ijpq + s = 1, s >= 0 on the diagonal.
        for row_idx, (p_idx, i, j) in enumerate(linking):
            pair = problem.pairs[p_idx]
            ai = offsets[pair.a] + i
            bj = offsets[pair.b] + j
            slack = n_assign + num_cap_slacks + row_idx
            sdp.add_entry_constraint(
                [(ai, ai), (bj, bj), (ai, bj), (slack, slack)],
                [1.0, 1.0, -1.0, 1.0],
                1.0,
            )
        return sdp, offsets, mode

    def solve(self, problem: PartitionProblem) -> Tuple[List[np.ndarray], SdpSolveInfo]:
        """Return per-variable fractional layer weights plus diagnostics."""
        if problem.num_vars == 0:
            info = SdpSolveInfo(0, 0, 0, True, 0.0, "empty")
            return [], info
        sdp, offsets, mode = self.build_sdp(problem)
        n = sdp.n
        signature = self.warm_key(problem)
        warm = self.lookup_warm(signature, n)
        with tracer.span(
            "solver.sdp",
            order=n,
            constraints=sdp.num_constraints,
            warm=warm is not None,
        ):
            result: SDPResult = self._solver.solve(sdp, warm_start=warm)
        self.store_warm(signature, result.X, warm is not None)
        x_values = self._extract(problem, offsets, result.X)
        info = SdpSolveInfo(
            matrix_order=n,
            num_constraints=sdp.num_constraints,
            iterations=result.iterations,
            converged=result.converged,
            objective=result.objective,
            mode=mode,
            warm_start=warm is not None,
        )
        self.note_solve(result, n)
        return x_values, info

    # -- construction helpers --------------------------------------------------

    def _select_linking_rows(
        self, problem: PartitionProblem
    ) -> List[Tuple[int, int, int]]:
        """Pick the (pair, layer, layer) combos that get a (4g) row.

        Combos whose via cost is negligible next to the segment delays can't
        distort the relaxation enough to matter, so rows go to the costliest
        combos first, up to the configured budget.
        """
        if self.config.max_linking_rows == 0 or not problem.pairs:
            return []
        diag = np.array([c for var in problem.vars for c in var.cost])
        floor = self.config.linking_cost_floor * float(np.median(np.abs(diag)))
        combos: List[Tuple[float, int, int, int]] = []
        for p_idx, pair in enumerate(problem.pairs):
            rows, cols = pair.cost.shape
            for i in range(rows):
                for j in range(cols):
                    c = float(pair.cost[i, j])
                    if c > floor:
                        combos.append((c, p_idx, i, j))
        combos.sort(key=lambda t: -t[0])
        return [
            (p, i, j) for _, p, i, j in combos[: self.config.max_linking_rows]
        ]

    @staticmethod
    def _variable_offsets(problem: PartitionProblem) -> Tuple[List[int], int]:
        offsets = []
        total = 0
        for var in problem.vars:
            offsets.append(total)
            total += len(var.layers)
        return offsets, total

    def _build_cost(
        self,
        problem: PartitionProblem,
        offsets: List[int],
        n: int,
        mode: str,
    ) -> np.ndarray:
        cost = np.zeros((n, n))
        for v, var in enumerate(problem.vars):
            for k in range(len(var.layers)):
                cost[offsets[v] + k, offsets[v] + k] = var.cost[k]
        for pair in problem.pairs:
            va, vb = problem.vars[pair.a], problem.vars[pair.b]
            for i in range(len(va.layers)):
                for j in range(len(vb.layers)):
                    r = offsets[pair.a] + i
                    c = offsets[pair.b] + j
                    cost[r, c] += pair.cost[i, j] / 2.0
                    cost[c, r] += pair.cost[i, j] / 2.0
        if mode == "penalty":
            self._apply_capacity_penalty(problem, offsets, cost)
        return cost

    def _apply_capacity_penalty(
        self, problem: PartitionProblem, offsets: List[int], cost: np.ndarray
    ) -> None:
        """Price contended layers instead of constraining them.

        The penalty scales with the partition's own cost magnitude so it
        stays meaningful across iterations and benchmarks.
        """
        diag = np.array([c for var in problem.vars for c in var.cost])
        scale = float(np.mean(np.abs(diag))) if diag.size else 1.0
        w = self.config.capacity_penalty_weight
        for con in problem.cap_constraints:
            demand = len(con.var_indices)
            pressure = (demand - con.capacity) / max(demand, 1)
            for v in con.var_indices:
                var = problem.vars[v]
                if con.layer in var.layers:
                    k = var.layers.index(con.layer)
                    idx = offsets[v] + k
                    cost[idx, idx] += w * scale * pressure

    @staticmethod
    def _extract(
        problem: PartitionProblem, offsets: List[int], X: np.ndarray
    ) -> List[np.ndarray]:
        out = []
        for v, var in enumerate(problem.vars):
            vals = np.array(
                [X[offsets[v] + k, offsets[v] + k] for k in range(len(var.layers))]
            )
            out.append(np.clip(vals, 0.0, 1.0))
        return out
