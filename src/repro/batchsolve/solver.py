"""The ``--exec batch`` leaf solver: one kernel call per engine pass.

:class:`BatchLeafSolver` replaces the per-leaf Python solve loop of one
engine iteration with one kernel call: every partition problem is lifted
to its SDP and prepared into a kernel member exactly as the scalar path
would (same construction code, same warm-start lookup, same block split),
and all members run through :func:`repro.batchsolve.kernels.run_admm`
together.  Members are split across calls only when their projection
cascades differ (a leaf without constraint rows has no affine set); CPLA
leaves all share one.

Contract parity with the other backends:

- warm starts read and advance the *same* parent-owned store on the
  :class:`~repro.core.sdp_relaxation.SdpPartitionSolver`, so a batch run
  interleaves transparently with pool/dist/sequential runs of the same
  engine;
- every member's result is finished through the scalar solver's
  :meth:`~repro.solver.sdp.ADMMSDPSolver.finish`, so the extracted layer
  weights — and therefore the sha256 assignment digests — are
  bit-identical to a pool or ``--exec seq`` solve of the same snapshot;
- per-solve metrics and convergence records are emitted per member, with
  per-call :class:`~repro.obs.convergence.BucketRecord` entries and
  ``batch.*`` counters layered on top.

Per-member wall clock inside a call is not separable (the members iterate
as one), so each member's reported ``solve_seconds`` is the call's wall
clock apportioned by the member's share of iterations — documented in
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batchsolve.kernels import MemberSetup, run_admm
from repro.core.problem import PartitionProblem
from repro.core.sdp_relaxation import SdpPartitionSolver, SdpSolveInfo
from repro.obs import convergence, metrics, tracer
from repro.utils import get_logger

log = get_logger(__name__)

# One solved leaf: (x_values, info, seconds, worker telemetry — always None
# in-process).
LeafResult = Tuple[List[np.ndarray], SdpSolveInfo, float, None]


class _Pending:
    """One non-empty problem prepared for the kernel."""

    __slots__ = ("problem", "sdp", "offsets", "mode", "signature", "member")

    def __init__(self, problem, sdp, offsets, mode, signature, member):
        self.problem = problem
        self.sdp = sdp
        self.offsets = offsets
        self.mode = mode
        self.signature = signature
        self.member = member


class BatchLeafSolver:
    """Vectorized in-process leaf solver (engine backend ``batch``).

    Implements the engine's leaf backend contract (``solve_many`` and
    ``close``) and exposes :meth:`stats_snapshot` for the run report's
    scheduler channel, like the dist fabric does.
    """

    def __init__(self, partition_solver: SdpPartitionSolver) -> None:
        if not isinstance(partition_solver, SdpPartitionSolver):
            raise ValueError(
                "the batch backend requires the SDP partition solver "
                "(method='sdp'); the ILP solver has no batched kernels"
            )
        self._solver = partition_solver
        # Potential member-iterations (members x lockstep span per call);
        # the denominator of the cumulative frozen fraction.
        self._potential_iterations = 0
        self.stats: Dict[str, Any] = {
            "backend": "batch",
            "bucket_solves": 0,       # kernel calls
            "members": 0,             # problems solved through the kernel
            "batched_iterations": 0,  # lockstep iterations across calls
            "member_iterations": 0,   # sum of per-member iterations
            "max_bucket": 0,          # most members in one call so far
            "frozen_fraction": 0.0,   # member-iterations saved by freezing
        }

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Nothing to release — the backend is in-process."""

    def stats_snapshot(self) -> Dict[str, Any]:
        """Scheduler-channel counters for the run ledger (JSON-able)."""
        return dict(self.stats)

    # -- solving -----------------------------------------------------------

    def solve_many(
        self, problems: Sequence[PartitionProblem], leaf_mask=None
    ) -> List[Optional[LeafResult]]:
        """Solve ``problems`` (those ``leaf_mask`` indexes, if given).

        Returns one ``(x_values, info, seconds, None)`` per solved problem
        in input order; masked-out positions are ``None`` (the ECO path
        leaves clean leaves as unextracted placeholders).  ``seconds`` is
        the member's iteration-weighted share of its kernel call's wall
        clock (the engine feeds it to the same leaf-latency histogram the
        other backends fill).
        """
        solver = self._solver
        admm = solver.admm
        outputs: List[Optional[LeafResult]] = [None] * len(problems)
        # Projection cascade -> (index, prepared problem), first-seen order.
        calls: Dict[Tuple[bool, bool], List[Tuple[int, _Pending]]] = {}
        for index in range(len(problems)) if leaf_mask is None else leaf_mask:
            problem = problems[index]
            if problem.num_vars == 0:
                outputs[index] = (
                    [], SdpSolveInfo(0, 0, 0, True, 0.0, "empty"), 0.0, None
                )
                continue
            sdp, offsets, mode = solver.build_sdp(problem)
            signature = solver.warm_key(problem)
            warm = solver.lookup_warm(signature, sdp.n)
            member = admm.prepare_member(sdp, warm)
            calls.setdefault(member.cascade, []).append(
                (index, _Pending(problem, sdp, offsets, mode, signature, member))
            )

        options = admm.admm_options()
        recording = convergence.is_enabled()
        metrics.inc("batch.buckets", len(calls))
        for pending in calls.values():
            members: List[MemberSetup] = [item.member for _, item in pending]
            with tracer.span(
                "solver.batch",
                order=max(m.n for m in members),
                members=len(members),
            ):
                results, stats = run_admm(members, options, recording=recording)
            self._note_call(stats, recording)
            # Apportion the call's wall clock by iteration share; exact
            # per-member timing does not exist inside a lockstep call.
            total_iters = max(stats.member_iterations, 1)
            for (index, item), member_result in zip(pending, results):
                share = member_result.iterations / total_iters
                outputs[index] = self._finish(
                    item,
                    member_result,
                    solve_seconds=stats.solve_seconds * share,
                    projection_seconds=stats.projection_seconds * share,
                    recording=recording,
                )
        return outputs

    def _finish(
        self, item: _Pending, member_result, solve_seconds: float,
        projection_seconds: float, recording: bool,
    ) -> LeafResult:
        solver = self._solver
        result = solver.admm.finish(item.sdp, member_result)
        solver.store_warm(item.signature, result.X, item.member.warm)
        x_values = solver._extract(item.problem, item.offsets, result.X)
        info = SdpSolveInfo(
            matrix_order=item.sdp.n,
            num_constraints=item.sdp.num_constraints,
            iterations=result.iterations,
            converged=result.converged,
            objective=result.objective,
            mode=item.mode,
            warm_start=item.member.warm,
        )
        solver.note_solve(result, item.sdp.n)
        if recording:
            convergence.record_solve(solver.admm.make_solve_record(
                item.sdp, item.member, member_result, result,
                solve_seconds=solve_seconds,
                projection_seconds=projection_seconds,
            ))
        return x_values, info, solve_seconds, None

    def _note_call(self, stats, recording: bool) -> None:
        s = self.stats
        s["bucket_solves"] += 1
        s["members"] += stats.members
        s["batched_iterations"] += stats.iterations
        s["member_iterations"] += stats.member_iterations
        s["max_bucket"] = max(s["max_bucket"], stats.members)
        self._potential_iterations += stats.members * stats.iterations
        s["frozen_fraction"] = round(self._frozen_fraction(), 4)
        metrics.inc("batch.iters", stats.iterations)
        metrics.inc("batch.member_iters", stats.member_iterations)
        metrics.set_gauge("batch.frozen_fraction", s["frozen_fraction"])
        metrics.observe(
            "batch.bucket_members", stats.members,
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        if recording:
            convergence.record_bucket(convergence.BucketRecord(
                members=stats.members,
                max_order=stats.max_order,
                size_groups=stats.size_groups,
                max_block=stats.max_block,
                iterations=stats.iterations,
                member_iterations=stats.member_iterations,
                converged=stats.converged,
                frozen_fraction=round(stats.frozen_fraction, 4),
                solve_seconds=round(stats.solve_seconds, 6),
                psd_seconds=round(stats.psd_seconds, 6),
                affine_seconds=round(stats.affine_seconds, 6),
                box_seconds=round(stats.box_seconds, 6),
            ))

    def _frozen_fraction(self) -> float:
        """Cumulative fraction of member-iterations saved by freezing."""
        potential = self._potential_iterations
        return (
            1.0 - self.stats["member_iterations"] / potential
            if potential else 0.0
        )
