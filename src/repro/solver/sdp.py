"""A consensus-ADMM semidefinite-programming solver.

Solves the standard-form SDP the CPLA relaxation produces::

    minimize    <C, X>
    subject to  <A_k, X> = b_k      (k = 1..m)
                L <= X <= U         (elementwise, optional)
                X  is PSD

by operator splitting over three simple sets — the affine subspace, the box,
and the PSD cone — each of which has a cheap exact projection (a sparse
correction through a precomputed Gram inverse, clipping, and one
eigendecomposition per diagonal block the matrix splits into, see
:mod:`repro.batchsolve.kernels`).  Consensus ADMM (Boyd et al. 2011, §7.2)
alternates the projections until the copies agree.

Partition problems in this repo produce matrices of order n ≈ 20–150 with a
few hundred constraints, where this solver converges in a few hundred
iterations — the CSDP replacement documented in DESIGN.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batchsolve.kernels import (
    AdmmOptions,
    MemberResult,
    MemberSetup,
    build_member,
    run_admm,
)
from repro.obs import convergence
from repro.solver.psd import entry_svec_index, smat, svec, svec_dim
from repro.utils import get_logger

log = get_logger(__name__)


@dataclass
class SDPSettings:
    """ADMM hyper-parameters."""

    rho: float = 1.0
    max_iterations: int = 3000
    tolerance: float = 1e-5
    check_every: int = 10
    adaptive_rho: bool = True
    rho_scale_limit: float = 1e4

    def __post_init__(self) -> None:
        if self.rho <= 0 or self.tolerance <= 0:
            raise ValueError("rho and tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class SDPResult:
    """Solution report of one SDP solve."""

    X: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    max_constraint_violation: float


@dataclass
class SDPProblem:
    """Problem container with incremental constraint construction.

    ``add_entry_constraint`` is the workhorse: it expresses
    ``sum(coeff * X[i, j]) == value`` without materializing a dense A_k —
    CPLA's assignment/capacity rows touch only a handful of entries each,
    and :meth:`constraint_rows` hands them to the solver sparse.
    """

    n: int
    cost: np.ndarray = field(default=None)  # type: ignore[assignment]
    _rows: List[Dict[int, float]] = field(default_factory=list)
    _values: List[float] = field(default_factory=list)
    box_lower: Optional[np.ndarray] = None
    box_upper: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("matrix order must be >= 1")
        if self.cost is None:
            self.cost = np.zeros((self.n, self.n))
        self.cost = np.asarray(self.cost, dtype=np.float64)
        if self.cost.shape != (self.n, self.n):
            raise ValueError(f"cost must be {self.n}x{self.n}")
        if not np.allclose(self.cost, self.cost.T, atol=1e-12):
            raise ValueError("cost matrix must be symmetric")
        # Sparse and dense (A, b) caches, rebuilt only after new rows.
        self._sparse: Optional[Tuple[Tuple[np.ndarray, ...], np.ndarray]] = None
        self._dense: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- constraint construction -----------------------------------------

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    def add_constraint(self, matrix: np.ndarray, value: float) -> None:
        """Add ``<matrix, X> == value`` for a full symmetric ``matrix``."""
        row_vec = svec(matrix)
        row = {int(i): float(v) for i, v in enumerate(row_vec) if v != 0.0}
        self._rows.append(row)
        self._values.append(float(value))
        self._sparse = self._dense = None

    def add_entry_constraint(
        self, entries: Sequence[Tuple[int, int]], coefficients: Sequence[float], value: float
    ) -> None:
        """Add ``sum(c * X[i, j]) == value`` over the given entries.

        X is symmetric, so an off-diagonal entry (i, j) names the single
        value ``X[i, j] == X[j, i]``; the constraint contributes ``c`` times
        that value once (the sqrt(2) svec scaling is handled internally).
        """
        if len(entries) != len(coefficients):
            raise ValueError("entries and coefficients must align")
        row: Dict[int, float] = {}
        for (i, j), coeff in zip(entries, coefficients):
            idx = entry_svec_index(self.n, i, j)
            scale = 1.0 if i == j else 1.0 / np.sqrt(2.0)
            row[idx] = row.get(idx, 0.0) + float(coeff) * scale
        self._rows.append(row)
        self._values.append(float(value))
        self._sparse = self._dense = None

    def set_box(self, lower: float, upper: float) -> None:
        """Bound every matrix entry elementwise (CPLA uses [0, 1])."""
        self.box_lower = np.full((self.n, self.n), float(lower))
        self.box_upper = np.full((self.n, self.n), float(upper))

    def set_entry_bounds(self, i: int, j: int, lower: float, upper: float) -> None:
        if self.box_lower is None or self.box_upper is None:
            self.box_lower = np.full((self.n, self.n), -np.inf)
            self.box_upper = np.full((self.n, self.n), np.inf)
        self.box_lower[i, j] = self.box_lower[j, i] = float(lower)
        self.box_upper[i, j] = self.box_upper[j, i] = float(upper)

    # -- assembled views -----------------------------------------------------

    def constraint_rows(
        self,
    ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
        """Sparse ``((row, svec index, coefficient), b)`` in COO form.

        Entries are row-major, each row in ascending svec index; cached
        until rows change.
        """
        if self._sparse is None:
            keys = [sorted(row) for row in self._rows]
            counts = [len(k) for k in keys]
            total = sum(counts)
            rows = np.repeat(np.arange(len(keys), dtype=np.intp), counts)
            cols = np.fromiter(
                (idx for k in keys for idx in k), dtype=np.intp, count=total
            )
            data = np.fromiter(
                (row[idx] for row, k in zip(self._rows, keys) for idx in k),
                dtype=np.float64, count=total,
            )
            self._sparse = (
                (rows, cols, data), np.asarray(self._values, dtype=np.float64)
            )
        return self._sparse

    def constraint_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense (A, b) in svec coordinates (cached until rows change)."""
        if self._dense is None:
            (rows, cols, data), b = self.constraint_rows()
            A = np.zeros((len(b), svec_dim(self.n)))
            A[rows, cols] = data
            self._dense = (A, b)
        return self._dense

    def violation(self, X: np.ndarray) -> float:
        """Max absolute equality-constraint violation at ``X``."""
        if not self._rows:
            return 0.0
        (rows, cols, data), b = self.constraint_rows()
        lhs = np.bincount(rows, weights=data * svec(X)[cols], minlength=len(b))
        return float(np.abs(lhs - b).max())


class ADMMSDPSolver:
    """Consensus-ADMM solver for :class:`SDPProblem` instances.

    The numerical loop lives in :func:`repro.batchsolve.kernels.run_admm`;
    this class is its batch-size-1 front end.  That sharing is the batched
    backend's correctness story: ``--exec batch`` lays the very same
    members end to end and runs the very same kernel, so scalar and
    batched solves are bit-identical by construction.  The solver is
    stateless.
    """

    def __init__(self, settings: Optional[SDPSettings] = None) -> None:
        self.settings = settings or SDPSettings()

    def admm_options(self) -> AdmmOptions:
        """The kernel-facing view of :class:`SDPSettings`."""
        cfg = self.settings
        return AdmmOptions(
            rho=cfg.rho,
            max_iterations=cfg.max_iterations,
            tolerance=cfg.tolerance,
            check_every=cfg.check_every,
            adaptive_rho=cfg.adaptive_rho,
            rho_scale_limit=cfg.rho_scale_limit,
        )

    def prepare_member(
        self, problem: SDPProblem, warm_start: Optional[np.ndarray] = None
    ) -> MemberSetup:
        """Build the kernel member for one problem (shared with ``batch``).

        The kernel splits it into its exact blocks and normalizes the cost
        (which keeps rho meaningful across instances); the box bounds get
        the svec sqrt(2) off-diagonal scaling with infinities kept
        infinite.
        """
        n = problem.n
        c = svec(problem.cost)
        A = b = None
        if problem.num_constraints:
            A, b = problem.constraint_rows()
        lower = upper = None
        if problem.box_lower is not None and problem.box_upper is not None:
            lower = np.nan_to_num(svec(problem.box_lower), neginf=-np.inf)
            upper = np.nan_to_num(svec(problem.box_upper), posinf=np.inf)
        x0 = svec(warm_start) if warm_start is not None else np.zeros(svec_dim(n))
        return build_member(
            n, c, x0, A=A, b=b, lower=lower, upper=upper,
            warm=warm_start is not None,
        )

    def finish(
        self, problem: SDPProblem, member_result: MemberResult
    ) -> SDPResult:
        """Turn one kernel member result into an :class:`SDPResult`.

        Reports the PSD consensus copy (exactly feasible for the cone; its
        cross-block entries are exactly 0).
        """
        X = smat(member_result.z_psd, problem.n)
        objective = float(np.tensordot(problem.cost, X))
        return SDPResult(
            X=X,
            objective=objective,
            iterations=member_result.iterations,
            primal_residual=member_result.primal,
            dual_residual=member_result.dual,
            converged=member_result.converged,
            max_constraint_violation=problem.violation(X),
        )

    @staticmethod
    def make_solve_record(
        problem: SDPProblem,
        member: MemberSetup,
        member_result: MemberResult,
        result: SDPResult,
        solve_seconds: float,
        projection_seconds: float,
    ) -> convergence.SolveRecord:
        """The convergence record of one member solve (any backend)."""
        return convergence.SolveRecord(
            solver="sdp",
            matrix_order=problem.n,
            num_constraints=problem.num_constraints,
            warm_start=member.warm,
            iterations=result.iterations,
            converged=result.converged,
            objective=result.objective,
            primal_residual=result.primal_residual,
            dual_residual=result.dual_residual,
            solve_seconds=solve_seconds,
            projection_seconds=projection_seconds,
            psd_identity_fraction=(
                member_result.identities / member_result.projections
                if member_result.projections else 0.0
            ),
            samples=member_result.samples,
        )

    def solve(
        self, problem: SDPProblem, warm_start: Optional[np.ndarray] = None
    ) -> SDPResult:
        # Convergence recorder: OFF means one flag check before the solve;
        # ON samples the residual checks and times the projection block
        # (repro.obs.convergence).
        recording = convergence.is_enabled()
        solve_start = time.perf_counter() if recording else 0.0
        member = self.prepare_member(problem, warm_start)
        member_results, stats = run_admm(
            [member], self.admm_options(), recording=recording
        )
        member_result = member_results[0]
        result = self.finish(problem, member_result)
        if recording:
            convergence.record_solve(self.make_solve_record(
                problem, member, member_result, result,
                solve_seconds=time.perf_counter() - solve_start,
                projection_seconds=stats.projection_seconds,
            ))
        if not result.converged:
            log.debug(
                "SDP stopped at max_iterations=%d (primal=%.2e dual=%.2e)",
                result.iterations, result.primal_residual, result.dual_residual,
            )
        return result
