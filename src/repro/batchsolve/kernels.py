"""Shared batched consensus-ADMM kernels.

One kernel serves every execution backend: the scalar
:class:`~repro.solver.sdp.ADMMSDPSolver` calls :func:`run_admm` with a
single member, the batched backend with a whole shape bucket.  All float
operations therefore run through the same code for every backend, and the
batched path is bit-identical to the scalar path as long as the stacked
primitives are slice-independent — which numpy's gufuncs (``linalg.eigh``
over ``(B, n, n)``, batched ``matmul``, ``einsum`` row reductions, boolean
row gathers) are.

State layout per bucket of ``B`` members over svec dimension ``d``:

- ``X``: the consensus iterate, ``(B, d)``;
- ``Z_st``/``U_st``: the copy/dual pairs of every projection set (PSD
  cone, affine subspace, box) stacked into single ``(m_sets, B, d)``
  tensors, so the elementwise half of each iteration (consensus
  accumulation, ``V = X + U``, ``U = V - Z``, residual differences) is
  one ufunc dispatch over all sets instead of one per set.  The fused
  reductions are left folds (``np.add.reduce`` / ``np.maximum.reduce``
  over the sets axis), bitwise equal to the sequential per-set loop;
- constraint stacks ``A (B, m, d)``, ``inv_gram (B, m, m)``, ``b (B, m, 1)``
  precomputed per member by :func:`build_member`.

Early-converged members are *compacted out*: their rows are gathered away
and their final state frozen, so the remaining members keep iterating on a
smaller stack.  Compaction (a boolean row gather) does not perturb the
surviving members' floats, and every member sees exactly the iterate
sequence it would have seen alone — the freeze is observational, not
numerical.

The affine projection uses a per-member precomputed ``inv(gram)`` (built
with the 2-D LAPACK inverse in :func:`build_member`, before any stacking)
so the in-loop work is a plain batched matmul; likewise residual norms are
``einsum`` row reductions rather than BLAS ``nrm2``, because the former
are bitwise independent of the batch size.

This module deliberately imports nothing from :mod:`repro.solver` — the
dependency points the other way (the scalar solver builds members and
calls the kernel), keeping the import graph acyclic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Hot-loop fast paths: the public ``np.linalg.eigh`` and
# ``np.clip`` spend most of their per-call time in Python-level argument
# handling, which dominates at the small matrix orders CPLA produces.
# Both resolve to the very gufunc/ufunc the public wrappers dispatch to,
# so results are bitwise unchanged; on import failure (older/newer numpy
# layouts) the kernel falls back to the public API.
try:  # pragma: no cover - layout varies across numpy versions
    from numpy.linalg._umath_linalg import eigh_lo as _EIGH_LO
except Exception:  # pragma: no cover
    _EIGH_LO = None
try:  # pragma: no cover
    from numpy._core.umath import clip as _CLIP  # numpy >= 2
except Exception:  # pragma: no cover
    try:
        from numpy.core.umath import clip as _CLIP  # numpy 1.x
    except Exception:
        _CLIP = None

_SQRT2 = math.sqrt(2.0)

# Packed-triangle indices per matrix order:
# (rows, cols, off-diagonal mask, svec scale).  The scale vector carries
# 1.0 on diagonal entries and sqrt(2) off-diagonal, so the svec <-> matrix
# conversions are whole-vector divides/multiplies instead of masked
# fancy-indexing — bitwise identical (x / 1.0 == x * 1.0 == x) and
# measurably cheaper in the per-iteration hot loop.
_INDEX_CACHE: Dict[
    int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
] = {}


def triu_cache(
    n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle index arrays for order ``n`` (cached per order)."""
    cached = _INDEX_CACHE.get(n)
    if cached is None:
        rows, cols = np.triu_indices(n)
        off = rows != cols
        scale = np.where(off, _SQRT2, 1.0)
        cached = _INDEX_CACHE[n] = (rows, cols, off, scale)
    return cached


@dataclass
class AdmmOptions:
    """Iteration controls of one kernel run (mirrors ``SDPSettings``)."""

    rho: float = 1.0
    max_iterations: int = 3000
    tolerance: float = 1e-5
    check_every: int = 10
    adaptive_rho: bool = True
    rho_scale_limit: float = 1e4


@dataclass
class MemberSetup:
    """One SDP instance prepared for the stacked kernel.

    ``bucket_key`` groups members whose stacked tensors are
    shape-compatible: same matrix order and same projection cascade.
    Constraint *counts* may differ within a bucket — the expensive PSD
    projection only cares about the matrix order, and the affine
    projection subgroups rows by constraint count internally — which is
    what keeps real workloads (many leaves of equal order but varied
    constraint counts) from fragmenting into singleton buckets.  Members
    of one :func:`run_admm` call must share the key.
    """

    n: int
    d: int
    c: np.ndarray                           # svec cost (objective samples)
    c_hat: np.ndarray                       # cost normalized by its norm
    x0: np.ndarray                          # start iterate (svec)
    A: Optional[np.ndarray] = None          # (m, d) constraint rows
    inv_gram: Optional[np.ndarray] = None   # (m, m) inverse of ridged A A^T
    b: Optional[np.ndarray] = None          # (m,) right-hand sides
    lower: Optional[np.ndarray] = None      # (d,) box bounds in svec coords
    upper: Optional[np.ndarray] = None
    warm: bool = False

    @property
    def num_constraints(self) -> int:
        return 0 if self.b is None else int(self.b.shape[0])

    @property
    def bucket_key(self) -> Tuple[int, bool, bool]:
        return (self.n, self.b is not None, self.lower is not None)


@dataclass
class MemberResult:
    """Final state of one member after its bucket's kernel run."""

    z_psd: np.ndarray       # the PSD consensus copy (exactly cone-feasible)
    iterations: int
    primal: float
    dual: float
    converged: bool
    projections: int        # PSD projections attempted for this member
    identities: int         # ... of which were identities (already PSD)
    samples: List[Dict[str, float]] = field(default_factory=list)


@dataclass
class BatchStats:
    """Bucket-level accounting of one :func:`run_admm` call."""

    members: int
    iterations: int          # lockstep iterations the bucket ran
    member_iterations: int   # sum of per-member iterations at freeze
    converged: int
    projection_seconds: float
    solve_seconds: float

    @property
    def frozen_fraction(self) -> float:
        """Fraction of member-iterations saved by freezing early convergers."""
        potential = self.members * self.iterations
        if potential <= 0:
            return 0.0
        return 1.0 - self.member_iterations / potential


def build_member(
    n: int,
    cost_svec: np.ndarray,
    x0: np.ndarray,
    A: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    warm: bool = False,
) -> MemberSetup:
    """Precompute the per-member state shared by scalar and batched runs.

    All member-local numerics (cost normalization, the ridged Gram inverse
    of the affine projection) happen here, on 2-D arrays, *before* any
    stacking — so they cannot depend on which bucket the member later
    lands in.
    """
    c = np.ascontiguousarray(cost_svec, dtype=np.float64)
    c_scale = float(np.linalg.norm(c))
    c_hat = c / c_scale if c_scale > 0 else c
    member = MemberSetup(
        n=n,
        d=int(c.shape[0]),
        c=c,
        c_hat=c_hat,
        x0=np.ascontiguousarray(x0, dtype=np.float64),
        warm=warm,
    )
    if A is not None and b is not None and len(b):
        A = np.ascontiguousarray(A, dtype=np.float64)
        gram = A @ A.T
        # Ridge guards against duplicated (rank-deficient) constraint rows.
        gram[np.diag_indices_from(gram)] += 1e-10
        member.A = A
        member.inv_gram = np.linalg.inv(gram)
        member.b = np.asarray(b, dtype=np.float64)
    if lower is not None and upper is not None:
        member.lower = np.asarray(lower, dtype=np.float64)
        member.upper = np.asarray(upper, dtype=np.float64)
    return member


def run_admm(
    members: Sequence[MemberSetup],
    options: Optional[AdmmOptions] = None,
    recording: bool = False,
) -> Tuple[List[MemberResult], BatchStats]:
    """Run consensus ADMM over one shape bucket until every member exits.

    Residuals are checked every ``check_every`` iterations (and at the
    iteration cap); converged members freeze — their rows are compacted out
    and their final state recorded — while the rest keep iterating.  With
    ``recording`` the per-member residual/objective samples are collected
    at each check, mirroring the scalar solver's convergence curves.
    """
    if not members:
        return [], BatchStats(0, 0, 0, 0, 0.0, 0.0)
    cfg = options or AdmmOptions()
    first = members[0]
    for member in members[1:]:
        if member.bucket_key != first.bucket_key:
            raise ValueError(
                f"bucket members must share a shape key: "
                f"{member.bucket_key} != {first.bucket_key}"
            )
    n, d = first.n, first.d
    batch = len(members)
    has_affine = first.b is not None
    has_box = first.lower is not None
    m_sets = 1 + int(has_affine) + int(has_box)
    rows, cols, off, svec_scale = triu_cache(n)

    solve_start = time.perf_counter()
    X = np.stack([m.x0 for m in members])
    C_hat = np.stack([m.c_hat for m in members])
    C = np.stack([m.c for m in members]) if recording else None
    rho = np.full(batch, cfg.rho, dtype=np.float64)
    # All projection-set state lives in two (m_sets, B, d) tensors so the
    # elementwise updates below are one ufunc call across every set.
    Z_st = np.stack([X] * m_sets)
    U_st = np.zeros((m_sets, batch, d), dtype=np.float64)
    if has_affine:
        # Constraint counts vary within a bucket; the affine projection
        # runs per constraint-count subgroup: (row indices into the
        # current stack, stacked A, A^T, inv(gram), b).  Each subgroup's
        # batched matmuls are bitwise slice-independent, so subgrouping
        # cannot perturb any member relative to its solo (B=1) run.
        affine_groups: List[List] = []
        by_m: Dict[int, List[int]] = {}
        for row, member in enumerate(members):
            by_m.setdefault(member.num_constraints, []).append(row)
        for rows_m in by_m.values():
            A_st = np.stack([members[r].A for r in rows_m])
            affine_groups.append([
                np.asarray(rows_m, dtype=np.intp),
                A_st,
                np.ascontiguousarray(np.swapaxes(A_st, 1, 2)),
                np.stack([members[r].inv_gram for r in rows_m]),
                np.stack([members[r].b for r in rows_m])[:, :, None],
            ])
    if has_box:
        lower_st = np.stack([m.lower for m in members])
        upper_st = np.stack([m.upper for m in members])

    # ``active[row]`` is the original member index living in stack row
    # ``row``; compaction gathers it alongside the state tensors.
    active = np.arange(batch)
    results: List[Optional[MemberResult]] = [None] * batch
    # PSD identity counts, compacted in lockstep with the state tensors
    # (every iteration attempts one PSD projection per member, so the
    # projection count at freeze is simply the iteration count).
    ident_counts = np.zeros(batch, dtype=np.int64)
    # Scratch buffers, allocated once at the full batch size and sliced
    # down as members freeze out.  All writes into them go through ufunc
    # ``out=`` parameters, which apply the identical float operation —
    # reuse only removes allocator traffic from the lockstep loop.
    # M_buf is zero-initialized because project_psd only scatters the
    # lower triangle (all eigh paths below read UPLO='L' exclusively);
    # the never-read upper half must still hold finite values.
    M_buf = np.zeros((batch, n, n), dtype=np.float64)
    vals_buf = np.empty((batch, d), dtype=np.float64)
    diff_buf = np.empty((m_sets, batch, d), dtype=np.float64)
    V_buf = np.empty((m_sets, batch, d), dtype=np.float64)
    samples: List[List[Dict[str, float]]] = [[] for _ in range(batch)]
    member_iterations = 0
    converged_count = 0
    proj_seconds = 0.0
    rho_hi = cfg.rho * cfg.rho_scale_limit
    rho_lo = cfg.rho / cfg.rho_scale_limit

    if _EIGH_LO is not None:
        def eigh(M):
            # Non-convergence of the underlying dsyevd surfaces as the
            # default invalid-value RuntimeWarning (NaN output) instead of
            # LinAlgError; the public wrapper's only other work is
            # argument validation the kernel has already guaranteed.
            return _EIGH_LO(M, signature="d->dd")
    else:
        eigh = np.linalg.eigh
    clip = _CLIP if _CLIP is not None else np.clip

    def row_norms(Y):
        return np.sqrt(np.einsum("bd,bd->b", Y, Y))

    def project_psd(V, out):
        """Stacked Frobenius projection onto the PSD cone, in svec coords."""
        nonlocal ident_counts
        vals = np.divide(V, svec_scale, out=vals_buf[: V.shape[0]])
        # One lower-triangle scatter suffices: every eigh path here reads
        # UPLO='L' only (the direct dsyevd gufunc and the public wrapper's
        # default alike), so the upper half is never referenced.
        M = M_buf[: V.shape[0]]
        M[:, cols, rows] = vals
        w, Q = eigh(M)
        neg = w[:, 0] < 0.0
        ident_counts += ~neg
        np.copyto(out, V)
        if neg.any():
            w_neg = np.maximum(w[neg], 0.0)
            R = (Q[neg] * w_neg[:, None, :]) @ np.swapaxes(Q[neg], 1, 2)
            out[neg] = R[:, rows, cols] * svec_scale

    def project_affine(V, out):
        if len(affine_groups) == 1 and affine_groups[0][0].size == V.shape[0]:
            _, A_st, At_st, inv_gram_st, b_st = affine_groups[0]
            resid = A_st @ V[:, :, None]
            resid -= b_st
            np.subtract(V, (At_st @ (inv_gram_st @ resid))[:, :, 0], out=out)
            return
        np.copyto(out, V)
        for idx, A_st, At_st, inv_gram_st, b_st in affine_groups:
            Vs = V[idx]
            resid = A_st @ Vs[:, :, None]
            resid -= b_st
            out[idx] = Vs - (At_st @ (inv_gram_st @ resid))[:, :, 0]

    def project_box(V, out):
        clip(V, lower_st, upper_st, out=out)

    projections = [project_psd]
    if has_affine:
        projections.append(project_affine)
    if has_box:
        projections.append(project_box)

    # The cost-drift term of the consensus update only changes when rho
    # adapts or the stack compacts, so it is cached across iterations —
    # the cached array holds exactly the value the inline expression
    # would produce.
    drift = C_hat / (m_sets * rho)[:, None]

    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        X_prev = X
        B = X.shape[0]
        # add.reduce over the sets axis is the same left fold as the
        # per-set accumulation loop, so the consensus mean is bitwise
        # unchanged; X must be a fresh array (X_prev keeps the old one).
        D = np.subtract(Z_st, U_st, out=diff_buf[:, :B])
        X = np.add.reduce(D, axis=0)
        X = np.divide(X, m_sets, out=X)
        X -= drift

        if recording:
            proj_start = time.perf_counter()
        V_all = np.add(X, U_st, out=V_buf[:, :B])
        for i, project in enumerate(projections):
            project(V_all[i], Z_st[i])
        # Old U_st is dead once V_all is formed; one fused subtract.
        np.subtract(V_all, Z_st, out=U_st)
        if recording:
            proj_seconds += time.perf_counter() - proj_start

        if iterations % cfg.check_every == 0 or iterations == cfg.max_iterations:
            DXZ = np.subtract(X, Z_st, out=diff_buf[:, :B])
            sq = np.einsum("sbd,sbd->sb", DXZ, DXZ)
            # sqrt-then-max over sets matches the per-set row_norms fold.
            primal = np.maximum.reduce(np.sqrt(sq), axis=0)
            dual = (rho * math.sqrt(m_sets)) * row_norms(X - X_prev)
            if recording:
                objective = np.einsum("bd,bd->b", C, X)
                for row, orig in enumerate(active):
                    samples[orig].append({
                        "iteration": iterations,
                        "objective": float(objective[row]),
                        "primal": float(primal[row]),
                        "dual": float(dual[row]),
                        "rho": float(rho[row]),
                    })
            scale = np.maximum(1.0, row_norms(X))
            tol = cfg.tolerance * scale
            done = (primal <= tol) & (dual <= tol)
            at_cap = iterations == cfg.max_iterations
            if done.any() or at_cap:
                exiting = done | at_cap
                for row in np.nonzero(exiting)[0]:
                    orig = int(active[row])
                    results[orig] = MemberResult(
                        z_psd=np.array(Z_st[0, row], dtype=np.float64),
                        iterations=iterations,
                        primal=float(primal[row]),
                        dual=float(dual[row]),
                        converged=bool(done[row]),
                        projections=iterations,
                        identities=int(ident_counts[row]),
                        samples=samples[orig],
                    )
                    member_iterations += iterations
                    converged_count += int(done[row])
                keep = ~exiting
                if not keep.any():
                    break
                X = X[keep]
                X_prev = X_prev[keep]
                Z_st = Z_st[:, keep]
                U_st = U_st[:, keep]
                C_hat = C_hat[keep]
                if recording:
                    C = C[keep]
                rho = rho[keep]
                primal = primal[keep]
                dual = dual[keep]
                active = active[keep]
                ident_counts = ident_counts[keep]
                # Row gather == recompute: the drift is elementwise in the
                # batch dimension.
                drift = drift[keep]
                if has_affine:
                    # Remap each subgroup's row indices into the compacted
                    # stack and drop its frozen members' constraint blocks.
                    old_to_new = np.cumsum(keep) - 1
                    surviving = []
                    for idx, A_st, At_st, inv_gram_st, b_st in affine_groups:
                        sub_keep = keep[idx]
                        if not sub_keep.any():
                            continue
                        surviving.append([
                            old_to_new[idx[sub_keep]],
                            A_st[sub_keep],
                            At_st[sub_keep],
                            inv_gram_st[sub_keep],
                            b_st[sub_keep],
                        ])
                    affine_groups = surviving
                if has_box:
                    lower_st = lower_st[keep]
                    upper_st = upper_st[keep]
            if cfg.adaptive_rho and active.size:
                # Mirrors the scalar schedule: x2 when primal dominates, /2
                # when dual dominates, duals rescaled to keep u = y / rho.
                up = (primal > 10.0 * dual) & (rho < rho_hi)
                down = (dual > 10.0 * primal) & (rho > rho_lo)
                if up.any() or down.any():
                    U_st[:, up] /= 2.0
                    U_st[:, down] *= 2.0
                    rho = rho.copy()
                    rho[up] *= 2.0
                    rho[down] /= 2.0
                    drift = C_hat / (m_sets * rho)[:, None]

    stats = BatchStats(
        members=batch,
        iterations=iterations,
        member_iterations=member_iterations,
        converged=converged_count,
        projection_seconds=proj_seconds,
        solve_seconds=time.perf_counter() - solve_start,
    )
    return list(results), stats  # type: ignore[arg-type]
