"""Shared block-split consensus-ADMM kernel.

One kernel serves every execution backend: the scalar
:class:`~repro.solver.sdp.ADMMSDPSolver` calls :func:`run_admm` with a
single member, the batched backend with every leaf of an engine pass.  All
float operations therefore run through the same code for every backend,
and the batched path is bit-identical to the scalar path as long as the
primitives are slice-independent — which ufuncs, ``np.add.reduceat``
segments, CSR matrix-vector rows and numpy's stacked ``eigh``/``matmul``
gufuncs are.

**Block split.**  The CPLA relaxation puts cost and constraints only on
diagonal entries and on the entries pairing candidate layers of segments
that share a junction via, and its box [0, 1] contains 0.  So
:func:`build_member` splits each member's matrix into the connected
components of the graph whose edges are the off-diagonal entries with a
nonzero cost, a nonzero constraint coefficient, or a box excluding 0, and
keeps only the entries inside a component.  The split is exact: zeroing
the cross-block entries of a feasible ``X`` keeps every constraint (none
touches them), the box (it contains 0) and the PSD cone (principal
submatrices of a PSD matrix are PSD), with the same objective.  The PSD
projection then factors over the blocks: a 1×1 block clips at 0, larger
blocks are eigendecomposed.  A warm start with nonzero cross-block entries
is projected onto the pattern (they are dropped).

**Ragged state.**  Members of any order are laid end to end in one flat
vector of kept entries:

- ``X``: the consensus iterate, ``(D,)`` over all members' kept entries;
- ``Z_st``/``U_st``: the copy/dual pairs of every projection set (PSD,
  affine, box) stacked into ``(m_sets, D)`` tensors, so the elementwise
  half of each iteration is one ufunc dispatch over all sets;
- PSD blocks of equal size are stacked across all members into one
  ``eigh`` call per size;
- the affine projection is three block-diagonal CSR products (``A``,
  ``inv(gram)``, ``A^T``), each member owning a contiguous range of rows
  and columns;
- per-member norms are ``np.add.reduceat`` over the members' segments.

Early-converged members are *compacted out*: their entries are gathered
away and their final state frozen, so the remaining members keep
iterating on a smaller state.  Compaction does not perturb the surviving
members' floats, and every member sees exactly the iterate sequence it
would have seen alone — the freeze is observational, not numerical.

**Rounding exit.**  A member built with its segments' layer counts
(:func:`build_member`'s ``segments``) also stops once the layer each
segment would round to has settled: every :data:`ROUND_EVERY` iterations
the argmax over each segment's candidate-layer entries on the diagonal
of the PSD copy is compared with the previous check's, and the member
exits when none moved and its primal residual is within
:data:`ROUND_SLACK` times the tolerance.  The argmax is a segment
reduction over the member's own entries, so the exit is per member like
the residual stop.  Members without segments keep the residual-only stop.

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
from scipy.sparse import csr_matrix

# Hot-loop fast paths: the public ``np.linalg.eigh``, ``np.clip`` and
# scipy's ``csr_matrix.__matmul__`` spend most of their per-call time in
# Python-level argument handling, which dominates at the small sizes CPLA
# produces.  Each resolves to the very routine the public wrapper
# dispatches to, so results are bitwise unchanged; on import failure
# (older/newer layouts) the kernel falls back to the public API.
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
try:  # pragma: no cover - private scipy module
    from scipy.sparse._sparsetools import csr_matvec as _CSR_MATVEC
except Exception:  # pragma: no cover
    _CSR_MATVEC = None

_SQRT2 = math.sqrt(2.0)

# Rounding exit (members with segments only): its check cadence in
# iterations and the primal residual it accepts, as a multiple of the
# stop tolerance.  The guard keeps the relaxation's rows honest: without
# it a segment's relaxed values summed to 0.87 and a 1e-5 solve's
# objective ended 5 % off.  On the Table 2 suite a 1x or 2x guard ran
# 56 % or 26 % more iterations than 5x for the same quality, and a
# 10-iteration cadence (earliest exit 20) cut 37 % of the residual
# stop's iterations where 5 cuts 62 % (guard sweep, docs/PERFORMANCE.md).
ROUND_EVERY = 5
ROUND_SLACK = 5.0
_NO_LAYER = np.iinfo(np.intp).max  # a segment with no finite maximum

# Packed-triangle indices per matrix order:
# (rows, cols, off-diagonal mask, svec scale).  The scale vector carries
# 1.0 on diagonal entries and sqrt(2) off-diagonal, so the svec <-> matrix
# conversions are whole-vector divides/multiplies.
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


# Per block size s: (packed-triangle position of every (i, j) of the full
# s x s matrix, flat (i * s + j) position of every packed entry, the
# full-matrix svec scale).  They turn a block's svec slice into its
# symmetric matrix with one gather and back with another.
_BLOCK_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _block_maps(s: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    cached = _BLOCK_CACHE.get(s)
    if cached is None:
        rows, cols, _, scale = triu_cache(s)
        tri = np.empty((s, s), dtype=np.intp)
        tri[rows, cols] = np.arange(rows.size)
        tri[cols, rows] = tri[rows, cols]
        cached = _BLOCK_CACHE[s] = (tri, rows * s + cols, scale[tri])
    return cached


# A sparse matrix as plain CSR arrays: (indptr, indices, data).
Csr = Tuple[np.ndarray, np.ndarray, np.ndarray]


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
    """One SDP instance prepared for the kernel, split into its blocks.

    All vectors live on the member's *kept* entries — the diagonal plus
    the within-block off-diagonal entries — in kernel order: the 1×1
    blocks first, then each larger block's packed upper triangle.
    ``keep`` maps them back to the full svec.  Members of one
    :func:`run_admm` call may differ in order, block structure and
    constraint count; they must share the projection cascade.
    """

    n: int
    d: int                                  # full svec dimension n(n+1)/2
    keep: np.ndarray                        # full-svec index per kept entry
    singles: np.ndarray                     # positions of the 1x1 blocks
    blocks: Dict[int, np.ndarray]           # size s -> (k, s(s+1)/2) positions
    c: np.ndarray                           # cost (objective samples)
    c_hat: np.ndarray                       # cost normalized by its norm
    x0: np.ndarray                          # start iterate
    A: Optional[Csr] = None                 # (m, size) constraint rows
    At: Optional[Csr] = None                # (size, m) their transpose
    inv_gram: Optional[Csr] = None          # (m, m) inverse of ridged A A^T
    b: Optional[np.ndarray] = None          # (m,) right-hand sides
    lower: Optional[np.ndarray] = None      # box bounds in svec coords
    upper: Optional[np.ndarray] = None
    warm: bool = False
    # Rounding exit: the kept positions of the segments' candidate-layer
    # diagonal entries, segment after segment, and each entry's layer
    # index within its segment (0 opens a segment).
    round_entries: Optional[np.ndarray] = None
    round_layers: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        """Number of kept entries (the member's share of the state)."""
        return int(self.keep.shape[0])

    @property
    def num_constraints(self) -> int:
        return 0 if self.b is None else int(self.b.shape[0])

    @property
    def cascade(self) -> Tuple[bool, bool]:
        """Which projection sets follow the PSD one: (affine, box)."""
        return (self.b is not None, self.lower is not None)

    @property
    def max_block(self) -> int:
        return max(self.blocks, default=1)

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Kept-entry values as a full svec (cross-block entries 0)."""
        out = np.zeros(self.d, dtype=np.float64)
        out[self.keep] = values
        return out


@dataclass
class MemberResult:
    """Final state of one member after its kernel run."""

    z_psd: np.ndarray       # full-svec PSD consensus copy (cone-feasible)
    iterations: int
    primal: float
    dual: float
    converged: bool         # stopped before the cap, by either rule
    rounded: bool           # ... by the rounding exit (not the residuals)
    projections: int        # PSD projections attempted for this member
    identities: int         # ... of which were identities (when recording)
    samples: List[Dict[str, float]] = field(default_factory=list)


@dataclass
class BatchStats:
    """Accounting of one :func:`run_admm` call.

    The per-projection seconds are measured only when recording.
    """

    members: int
    iterations: int          # lockstep iterations the call ran
    member_iterations: int   # sum of per-member iterations at freeze
    converged: int
    solve_seconds: float
    psd_seconds: float = 0.0
    affine_seconds: float = 0.0
    box_seconds: float = 0.0
    max_order: int = 0       # largest member matrix order
    size_groups: int = 0     # eigh calls per iteration (block sizes >= 2)
    max_block: int = 0       # largest PSD block

    @property
    def projection_seconds(self) -> float:
        return self.psd_seconds + self.affine_seconds + self.box_seconds

    @property
    def frozen_fraction(self) -> float:
        """Fraction of member-iterations saved by freezing early convergers."""
        potential = self.members * self.iterations
        if potential <= 0:
            return 0.0
        return 1.0 - self.member_iterations / potential


def _block_layout(
    n: int, edge_rows: np.ndarray, edge_cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """Kept full-svec entries, 1×1 positions and block positions by size.

    Vertices are grouped into the connected components of the edge graph;
    isolated vertices become 1×1 blocks, laid out first, then each larger
    component in order of its smallest vertex.
    """
    # Min-label propagation with pointer jumping: converges to every
    # vertex labelled with the smallest vertex of its component.
    labels = np.arange(n)
    while edge_rows.size:
        low = np.minimum(labels[edge_rows], labels[edge_cols])
        hooked = labels.copy()
        np.minimum.at(hooked, edge_rows, low)
        np.minimum.at(hooked, edge_cols, low)
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    counts = np.bincount(labels, minlength=n)
    isolated = np.flatnonzero(counts[labels] == 1)
    keep = [isolated * n - isolated * (isolated - 1) // 2]
    offset = isolated.size
    starts: Dict[int, List[int]] = {}
    # Stable sort: each component's vertices stay ascending.
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(counts)))
    for label in np.flatnonzero(counts > 1):
        vertices = order[bounds[label]:bounds[label + 1]]
        s = vertices.size
        rows, cols = triu_cache(s)[:2]
        vi, vj = vertices[rows], vertices[cols]
        keep.append(vi * n - vi * (vi - 1) // 2 + (vj - vi))
        starts.setdefault(s, []).append(offset)
        offset += rows.size
    blocks = {
        s: np.asarray(firsts, dtype=np.intp)[:, None] + np.arange(s * (s + 1) // 2)
        for s, firsts in sorted(starts.items())
    }
    return np.concatenate(keep), np.arange(isolated.size), blocks


def _csr(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, shape) -> Csr:
    """CSR arrays of COO entries, each row keeping its entries' order."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return indptr, cols[order].astype(np.intp), data[order]


def build_member(
    n: int,
    cost_svec: np.ndarray,
    x0: np.ndarray,
    A: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    b: Optional[np.ndarray] = None,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    warm: bool = False,
    segments: Optional[Sequence[int]] = None,
) -> MemberSetup:
    """Split one SDP into its blocks and precompute its kernel state.

    Inputs are in full-svec coordinates; ``A`` holds the constraint rows
    as COO arrays ``(row, svec index, coefficient)``.  ``segments`` gives
    the layer count of each segment whose candidate-layer entries open
    the diagonal, in order; with it the member may take the rounding exit.
    All member-local numerics (the block analysis, cost normalization,
    the ridged Gram inverse of the affine projection) happen here, per
    member, before any stacking — so they cannot depend on which call
    the member later lands in.
    """
    rows, cols, off, _ = triu_cache(n)
    d = rows.size
    c_full = np.asarray(cost_svec, dtype=np.float64)
    linked = off & (c_full != 0.0)
    if A is not None and b is not None and len(b):
        a_rows, a_cols, a_data = (np.asarray(v) for v in A)
        nonzero = a_data != 0.0
        a_rows, a_cols = a_rows[nonzero], a_cols[nonzero]
        a_data = a_data[nonzero].astype(np.float64)
        linked[a_cols] |= off[a_cols]
    else:
        A = None
    if lower is not None and upper is not None:
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        linked |= off & ((lower > 0.0) | (upper < 0.0))
    keep, singles, blocks = _block_layout(n, rows[linked], cols[linked])

    c = c_full[keep]
    c_scale = float(np.linalg.norm(c))
    c_hat = c / c_scale if c_scale > 0 else c
    member = MemberSetup(
        n=n,
        d=d,
        keep=keep,
        singles=singles,
        blocks=blocks,
        c=c,
        c_hat=c_hat,
        x0=np.asarray(x0, dtype=np.float64)[keep],
        warm=warm,
    )
    position = np.empty(d, dtype=np.intp)
    position[keep] = np.arange(keep.size)
    if segments is not None and len(segments):
        total = int(sum(segments))
        if min(segments) < 1 or total > n:
            raise ValueError(f"segments {list(segments)} do not fit order {n}")
        # Diagonal entries are never split off, and ~off lists them in order.
        member.round_entries = position[np.flatnonzero(~off)[:total]]
        member.round_layers = np.array(
            [k for count in segments for k in range(count)], dtype=np.intp
        )
    if A is not None:
        m = len(b)
        a_pos = position[a_cols]
        # The Gram matrix only needs the columns a row touches.
        touched, a_col = np.unique(a_pos, return_inverse=True)
        dense = np.zeros((m, touched.size))
        dense[a_rows, a_col] = a_data
        gram = dense @ dense.T
        # Ridge guards against duplicated (rank-deficient) constraint rows.
        gram[np.diag_indices_from(gram)] += 1e-10
        inv_gram = np.linalg.inv(gram)
        member.A = _csr(a_rows, a_pos, a_data, (m, keep.size))
        member.At = _csr(a_pos, a_rows, a_data, (keep.size, m))
        member.inv_gram = (
            np.arange(0, m * m + 1, m, dtype=np.intp),
            np.tile(np.arange(m, dtype=np.intp), m),
            inv_gram.ravel(),
        )
        member.b = np.asarray(b, dtype=np.float64)
    if lower is not None and upper is not None:
        member.lower = lower[keep]
        member.upper = upper[keep]
    return member


def _stack_csr(parts: Sequence[Csr], col_starts: Sequence[int]) -> Csr:
    """Block-diagonal CSR of per-member parts."""
    indptr = [np.zeros(1, dtype=np.intp)]
    nnz = 0
    for ptr, _, _ in parts:
        indptr.append(ptr[1:] + nnz)
        nnz += int(ptr[-1])
    return (
        np.concatenate(indptr),
        np.concatenate([idx + c0 for (_, idx, _), c0 in zip(parts, col_starts)]),
        np.concatenate([data for _, _, data in parts]),
    )


class _Layout:
    """Index structures of the members still iterating, laid end to end.

    Rebuilt from the surviving members whenever the state compacts; every
    array is a concatenation of per-member pieces shifted by the member's
    offset, so a member's rows and entries hold the same values whatever
    else shares the call.
    """

    def __init__(self, members: Sequence[MemberSetup]) -> None:
        sizes = np.array([m.size for m in members], dtype=np.intp)
        starts = np.zeros(len(members), dtype=np.intp)
        np.cumsum(sizes[:-1], out=starts[1:])
        self.sizes = sizes
        self.starts = starts
        self.singles = np.concatenate(
            [m.singles + s for m, s in zip(members, starts)]
        )
        # The member row owning each 1x1 block and each stacked block.
        self.single_owner = np.repeat(
            np.arange(len(members)), [m.singles.size for m in members]
        )
        # PSD floor per entry: 0 on 1x1 blocks (they clip at 0), -inf
        # elsewhere, so one ``maximum`` projects every 1x1 block and copies
        # the rest unchanged.
        self.floor = np.full(int(sizes.sum()), -np.inf)
        self.floor[self.singles] = 0.0
        # (size s, positions (k, s(s+1)/2), full-matrix gather (k, s, s),
        # owner row (k,)) per block size, ascending.
        self.groups: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for s in sorted({s for m in members for s in m.blocks}):
            parts = [
                (m.blocks[s] + start, row)
                for row, (m, start) in enumerate(zip(members, starts))
                if s in m.blocks
            ]
            positions = np.concatenate([p for p, _ in parts])
            owner = np.concatenate(
                [np.full(p.shape[0], row, dtype=np.intp) for p, row in parts]
            )
            tri = _block_maps(s)[0]
            self.groups.append((s, positions, positions[:, tri], owner))
        first = members[0]
        if first.b is not None:
            cols = [int(s) for s in starts]
            ms = [m.num_constraints for m in members]
            row_starts = np.concatenate(([0], np.cumsum(ms)[:-1])).tolist()
            self.A = _stack_csr([m.A for m in members], cols)
            self.At = _stack_csr([m.At for m in members], row_starts)
            self.inv_gram = _stack_csr([m.inv_gram for m in members], row_starts)
            self.b = np.concatenate([m.b for m in members])
        if first.lower is not None:
            self.lower = np.concatenate([m.lower for m in members])
            self.upper = np.concatenate([m.upper for m in members])
        # Rounding exit: the rows of the members that take it, their
        # candidate-layer entries end to end with each entry's layer, the
        # start and size of every segment in them, and the segment count
        # and first segment of each such member.
        rounding = [
            (row, m) for row, m in enumerate(members)
            if m.round_entries is not None
        ]
        self.round_rows = np.array([row for row, _ in rounding], dtype=np.intp)
        if rounding:
            self.round_entries = np.concatenate(
                [m.round_entries + starts[row] for row, m in rounding]
            )
            self.round_layers = np.concatenate(
                [m.round_layers for _, m in rounding]
            )
            self.round_starts = np.flatnonzero(self.round_layers == 0)
            self.round_sizes = np.diff(
                np.append(self.round_starts, self.round_layers.size)
            )
            self.round_segments = np.array(
                [np.count_nonzero(m.round_layers == 0) for _, m in rounding],
                dtype=np.intp,
            )
            self.round_first = np.cumsum(self.round_segments) - self.round_segments


def _csr_matvec(csr: Csr, x: np.ndarray, rows: int) -> np.ndarray:
    indptr, indices, data = csr
    if _CSR_MATVEC is None:  # pragma: no cover
        return csr_matrix((data, indices, indptr), shape=(rows, x.size)) @ x
    out = np.zeros(rows, dtype=np.float64)
    _CSR_MATVEC(rows, x.size, indptr, indices, data, x, out)
    return out


def run_admm(
    members: Sequence[MemberSetup],
    options: Optional[AdmmOptions] = None,
    recording: bool = False,
) -> Tuple[List[MemberResult], BatchStats]:
    """Run consensus ADMM over ``members`` until every member exits.

    Residuals are checked every ``check_every`` iterations (and at the
    iteration cap), the rounding of members with segments every
    :data:`ROUND_EVERY`; exiting members freeze — their entries are
    compacted out and their final state recorded — while the rest keep
    iterating.  With ``recording`` the per-member residual/objective
    samples are collected at each residual check, mirroring the scalar
    solver's convergence curves, and each projection is timed.
    """
    if not members:
        return [], BatchStats(0, 0, 0, 0, 0.0)
    cfg = options or AdmmOptions()
    cascade = members[0].cascade
    for member in members[1:]:
        if member.cascade != cascade:
            raise ValueError(
                f"members of one call must share the projection cascade: "
                f"{member.cascade} != {cascade}"
            )
    has_affine, has_box = cascade
    m_sets = 1 + int(has_affine) + int(has_box)
    batch = len(members)

    solve_start = time.perf_counter()
    live = list(members)
    layout = _Layout(live)
    X = np.concatenate([m.x0 for m in members])
    C_hat = np.concatenate([m.c_hat for m in members])
    C = np.concatenate([m.c for m in members]) if recording else None
    rho = np.full(batch, cfg.rho, dtype=np.float64)
    # All projection-set state lives in two (m_sets, D) tensors so the
    # elementwise updates below are one ufunc call across every set.
    Z_st = np.stack([X] * m_sets)
    U_st = np.zeros_like(Z_st)

    # ``active[row]`` is the original member index of live member ``row``.
    active = np.arange(batch)
    results: List[Optional[MemberResult]] = [None] * batch
    # PSD identity counts (recording only), compacted with the state.
    ident_counts = np.zeros(batch, dtype=np.int64)
    samples: List[List[Dict[str, float]]] = [[] for _ in range(batch)]
    member_iterations = 0
    converged_count = 0
    seconds = [0.0, 0.0, 0.0]  # PSD, affine, box (recording only)
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

    def segment_norms(Y):
        return np.sqrt(np.add.reduceat(Y * Y, layout.starts, axis=-1))

    def rounding():
        """Per segment: the layer its diagonal entries' argmax picks."""
        values = Z_st[0][layout.round_entries]
        top = np.maximum.reduceat(values, layout.round_starts)
        hit = values == np.repeat(top, layout.round_sizes)
        # np.argmax's tie rule: the first entry reaching the maximum.
        return np.minimum.reduceat(
            np.where(hit, layout.round_layers, _NO_LAYER), layout.round_starts
        )

    def project_psd(V, out):
        """Frobenius projection onto the PSD cone, block by block."""
        np.maximum(V, layout.floor, out=out)
        if recording:
            negative = np.zeros(len(live), dtype=bool)
            negative[layout.single_owner[V[layout.singles] < 0.0]] = True
        for s, positions, gather, owner in layout.groups:
            _, upper_flat, full_scale = _block_maps(s)
            # eigh reads the lower triangle only; the gather fills both.
            w, Q = eigh(np.divide(V[gather], full_scale))
            neg = w[:, 0] < 0.0
            if recording:
                negative[owner[neg]] = True
            count = np.count_nonzero(neg)
            if not count:
                continue
            if count < neg.size:
                w, Q, positions = w[neg], Q[neg], positions[neg]
            np.maximum(w, 0.0, out=w)
            R = (Q * w[:, None, :]) @ Q.transpose(0, 2, 1)
            out[positions] = (
                R.reshape(count, s * s)[:, upper_flat] * triu_cache(s)[3]
            )
        if recording:
            ident_counts[~negative] += 1

    def project_affine(V, out):
        rows = layout.b.shape[0]
        resid = _csr_matvec(layout.A, V, rows)
        resid -= layout.b
        step = _csr_matvec(layout.At, _csr_matvec(layout.inv_gram, resid, rows),
                           V.shape[0])
        np.subtract(V, step, out=out)

    def project_box(V, out):
        clip(V, layout.lower, layout.upper, out=out)

    # (timing slot, projection): slots 0/1/2 are PSD/affine/box.
    projections = [(0, project_psd)]
    if has_affine:
        projections.append((1, project_affine))
    if has_box:
        projections.append((2, project_box))

    # The cost-drift term of the consensus update only changes when rho
    # adapts or the state compacts, so it is cached across iterations.
    drift = C_hat / np.repeat(m_sets * rho, layout.sizes)

    # The rounding at the previous rounding check, per live segment.
    last_rounding: Optional[np.ndarray] = None
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        X_prev = X
        # add.reduce over the sets axis is the same left fold as a per-set
        # accumulation loop; X must be a fresh array (X_prev keeps the old).
        X = np.add.reduce(np.subtract(Z_st, U_st), axis=0)
        X = np.divide(X, m_sets, out=X)
        X -= drift

        V_all = np.add(X, U_st)
        for i, (slot, project) in enumerate(projections):
            if recording:
                tick = time.perf_counter()
                project(V_all[i], Z_st[i])
                seconds[slot] += time.perf_counter() - tick
            else:
                project(V_all[i], Z_st[i])
        # Old U_st is dead once V_all is formed; one fused subtract.
        np.subtract(V_all, Z_st, out=U_st)

        at_cap = iterations == cfg.max_iterations
        check = iterations % cfg.check_every == 0 or at_cap
        round_check = (
            layout.round_rows.size > 0 and iterations % ROUND_EVERY == 0
        )
        if check or round_check:
            # sqrt-then-max over sets: the primal residual of each member
            # is its worst projection set.
            primal = np.maximum.reduce(segment_norms(X - Z_st), axis=0)
            dual = (rho * math.sqrt(m_sets)) * segment_norms(X - X_prev)
            if recording and check:
                objective = np.add.reduceat(C * X, layout.starts)
                for row, orig in enumerate(active):
                    samples[orig].append({
                        "iteration": iterations,
                        "objective": float(objective[row]),
                        "primal": float(primal[row]),
                        "dual": float(dual[row]),
                        "rho": float(rho[row]),
                    })
            scale = np.maximum(1.0, segment_norms(X))
            tol = cfg.tolerance * scale
            done = (primal <= tol) & (dual <= tol) & check
            rounded = np.zeros_like(done)
            if round_check:
                choice = rounding()
                if last_rounding is not None:
                    rounded[layout.round_rows] = ~np.logical_or.reduceat(
                        choice != last_rounding, layout.round_first
                    )
                    rounded &= (primal <= ROUND_SLACK * tol) & ~done
                last_rounding = choice
            stopped = done | rounded
            if stopped.any() or at_cap:
                exiting = stopped | at_cap
                for row in np.flatnonzero(exiting):
                    orig = int(active[row])
                    start = layout.starts[row]
                    results[orig] = MemberResult(
                        z_psd=live[row].expand(
                            Z_st[0, start:start + layout.sizes[row]]
                        ),
                        iterations=iterations,
                        primal=float(primal[row]),
                        dual=float(dual[row]),
                        converged=bool(stopped[row]),
                        rounded=bool(rounded[row]),
                        projections=iterations,
                        identities=int(ident_counts[row]),
                        samples=samples[orig],
                    )
                    member_iterations += iterations
                    converged_count += int(stopped[row])
                keep = ~exiting
                if not keep.any():
                    break
                if last_rounding is not None:
                    last_rounding = last_rounding[np.repeat(
                        keep[layout.round_rows], layout.round_segments
                    )]
                entries = np.repeat(keep, layout.sizes)
                X = X[entries]
                X_prev = X_prev[entries]
                Z_st = Z_st[:, entries]
                U_st = U_st[:, entries]
                C_hat = C_hat[entries]
                if recording:
                    C = C[entries]
                # Gather == recompute: the drift is elementwise.
                drift = drift[entries]
                rho = rho[keep]
                primal = primal[keep]
                dual = dual[keep]
                active = active[keep]
                ident_counts = ident_counts[keep]
                live = [m for m, k in zip(live, keep) if k]
                layout = _Layout(live)
            if check and cfg.adaptive_rho:
                # Mirrors the scalar schedule: x2 when primal dominates, /2
                # when dual dominates, duals rescaled to keep u = y / rho.
                up = (primal > 10.0 * dual) & (rho < rho_hi)
                down = (dual > 10.0 * primal) & (rho > rho_lo)
                if up.any() or down.any():
                    U_st[:, np.repeat(up, layout.sizes)] /= 2.0
                    U_st[:, np.repeat(down, layout.sizes)] *= 2.0
                    rho = rho.copy()
                    rho[up] *= 2.0
                    rho[down] /= 2.0
                    drift = C_hat / np.repeat(m_sets * rho, layout.sizes)

    stats = BatchStats(
        members=batch,
        iterations=iterations,
        member_iterations=member_iterations,
        converged=converged_count,
        solve_seconds=time.perf_counter() - solve_start,
        psd_seconds=seconds[0],
        affine_seconds=seconds[1],
        box_seconds=seconds[2],
        max_order=max(m.n for m in members),
        size_groups=len({s for m in members for s in m.blocks}),
        max_block=max(m.max_block for m in members),
    )
    return list(results), stats  # type: ignore[arg-type]
