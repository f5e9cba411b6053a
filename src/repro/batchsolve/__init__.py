"""Batched SDP backend (``--exec batch``).

Vectorized consensus-ADMM over every leaf of an engine pass: each leaf SDP
is split into its exact diagonal blocks, the leaves are laid end to end in
one flat state, and they iterate in lockstep with one stacked
eigendecomposition per block size, block-diagonal sparse affine
projections, and one box clip — one Python-level iteration loop per pass
instead of one per problem.

The scalar :class:`~repro.solver.sdp.ADMMSDPSolver` routes through the
same kernels at batch size 1, so the batched backend produces bit-identical
iterates (and therefore bit-identical assignment digests) by construction
— there is no separate "fast path" numeric code to drift.
"""

from repro.batchsolve.kernels import (
    AdmmOptions,
    BatchStats,
    MemberResult,
    MemberSetup,
    build_member,
    run_admm,
)


def __getattr__(name):
    # BatchLeafSolver pulls in the partition solver, which imports the
    # scalar ADMM solver, which imports the kernels above — loading it
    # eagerly here would close an import cycle, so it resolves lazily.
    if name == "BatchLeafSolver":
        from repro.batchsolve.solver import BatchLeafSolver

        return BatchLeafSolver
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmmOptions",
    "BatchLeafSolver",
    "BatchStats",
    "MemberResult",
    "MemberSetup",
    "build_member",
    "run_admm",
]
