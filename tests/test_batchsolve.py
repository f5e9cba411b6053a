"""Batched tensor SDP backend tests (``--exec batch``).

The backend's load-bearing promise is *bit-identity by construction*: the
scalar ADMM solver routes through the same kernel at batch size 1, so
laying problems end to end in one call must not change a single bit of
any iterate — and therefore the engine-level sha256 assignment digests of
``batch``, ``seq``, ``pool``, and ``dist`` runs all agree.  These tests
pin that promise at the kernel level (bitwise array equality), the engine
level (digest equality, including warm reruns), and the surface level
(CLI/request validation, stats plumbing).  The block split each member
gets is pinned against a dense eigendecomposition reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batchsolve import AdmmOptions, run_admm
from repro.batchsolve.solver import BatchLeafSolver
from repro.cli import EXIT_USAGE, main
from repro.core.engine import CPLAConfig, CPLAEngine
from repro.core.sdp_relaxation import SdpPartitionSolver, SdpRelaxationConfig
from repro.ispd.request import AssignRequest, RequestError, assignment_digest
from repro.ispd.synthetic import generate
from repro.obs import convergence, metrics
from repro.pipeline import prepare
from repro.core.ilp import IlpPartitionSolver
from repro.solver.psd import project_psd, smat, svec
from repro.solver.sdp import ADMMSDPSolver, SDPProblem, SDPSettings
from tests.conftest import tiny_spec
from tests.test_engine import fast_cpla


@pytest.fixture(autouse=True)
def _obs_clean():
    metrics.disable()
    convergence.disable()
    yield
    metrics.disable()
    convergence.disable()


def random_sdp(n: int, seed: int, hard: bool = False) -> SDPProblem:
    """A small random SDP with a trace constraint and box bounds.

    ``hard`` scales the cost so the member needs many more iterations —
    used to force mixed convergence speeds inside one bucket.
    """
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    cost = (raw + raw.T) / 2.0
    if hard:
        cost = cost * 40.0
    sdp = SDPProblem(n=n, cost=cost)
    sdp.add_constraint(np.eye(n), 1.0)
    sdp.add_entry_constraint([(0, 1)], [1.0], 0.05)
    sdp.set_box(-1.0, 1.0)
    return sdp


def block_sdp(sizes, seed: int, extra_rows: int = 0) -> SDPProblem:
    """An SDP whose cost couples only within the given diagonal blocks.

    Constraint rows touch the diagonal only (one of them spans every
    block, like a CPLA capacity row), the box [0, 1] contains 0, so the
    matrix splits exactly into ``sizes``.
    """
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    cost = np.zeros((n, n))
    start = 0
    for size in sizes:
        raw = rng.normal(size=(size, size))
        cost[start:start + size, start:start + size] = (raw + raw.T) / 2.0
        start += size
    sdp = SDPProblem(n=n, cost=cost)
    sdp.add_entry_constraint([(i, i) for i in range(n)], [1.0] * n, 2.0)
    for k in range(extra_rows):
        sdp.add_entry_constraint([(k, k), (n - 1 - k, n - 1 - k)], [1.0, 1.0], 0.5)
    sdp.set_box(0.0, 1.0)
    return sdp


def assert_same(solo, batched):
    for s, b in zip(solo, batched):
        assert s.iterations == b.iterations
        assert s.converged == b.converged
        assert s.primal == b.primal
        assert s.dual == b.dual
        assert np.array_equal(s.z_psd, b.z_psd)


def dense_reference(sdp: SDPProblem, iterations: int) -> np.ndarray:
    """Plain consensus ADMM with a dense eigh of the whole matrix."""
    A, b = sdp.constraint_matrix()
    inv_gram = np.linalg.inv(A @ A.T)
    c = svec(sdp.cost)
    lower, upper = svec(sdp.box_lower), svec(sdp.box_upper)
    c = c / np.linalg.norm(c)
    X = np.zeros_like(c)
    Z = [X.copy(), X.copy(), X.copy()]
    U = [np.zeros_like(c) for _ in range(3)]
    for _ in range(iterations):
        X = sum(z - u for z, u in zip(Z, U)) / 3.0 - c / 3.0
        V = [X + u for u in U]
        Z[0] = svec(project_psd(smat(V[0], sdp.n)))
        Z[1] = V[1] - A.T @ (inv_gram @ (A @ V[1] - b))
        Z[2] = np.clip(V[2], lower, upper)
        U = [v - z for v, z in zip(V, Z)]
    return smat(Z[0], sdp.n)


def fresh_bench():
    return prepare(generate(tiny_spec()))


class TestKernelIdentity:
    def test_stacked_matches_solo_bitwise(self):
        """B=6 lockstep run is bitwise equal to six B=1 runs."""
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-5, max_iterations=800))
        problems = [random_sdp(8, seed, hard=seed % 2 == 0) for seed in range(6)]
        options = solver.admm_options()
        solo = [
            run_admm([solver.prepare_member(p)], options)[0][0]
            for p in problems
        ]
        batched, stats = run_admm(
            [solver.prepare_member(p) for p in problems], options
        )
        assert stats.members == 6
        assert len(batched) == 6
        # Mixed convergence speeds, so freezing actually kicked in.
        assert len({r.iterations for r in solo}) > 1
        for s, b in zip(solo, batched):
            assert s.iterations == b.iterations
            assert s.converged == b.converged
            assert s.primal == b.primal
            assert s.dual == b.dual
            assert np.array_equal(s.z_psd, b.z_psd)

    def test_mixed_constraint_counts_stack_bitwise(self):
        """Members of one order but different constraint counts share a
        call and still match their solo runs bit for bit."""
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-5, max_iterations=600))
        problems = []
        for seed in range(6):
            sdp = random_sdp(8, seed, hard=seed % 2 == 0)
            for _ in range(seed % 3):  # 0, 1, or 2 extra rows
                sdp.add_entry_constraint([(2 + seed % 3, 3)], [1.0], 0.02)
            problems.append(sdp)
        assert len({p.num_constraints for p in problems}) > 1
        options = solver.admm_options()
        solo = [
            run_admm([solver.prepare_member(p)], options)[0][0]
            for p in problems
        ]
        batched, _ = run_admm(
            [solver.prepare_member(p) for p in problems], options
        )
        assert_same(solo, batched)

    def test_freezing_is_observational(self):
        """Early convergers stop paying member-iterations, late ones don't."""
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-5, max_iterations=800))
        members = [
            solver.prepare_member(random_sdp(8, seed, hard=seed % 2 == 0))
            for seed in range(6)
        ]
        results, stats = run_admm(members, solver.admm_options())
        assert stats.iterations == max(r.iterations for r in results)
        assert stats.member_iterations == sum(r.iterations for r in results)
        assert stats.member_iterations < stats.members * stats.iterations
        assert 0.0 < stats.frozen_fraction < 1.0

    def test_mixed_orders_and_blocks_match_solo_bitwise(self):
        """Members of different orders, block structures and constraint
        counts in one call are bitwise equal to their solo runs."""
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-5, max_iterations=800))
        problems = [
            random_sdp(6, 1),
            block_sdp((3, 1, 4), 2),
            random_sdp(9, 3, hard=True),
            block_sdp((1, 1, 2), 4, extra_rows=1),
            block_sdp((5, 2, 2, 1), 5, extra_rows=2),
            random_sdp(4, 6, hard=True),
        ]
        members = [solver.prepare_member(p) for p in problems]
        assert len({m.n for m in members}) > 1
        assert len({tuple(sorted(m.blocks)) for m in members}) > 1
        assert len({m.num_constraints for m in members}) > 1
        options = solver.admm_options()
        solo = [
            run_admm([solver.prepare_member(p)], options)[0][0]
            for p in problems
        ]
        batched, stats = run_admm(members, options)
        assert stats.members == len(problems)
        assert stats.max_order == max(p.n for p in problems)
        assert_same(solo, batched)

    def test_mixed_cascades_rejected(self):
        solver = ADMMSDPSolver(SDPSettings(max_iterations=50))
        boxed = solver.prepare_member(random_sdp(6, 1))
        free = SDPProblem(n=3, cost=np.eye(3))
        with pytest.raises(ValueError, match="cascade"):
            run_admm([boxed, solver.prepare_member(free)], solver.admm_options())

    def test_empty_batch_is_graceful(self):
        results, stats = run_admm([], AdmmOptions())
        assert results == []
        assert stats.members == 0

    def test_scalar_solver_is_the_batch_one_case(self):
        """ADMMSDPSolver.solve is literally the B=1 kernel run."""
        problem = random_sdp(8, 3)
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-5, max_iterations=400))
        direct = solver.solve(random_sdp(8, 3))
        member_results, _ = run_admm(
            [solver.prepare_member(problem)], solver.admm_options()
        )
        via_kernel = solver.finish(problem, member_results[0])
        assert direct.iterations == via_kernel.iterations
        assert np.array_equal(direct.X, via_kernel.X)
        assert direct.objective == via_kernel.objective


class TestBlockSplit:
    def test_three_components_are_exact(self):
        """Cross-block entries stay exactly 0 and the objective matches a
        dense-eigh reference ADMM on the unsplit matrix."""
        sdp = block_sdp((3, 2, 4), 7)
        solver = ADMMSDPSolver(
            SDPSettings(tolerance=1e-7, max_iterations=4000, adaptive_rho=False)
        )
        member = solver.prepare_member(sdp)
        assert sorted(member.blocks) == [2, 3, 4]
        assert member.size == 6 + 3 + 10
        result = solver.solve(sdp)
        assert result.converged
        X = result.X
        inside = np.zeros((9, 9), dtype=bool)
        for lo, hi in ((0, 3), (3, 5), (5, 9)):
            inside[lo:hi, lo:hi] = True
        assert np.all(X[~inside] == 0.0)
        reference = dense_reference(sdp, result.iterations)
        assert abs(np.sum(sdp.cost * reference) - result.objective) < 1e-5
        assert np.abs(reference - X).max() < 1e-4

    def test_warm_start_drops_cross_block_entries(self):
        """A warm X with nonzero cross-block entries is projected onto the
        block pattern: the same as starting from its within-block part."""
        sdp = block_sdp((3, 2, 4), 8)
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-6, max_iterations=2000))
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.0, 0.3, size=(9, 9))
        warm = (raw + raw.T) / 2.0
        member = solver.prepare_member(sdp, warm)
        pattern = np.zeros(member.d)
        pattern[member.keep] = 1.0
        inside = smat(pattern, 9) != 0.0
        masked = np.where(inside, warm, 0.0)
        assert not np.array_equal(masked, warm)
        noisy = solver.solve(sdp, warm_start=warm)
        clean = solver.solve(sdp, warm_start=masked)
        assert noisy.converged
        assert noisy.iterations == clean.iterations
        assert np.array_equal(noisy.X, clean.X)
        assert np.all(noisy.X[~inside] == 0.0)

    def test_dense_random_sdp_is_one_block(self):
        solver = ADMMSDPSolver(SDPSettings(max_iterations=50))
        member = solver.prepare_member(random_sdp(8, 3))
        assert list(member.blocks) == [8]
        assert member.singles.size == 0
        assert member.size == member.d == 36
        assert np.array_equal(np.sort(member.keep), np.arange(36))

    def test_diagonal_only_sdp_is_all_singletons(self):
        sdp = block_sdp((1, 1, 1, 1), 9)
        member = ADMMSDPSolver().prepare_member(sdp)
        assert member.blocks == {}
        assert member.size == 4


class TestEngineIdentity:
    def test_batch_seq_pool_digests_identical(self):
        """The acceptance criterion: one digest across the Jacobi family."""
        digests = {}
        for backend, workers in (("seq", 0), ("batch", 0), ("pool", 2)):
            bench = fresh_bench()
            with CPLAEngine(
                bench, fast_cpla(exec_backend=backend, workers=workers)
            ) as engine:
                engine.run()
            digests[backend] = assignment_digest(bench)
        assert digests["batch"] == digests["seq"] == digests["pool"]

    def test_warm_rerun_digests_identical(self):
        """Back-to-back runs reuse warm starts identically across backends.

        The second run of a resident engine consumes the warm-start store
        the first run populated; batch and seq must walk that store the
        same way (same signatures, same stored iterates) so their second
        digests agree too.
        """
        second = {}
        for backend in ("seq", "batch"):
            bench = fresh_bench()
            with CPLAEngine(bench, fast_cpla(exec_backend=backend)) as engine:
                engine.run()
                first = assignment_digest(bench)
                engine.run()
                second[backend] = (first, assignment_digest(bench))
        assert second["batch"] == second["seq"]

    def test_batch_stats_and_records_surface(self):
        """Scheduler counters, metrics, and BucketRecords all flow out."""
        metrics.enable()
        convergence.enable()
        bench = fresh_bench()
        with CPLAEngine(bench, fast_cpla(exec_backend="batch")) as engine:
            report = engine.run()
        sched = report.scheduler
        assert sched["backend"] == "batch"
        assert sched["bucket_solves"] > 0
        assert sched["members"] > 0
        assert sched["member_iterations"] <= (
            sched["members"] * sched["batched_iterations"]
        )
        assert 0.0 <= sched["frozen_fraction"] <= 1.0
        counters = report.metrics["counters"]
        assert counters["batch.buckets"] > 0
        assert counters["batch.iters"] > 0
        buckets = report.convergence.get("buckets")
        assert buckets, "batch runs must record BucketRecords"
        assert sum(b["members"] for b in buckets) == sched["members"]
        # One kernel call per engine pass: no pass splits its leaves.
        assert sched["bucket_solves"] == len(report.iterations)
        for record in buckets:
            assert record["max_block"] <= record["max_order"]
            assert record["psd_seconds"] > 0.0
            assert record["affine_seconds"] > 0.0
        summary = convergence.summarize(report.convergence)
        assert summary["buckets"]["count"] == sched["bucket_solves"]
        text = convergence.summary_text(summary)
        assert "batch buckets" in text
        assert "affine" in text


class TestValidation:
    def test_config_rejects_batch_with_ilp(self):
        with pytest.raises(ValueError, match="batch"):
            CPLAConfig(method="ilp", exec_backend="batch")

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="exec_backend"):
            CPLAConfig(exec_backend="bogus")

    def test_engine_rejects_method_swapped_to_ilp(self):
        """run_method mutates config.method after construction; the engine
        re-checks at its own init so the mutation cannot sneak batch+ilp
        through."""
        cfg = fast_cpla(exec_backend="batch")
        cfg.method = "ilp"
        with pytest.raises(ValueError, match="batch"):
            CPLAEngine(fresh_bench(), cfg)

    def test_leaf_solver_requires_sdp_partition_solver(self):
        with pytest.raises(ValueError, match="SDP"):
            BatchLeafSolver(IlpPartitionSolver())
        BatchLeafSolver(SdpPartitionSolver(SdpRelaxationConfig()))

    def test_request_rejects_batch_with_non_sdp(self):
        with pytest.raises(RequestError, match="batch"):
            AssignRequest.from_json(
                {"benchmark": "adaptec1", "method": "tila", "exec": "batch"}
            )

    def test_request_accepts_batch_and_keys_signature(self):
        request = AssignRequest.from_json(
            {"benchmark": "adaptec1", "exec": "batch"}
        )
        assert request.exec_backend == "batch"
        assert "exec=batch" in request.signature_key()
        assert request.to_json()["exec"] == "batch"

    def test_cli_rejects_batch_with_ilp(self, capsys):
        rc = main([
            "run", "--benchmark", "adaptec1", "--method", "ilp",
            "--exec", "batch",
        ])
        assert rc == EXIT_USAGE
        assert "--exec batch requires --method sdp" in capsys.readouterr().err
