"""Tests for the consensus-ADMM SDP solver against closed-form optima."""

import numpy as np
import pytest

from repro.solver.sdp import ADMMSDPSolver, SDPProblem, SDPSettings


def solver(tol=1e-5, iters=4000):
    return ADMMSDPSolver(SDPSettings(tolerance=tol, max_iterations=iters))


class TestClosedForm:
    def test_min_eigenvalue_problem(self):
        """min <C,X> s.t. tr(X)=1, X PSD  ==  lambda_min(C)."""
        rng = np.random.default_rng(42)
        a = rng.normal(size=(5, 5))
        c = (a + a.T) / 2
        p = SDPProblem(n=5, cost=c)
        p.add_entry_constraint([(i, i) for i in range(5)], [1.0] * 5, 1.0)
        res = solver().solve(p)
        assert res.converged
        assert res.objective == pytest.approx(np.linalg.eigvalsh(c)[0], abs=1e-2)
        assert res.max_constraint_violation < 1e-3

    def test_diagonal_cost_selects_cheapest(self):
        """With a diagonal cost, all trace mass goes to the cheapest entry."""
        c = np.diag([3.0, 1.0, 2.0])
        p = SDPProblem(n=3, cost=c)
        p.add_entry_constraint([(i, i) for i in range(3)], [1.0] * 3, 1.0)
        res = solver().solve(p)
        assert res.X[1, 1] == pytest.approx(1.0, abs=1e-2)
        assert res.objective == pytest.approx(1.0, abs=1e-2)

    def test_box_binds(self):
        """min tr(X) s.t. tr(X) = 2, 0 <= X <= 0.5 -> uniform diagonal."""
        p = SDPProblem(n=4, cost=np.eye(4))
        p.add_entry_constraint([(i, i) for i in range(4)], [1.0] * 4, 2.0)
        p.set_box(0.0, 0.5)
        res = solver().solve(p)
        assert np.allclose(np.diag(res.X), 0.5, atol=1e-2)

    def test_off_diagonal_objective(self):
        """Minimizing an off-diagonal entry with unit diagonal drives the
        matrix to the rank-one [-1] correlation."""
        c = np.zeros((2, 2))
        c[0, 1] = c[1, 0] = 1.0
        p = SDPProblem(n=2, cost=c)
        p.add_entry_constraint([(0, 0)], [1.0], 1.0)
        p.add_entry_constraint([(1, 1)], [1.0], 1.0)
        res = solver().solve(p)
        # <C, X> = 2 X01; PSD with unit diagonal bounds X01 >= -1.
        assert res.objective == pytest.approx(-2.0, abs=2e-2)

    def test_psd_cone_respected(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        c = (a + a.T) / 2
        p = SDPProblem(n=6, cost=c)
        p.add_entry_constraint([(i, i) for i in range(6)], [1.0] * 6, 1.0)
        res = solver().solve(p)
        assert np.linalg.eigvalsh(res.X)[0] >= -1e-7


class TestProblemConstruction:
    def test_asymmetric_cost_rejected(self):
        c = np.zeros((2, 2))
        c[0, 1] = 1.0
        with pytest.raises(ValueError):
            SDPProblem(n=2, cost=c)

    def test_entry_constraint_alignment(self):
        p = SDPProblem(n=3)
        with pytest.raises(ValueError):
            p.add_entry_constraint([(0, 0)], [1.0, 2.0], 1.0)

    def test_violation_measure(self):
        p = SDPProblem(n=2)
        p.add_entry_constraint([(0, 0)], [1.0], 1.0)
        x = np.zeros((2, 2))
        assert p.violation(x) == pytest.approx(1.0)

    def test_full_matrix_constraint(self):
        p = SDPProblem(n=3, cost=np.eye(3))
        p.add_constraint(np.eye(3), 1.0)
        res = solver().solve(p)
        assert np.trace(res.X) == pytest.approx(1.0, abs=1e-3)

    def test_set_entry_bounds(self):
        p = SDPProblem(n=2, cost=-np.eye(2))
        p.add_entry_constraint([(0, 0), (1, 1)], [1.0, 1.0], 1.5)
        p.set_box(0.0, 1.0)
        p.set_entry_bounds(0, 0, 0.0, 0.6)
        res = solver().solve(p)
        assert res.X[0, 0] <= 0.6 + 1e-6


class TestWarmStart:
    def test_warm_start_reaches_same_optimum(self):
        # (ADMM warm starts are not guaranteed fewer iterations — the dual
        # variables restart — so only the solution quality is asserted.)
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        c = (a + a.T) / 2
        p = SDPProblem(n=6, cost=c)
        p.add_entry_constraint([(i, i) for i in range(6)], [1.0] * 6, 1.0)
        cold = solver().solve(p)
        warm = solver().solve(p, warm_start=cold.X)
        assert warm.converged
        assert warm.objective == pytest.approx(cold.objective, abs=1e-2)


class TestSettings:
    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError):
            SDPSettings(rho=0.0)
        with pytest.raises(ValueError):
            SDPSettings(max_iterations=0)

    @pytest.mark.parametrize("bad", [
        {"check_every": 0},
        {"check_every": -5},
        {"tolerance": float("nan")},
        {"tolerance": 0.0},
        {"rho": float("nan")},
        {"rho": -1.0},
    ])
    def test_settings_the_kernel_cannot_run_rejected(self, bad):
        # check_every=0 used to divide by zero inside the kernel, and a NaN
        # tolerance ran every solve to the cap unconverged.
        with pytest.raises(ValueError):
            SDPSettings(**bad)

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(8, 8))
        c = (a + a.T) / 2
        p = SDPProblem(n=8, cost=c)
        p.add_entry_constraint([(i, i) for i in range(8)], [1.0] * 8, 1.0)
        res = ADMMSDPSolver(SDPSettings(max_iterations=3, tolerance=1e-12)).solve(p)
        assert not res.converged
        assert res.iterations == 3
