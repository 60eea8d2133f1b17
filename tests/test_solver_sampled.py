"""Augmented-Lagrangian projected-gradient solver."""

import numpy as np
import pytest

from sampled_ocp import (Box, PiecewiseConstantControl, SolverOptions,
                         build_problem, gradient_check, solve,
                         solve_lq_sampled_exact, uniform_partition)
from sampled_ocp.errors import (MembershipError, SampledOcpError, SolverError)


class TestBasics:
    def test_zero_transfer_is_immediate(self):
        """x0 = xT = 0 with PSD cost: the zero control is feasible and
        optimal, so the solver converges without iterating."""
        prob = build_problem("lq_generic", A=0.0, B=1.0, Q=1.0, R=1.0,
                             x0=[0.0, 0.0], xT=[0.0, 0.0])
        sol = solve(prob, uniform_partition(4, 1.0))
        assert sol.cost == 0.0
        assert sol.diagnostics.feasibility == 0.0
        np.testing.assert_array_equal(sol.control.values, 0.0)
        np.testing.assert_array_equal(sol.costate.costates, 0.0)
        assert sol.p0 == -1.0

    def test_control_values_stay_in_set(self, di6_solutions):
        for sol in di6_solutions.values():
            assert np.all(np.abs(sol.control.values) <= 6.0)

    def test_bad_warm_start_partition(self, di_problem):
        warm = PiecewiseConstantControl(uniform_partition(3, 1.0),
                                        np.zeros((3, 1)))
        with pytest.raises(ValueError):
            solve(di_problem, uniform_partition(4, 1.0), warm_start=warm)

    def test_warm_start_outside_set(self, di_problem):
        warm = PiecewiseConstantControl(uniform_partition(4, 1.0),
                                        np.full((4, 1), 100.0))
        with pytest.raises(MembershipError):
            solve(di_problem, uniform_partition(4, 1.0), warm_start=warm)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(max_outer=0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_inactive_bound(self, di_problem, di_sweep, N):
        _, solutions = di_sweep
        oracle = solve_lq_sampled_exact(di_problem.lq,
                                        uniform_partition(N, 1.0),
                                        di_problem.control_set)
        diff = np.max(np.abs(solutions[N].control.values
                             - oracle.control.values))
        assert diff <= 1e-6

    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_tight_bound(self, di6_problem, di6_solutions, N):
        oracle = solve_lq_sampled_exact(di6_problem.lq,
                                        uniform_partition(N, 1.0),
                                        di6_problem.control_set)
        diff = np.max(np.abs(di6_solutions[N].control.values
                             - oracle.control.values))
        assert diff <= 1e-6

    def test_active_bound_match(self):
        """Genuinely saturated case: both routes clamp identically."""
        prob = build_problem("lq_double_integrator", u_bound=5.0)
        part = uniform_partition(8, 1.0)
        sol = solve(prob, part)
        oracle = solve_lq_sampled_exact(prob.lq, part, prob.control_set)
        assert oracle.control.values[0, 0] == pytest.approx(-5.0, abs=1e-12)
        assert np.max(np.abs(sol.control.values - oracle.control.values)) <= 1e-6


class TestDiagnosticsAndCertificates:
    def test_descent_log_consistent(self, di_sweep):
        """Accepted steps log the augmented objective; the running best
        never increases and the overall trend is descent per outer round."""
        _, solutions = di_sweep
        log = solutions[8].diagnostics.objective_log
        assert len(log) > 0
        by_outer = {}
        for outer, _, phi in log:
            by_outer.setdefault(outer, []).append(phi)
        for outer, phis in by_outer.items():
            best = np.minimum.accumulate(phis)
            assert phis[-1] <= phis[0] + 1e-12
            # nonmonotone window: any overshoot is bounded and temporary
            assert np.all(np.asarray(phis) <= best + 1.0)

    def test_feasibility_and_stationarity_reported(self, di_sweep):
        _, solutions = di_sweep
        for sol in solutions.values():
            assert sol.diagnostics.feasibility <= 1e-8
            assert sol.diagnostics.stationarity <= 1e-8

    def test_feasibility_decreases_across_outer_rounds(self, di_problem):
        sol = solve(di_problem, uniform_partition(4, 1.0))
        log = sol.diagnostics.feasibility_log
        assert len(log) >= 2
        assert all(b < a for a, b in zip(log, log[1:]))

    def test_certificates_attached(self, di_sweep):
        _, solutions = di_sweep
        for sol in solutions.values():
            assert sol.residuals is not None
            assert sol.residuals.ae_residual <= 1e-6
            assert sol.residuals.ahg_sup <= 1e-5

    def test_costate_terminal_matches_multiplier(self, di_sweep):
        """p(T) = -(mu + rho defect): the costate terminal value is the
        negated converged multiplier."""
        _, solutions = di_sweep
        for sol in solutions.values():
            np.testing.assert_allclose(sol.costate.final_costate,
                                       -sol.multiplier, atol=1e-12)


class TestDeterminism:
    def test_bitwise_reproducible(self, di_problem):
        part = uniform_partition(4, 1.0)
        a = solve(di_problem, part)
        b = solve(di_problem, part)
        np.testing.assert_array_equal(a.control.values, b.control.values)
        np.testing.assert_array_equal(a.state.states, b.state.states)
        np.testing.assert_array_equal(a.costate.costates, b.costate.costates)
        assert a.cost == b.cost
        assert a.diagnostics.iterations == b.diagnostics.iterations

    def test_warm_start_determinism(self, di_problem):
        part = uniform_partition(4, 1.0)
        warm = PiecewiseConstantControl(part, np.full((4, 1), 0.5))
        a = solve(di_problem, part, warm_start=warm)
        b = solve(di_problem, part, warm_start=warm)
        np.testing.assert_array_equal(a.control.values, b.control.values)


class TestFailureModes:
    def test_unreachable_target_reported(self):
        """A feeble control bound cannot reach the target: the solver
        flags stalling feasibility or a diverging multiplier instead of
        silently returning an infeasible point."""
        prob = build_problem("lq_double_integrator", u_bound=0.1)
        with pytest.raises(SolverError):
            solve(prob, uniform_partition(4, 1.0),
                  SolverOptions(max_outer=25))

    def test_iteration_budget_respected(self, di_problem):
        from sampled_ocp.errors import MaxIterationsError
        with pytest.raises(MaxIterationsError):
            solve(di_problem, uniform_partition(8, 1.0),
                  SolverOptions(max_outer=1, max_inner=3))


class TestGradientCheck:
    def test_lq_adjoint_gradient(self, di_problem, rng):
        u = PiecewiseConstantControl(uniform_partition(6, 1.0),
                                     rng.uniform(-3, 3, size=(6, 1)))
        err = gradient_check(di_problem, u.partition, u,
                             mu=np.array([1.0, 0.5]), rho=10.0)
        assert err <= 1e-6

    def test_nonlinear_adjoint_gradient_and_decay(self, aq_problem, rng):
        u = PiecewiseConstantControl(uniform_partition(6, 1.0),
                                     rng.uniform(-2, 2, size=(6, 1)))
        errs = [gradient_check(aq_problem, u.partition, u,
                               mu=np.array([0.3, -0.2]), rho=7.0,
                               fd_step=step)
                for step in (1e-3, 5e-4)]
        assert errs[0] <= 1e-4
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_control_independent_problem_zero_gradient(self):
        """f and L independent of u: the adjoint gradient vanishes."""
        from sampled_ocp.problem_model import problem_from_callables
        prob = problem_from_callables(
            f=lambda x, u, t: np.array([x[0]]),
            L=lambda x, u, t: float(x[0] ** 2),
            n=1, m=1, horizon=1.0, x0=[1.0], xT=[np.e],
            control_set=Box([-1.0], [1.0]))
        part = uniform_partition(4, 1.0)
        u = PiecewiseConstantControl(part, np.zeros((4, 1)))
        from sampled_ocp.solver_sampled import _AugmentedObjective
        from sampled_ocp.integrate import build_time_grid
        aug = _AugmentedObjective(prob, part,
                                  build_time_grid(1.0, part, 1.0 / 256))
        traj = aug.forward(u.values)
        g, _, _ = aug.gradient(u.values, traj, np.zeros(1), 0.0)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)
