"""Augmented-Lagrangian solver with projected quasi-Newton steps."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_ocp import (Ball, Box, PiecewiseConstantControl, ProductSet,
                         SolverOptions, build_problem, gradient_check, solve,
                         solve_lq_sampled_exact, uniform_partition)
from sampled_ocp.errors import (InfeasibleStalledError, MembershipError,
                                OracleError, SampledOcpError, SolverError,
                                UnreachableTargetError)


@pytest.fixture
def state_marches(monkeypatch):
    """The list that gains one entry per state march of `solve`."""
    import sampled_ocp.solver_sampled as solver_module
    calls = []
    march = solver_module.integrate_state

    def counted(*args, **kwargs):
        calls.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(solver_module, "integrate_state", counted)
    return calls


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
    def test_replaced_endpoint_reaches_the_oracle(self):
        """A problem whose x0 is replaced carries the new x0 into its LQ
        data, so `solve` and the exact oracle solve the same problem."""
        q = dataclasses.replace(build_problem("lq_double_integrator"),
                                x0=[2.0, 0.0])
        part = uniform_partition(4, 1.0)
        sol = solve(q, part, SolverOptions(feas_tol=1e-9))
        exact = solve_lq_sampled_exact(q.lq, part, q.control_set)
        assert sol.cost == pytest.approx(exact.cost, rel=1e-7)

    def test_list_of_times_refused(self, di_problem):
        """Sampling times must come as a `Partition`."""
        with pytest.raises(TypeError, match="Partition"):
            solve(di_problem, [0.0, 0.5, 1.0])

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

    def test_all_clamped_vertex(self):
        """From (1, 0) with u_bound=4 at N=4 the optimum clamps every
        entry and meets the terminal equality exactly."""
        prob = build_problem("lq_double_integrator", u_bound=4.0)
        part = uniform_partition(4, 1.0)
        sol = solve(prob, part)
        oracle = solve_lq_sampled_exact(prob.lq, part, prob.control_set)
        np.testing.assert_array_equal(oracle.control.values.ravel(),
                                      [-4.0, -4.0, 4.0, 4.0])
        assert np.max(np.abs(sol.control.values - oracle.control.values)) <= 1e-6

    def test_one_dimensional_ball_equals_box(self):
        """A ball in one dimension is an interval: the solve over
        Ball([0], 1.15) takes its model steps by ADMM and must land on
        the exact optimum over the box [-1.15, 1.15], which clamps the
        first hold of this scalar transfer."""
        from sampled_ocp import Ball
        prob = build_problem("lq_generic", A=0.0, B=1.0, Q=1.0, R=1.0,
                             x0=[1.0], xT=[0.0],
                             control_set=Ball([0.0], 1.15))
        part = uniform_partition(3, 1.0)
        sol = solve(prob, part)
        oracle = solve_lq_sampled_exact(prob.lq, part, Box([-1.15], [1.15]))
        assert oracle.control.values[0, 0] == -1.15
        assert np.max(np.abs(sol.control.values - oracle.control.values)) <= 1e-6


class TestQuasiNewtonStep:
    @pytest.mark.parametrize("N", [4, 32, 256])
    def test_sensitivities_equal_exact_zoh_jacobian(self, N):
        """C = dx(T)/du from the adjoint marches equals the exact
        zero-order-hold Jacobian of the condensed QP.  The damped
        oscillator keeps RK4 and Simpson inexact, so a wrong C shows."""
        from sampled_ocp.integrate import build_time_grid
        from sampled_ocp.reference_oracles import _ReducedQp
        from sampled_ocp.solver_sampled import (SOLVER_STEP_DIVISOR,
                                                _AugmentedObjective,
                                                _terminal_jacobian)
        prob = build_problem("lq_generic", A=[[0.0, 1.0], [-2.0, -0.3]],
                             B=[[0.0], [1.0]], x0=[1.0, 0.0])
        part = uniform_partition(N, 1.0)
        grid = build_time_grid(1.0, part, 1.0 / SOLVER_STEP_DIVISOR)
        aug = _AugmentedObjective(prob, part, grid)
        values = np.random.default_rng(N).uniform(-2, 2, size=(N, 1))
        C = _terminal_jacobian(prob, aug.forward(values), aug.control(values))
        exact = _ReducedQp(prob.lq, part).A_eq
        assert np.linalg.norm(C - exact) <= 1e-10 * np.linalg.norm(exact)

    @pytest.mark.parametrize("N", [8, 64])
    def test_cold_solve_state_march_budget(self, di_problem, monkeypatch, N):
        """A cold double-integrator solve marches the state at most 40
        times (the projected-gradient solver took 131 at N=64).  Near the
        optimum at N=8 the predicted decreases reach the rounding level
        of the objective; without the line search's rounding floor the
        solve backtracks through hundreds of marches there, which
        max_inner=30 (never reached otherwise) keeps to seconds."""
        import sampled_ocp.solver_sampled as solver_module
        calls = []
        march = solver_module.integrate_state

        def counted(*args, **kwargs):
            calls.append(1)
            return march(*args, **kwargs)

        monkeypatch.setattr(solver_module, "integrate_state", counted)
        sol = solve(di_problem, uniform_partition(N, 1.0),
                    SolverOptions(max_inner=30))
        assert sol.residuals.all_pass()
        assert len(calls) <= 40


def _unreachable_off_box(kind):
    """A double integrator that no control in a ball of radius 0.1 can
    steer to the origin, or two integrators driven from (0.1, 1) through
    a box x ball product whose ball factor cannot empty the second."""
    if kind == "ball":
        return build_problem("lq_double_integrator",
                             control_set=Ball([0.0], 0.1))
    return build_problem("lq_generic", A=0.0, x0=[0.1, 1.0],
                         control_set=ProductSet((Box([-0.2], [0.2]),
                                                 Ball([0.0], 0.1))))


class TestOffBox:
    """Balls and products take the same model steps as boxes; the model
    is minimized over them by ADMM."""

    def test_cold_ball_solve_march_budget(self, state_marches):
        """Ball([0], 4) is the interval [-4, 4], active on the first
        hold from (0.9, 0): a cold solve at N=16 lands on the box
        oracle's optimum within 40 state marches (the spectral projected
        gradient took 537)."""
        prob = build_problem("lq_double_integrator", x0=[0.9, 0.0],
                             control_set=Ball([0.0], 4.0))
        part = uniform_partition(16, 1.0)
        sol = solve(prob, part)
        oracle = solve_lq_sampled_exact(prob.lq, part, Box([-4.0], [4.0]))
        assert oracle.control.values[0, 0] == -4.0
        assert sol.residuals.all_pass()
        assert len(state_marches) <= 40
        assert np.max(np.abs(sol.control.values
                             - oracle.control.values)) <= 1e-6

    @pytest.mark.parametrize("kind, N", [("ball", 64), ("product", 8)])
    def test_unreachable_target_stalls(self, state_marches, kind, N):
        with pytest.raises(InfeasibleStalledError):
            solve(_unreachable_off_box(kind), uniform_partition(N, 1.0))
        assert len(state_marches) <= 40

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 12))
    def test_model_step_feasible_and_ball_equals_box(self, seed, N):
        """On models B + rho C'C shaped like the solver's (rho = 10, B
        positive definite), the step keeps every control set; where the
        box's active-set loop settles, a 1-D ball's ADMM step equals
        that box's step (within 1.6e-8 over 540 random models)."""
        from sampled_ocp.problem_model import distance_to
        from sampled_ocp.reference_oracles import _ReducedQp, _solve_box_qp
        from sampled_ocp.solver_sampled import _model_step
        rng = np.random.default_rng(seed)
        center, radius = rng.uniform(-1, 1), rng.uniform(0.1, 5)
        sets = [Box([center - radius], [center + radius]),
                Ball([center], radius), Ball([center, 0.0], radius),
                ProductSet((Box([-1.0], [1.0]), Ball([0.0, center], radius)))]
        steps = []
        for U in sets:
            size = N * U.dim
            C = rng.normal(size=(2, size)) / N
            A = rng.normal(size=(size, size)) * 0.1 / N
            model = np.eye(size) / N + A @ A.T + 10.0 * C.T @ C
            values = U.project(rng.normal(center, radius, size=(N, U.dim)))
            g = rng.normal(size=(N, U.dim)) * 10.0 ** rng.uniform(-3, 1)
            step = _model_step(U, values, g, model)
            assert step.shape == values.shape
            assert np.max(distance_to(U, values + step)) <= 1e-12
            steps.append((values, g, model, step))
        # the 1-D ball on the box's model, values and gradient
        values, g, model, box_step = steps[0]
        qp = _ReducedQp.model(model, g.ravel() - model @ values.ravel())
        try:
            _solve_box_qp(qp, np.full(N, center - radius),
                          np.full(N, center + radius))
        except OracleError:
            return
        ball_step = _model_step(sets[1], values, g, model)
        assert np.max(np.abs(ball_step - box_step)) <= 1e-6

    @pytest.mark.parametrize("rho", [10.0, 900.0])
    def test_ball_step_equals_exact_box_step(self, rho):
        """On seeded models B + rho C'C, a 1-D ball's ADMM step stays
        within 1e-8 of the equivalent box's exact step wherever the box's
        active-set loop settles.  With sigma fixed, 400 iterations left
        steps 3.3e-4 off at rho = 900."""
        from sampled_ocp.reference_oracles import _ReducedQp, _solve_box_qp
        from sampled_ocp.solver_sampled import _model_step
        worst, settled = 0.0, 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            N = int(rng.integers(1, 13))
            center, radius = rng.uniform(-1, 1), rng.uniform(0.1, 5)
            C = rng.normal(size=(2, N)) / N
            A = rng.normal(size=(N, N)) * 0.1 / N
            model = np.eye(N) / N + A @ A.T + rho * C.T @ C
            values = np.clip(rng.normal(center, radius, size=(N, 1)),
                             center - radius, center + radius)
            g = rng.normal(size=(N, 1)) * 10.0 ** rng.uniform(-3, 1)
            qp = _ReducedQp.model(model, g.ravel() - model @ values.ravel())
            try:
                target, _, _ = _solve_box_qp(qp, np.full(N, center - radius),
                                             np.full(N, center + radius))
            except OracleError:
                continue
            settled += 1
            step = _model_step(Ball([center], radius), values, g, model)
            worst = max(worst, float(np.max(np.abs(
                step.ravel() - (target - values.ravel())))))
        assert settled >= 50
        assert worst <= 1e-8


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

    @pytest.mark.parametrize("name, params, N", [
        ("lq_double_integrator", {}, 8),
        ("lq_double_integrator", {}, 64),
        ("lq_double_integrator", {}, 256),
        ("affine_quadratic", {}, 32),
        ("lq_double_integrator", {"u_bound": 4.0, "x0": [0.9, 0.0]}, 4)],
        ids=["di8", "di64", "di256", "aq32", "bounded4"])
    def test_certificate_is_the_stop_test(self, name, params, N):
        """ahg reads the interval integrals and the projection of the
        solver's stop test, and ae the costate march's own right-hand
        side, so a solve is certified by the one pass gate: on the five
        cold solves of the benchmark's `solve` workload ahg_sup is the
        reported stationarity bit for bit and ae is 0.0."""
        prob = build_problem(name, **params)
        sol = solve(prob, uniform_partition(N, prob.horizon))
        assert sol.residuals.ahg_sup == sol.diagnostics.stationarity
        assert sol.residuals.ae_residual == 0.0
        assert sol.residuals.all_pass()

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


class TestWarmPenalty:
    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_is_refused(self, di_problem, rho):
        with pytest.raises(ValueError, match="warm penalty"):
            solve(di_problem, uniform_partition(2, 1.0), warm_penalty=rho)

    @pytest.mark.parametrize("name, N, counts, rho, params", [
        ("lq_double_integrator", 8, (16, 7), 1e3, {}),
        ("lq_double_integrator", 64, (14, 7), 1e3, {}),
        ("lq_double_integrator", 256, (12, 7), 1e3, {}),
        ("affine_quadratic", 32, (19, 9), 1e2, {}),
        ("lq_double_integrator", 4, (19, 8), 1e4,
         {"u_bound": 4.0, "x0": [0.9, 0.0]}),
    ])
    def test_cold_solve_counts_pinned(self, name, N, counts, rho, params):
        """The problems and sizes of perfbench's cold `solve` workload,
        at the catalog's x0 (the bounded one from (0.9, 0)): cold solves
        start rho at PENALTY_INIT, so a warm-start change leaves their
        (inner, outer) counts and certifying penalties where they are."""
        prob = build_problem(name, **params)
        diags = solve(prob, uniform_partition(N, prob.horizon)).diagnostics
        assert (diags.iterations, diags.outer_iterations) == counts
        assert diags.penalty == rho


class TestFailureModes:
    def test_unreachable_target_reported(self):
        """A feeble control bound cannot reach the target: the solver
        flags stalling feasibility or a diverging multiplier instead of
        silently returning an infeasible point."""
        prob = build_problem("lq_double_integrator", u_bound=0.1)
        with pytest.raises(SolverError):
            solve(prob, uniform_partition(4, 1.0),
                  SolverOptions(max_outer=25))

    def test_three_interval_bound_is_unreachable(self):
        """From (0.9, 0) with u_bound=4 at N=3 no control in the box
        reaches the origin: the least terminal defect over the box is
        9.94e-3.  The exact oracle's KKT system is singular there, and
        the solver stalls at that defect."""
        from scipy.optimize import lsq_linear
        from sampled_ocp.reference_oracles import _ReducedQp
        prob = build_problem("lq_double_integrator", u_bound=4.0,
                             x0=[0.9, 0.0])
        part = uniform_partition(3, 1.0)
        qp = _ReducedQp(prob.lq, part)
        least = lsq_linear(qp.A_eq, qp.b_eq, bounds=(-4.0, 4.0),
                           method="bvls", tol=1e-14)
        defect = np.linalg.norm(qp.A_eq @ least.x - qp.b_eq)
        assert defect == pytest.approx(9.938e-3, rel=1e-3)
        with pytest.raises(UnreachableTargetError):
            solve_lq_sampled_exact(prob.lq, part, prob.control_set)
        with pytest.raises(InfeasibleStalledError, match="9.938e-03"):
            solve(prob, part)

    def test_rounding_level_steps_end_the_round(self, state_marches):
        """Here the predicted decrease sits just above the rounding level
        of the objective, where an Armijo test without the rounding
        floor compares rounding errors: it backtracked about 32 times
        per step, for 2,018 inner iterations and about 65,800 state
        marches.  An accepted step that changes the objective by no more
        than the floor ends the round instead."""
        prob = build_problem("lq_double_integrator",
                             horizon=3.004538361588751,
                             xT=[2.00001, -7.036626451553446e-84])
        sol = solve(prob, uniform_partition(2, prob.horizon),
                    SolverOptions(feas_tol=1e-9, h_max=0.2))
        assert sol.residuals.all_pass()
        assert sol.diagnostics.iterations <= 50
        assert len(state_marches) <= 60

    def test_iteration_budget_respected(self, di_problem):
        from sampled_ocp.errors import MaxIterationsError
        with pytest.raises(MaxIterationsError):
            solve(di_problem, uniform_partition(8, 1.0),
                  SolverOptions(max_outer=1, max_inner=3))


class TestGradientCheck:
    @pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, di_problem, step):
        u = PiecewiseConstantControl(uniform_partition(2, 1.0),
                                     np.zeros((2, 1)))
        with pytest.raises(ValueError, match="fd_step"):
            gradient_check(di_problem, u.partition, u, mu=np.zeros(2),
                           rho=1.0, fd_step=step)

    def test_lq_adjoint_gradient(self, di_problem, rng):
        u = PiecewiseConstantControl(uniform_partition(6, 1.0),
                                     rng.uniform(-3, 3, size=(6, 1)))
        err = gradient_check(di_problem, u.partition, u,
                             mu=np.array([1.0, 0.5]), rho=10.0)
        assert err <= 1e-6

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 6))
    def test_lq_adjoint_gradient_property(self, seed, N):
        """Criterion 7's LQ bound holds on random interior controls,
        multipliers and penalties, not only on the criterion's own."""
        prob = build_problem("lq_double_integrator")
        rng = np.random.default_rng(seed)
        part = uniform_partition(N, 1.0)
        u = PiecewiseConstantControl(part, rng.uniform(-5, 5, size=(N, 1)))
        err = gradient_check(prob, part, u, mu=rng.normal(scale=5.0, size=2),
                             rho=float(rng.uniform(0.1, 100.0)))
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
