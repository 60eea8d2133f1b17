"""Augmented-Lagrangian solver with projected quasi-Newton steps, and SQP
steps for warm starts on every control set."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_ocp import (Ball, Box, PiecewiseConstantControl, ProductSet,
                         SolverOptions, build_problem, gradient_check, solve,
                         solve_lq_sampled_exact, uniform_partition)
from sampled_ocp.errors import (InfeasibleStalledError, MembershipError,
                                MultiplierDivergedError, OracleError,
                                SampledOcpError, SolverError,
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

    @pytest.mark.parametrize("limit", ["max_outer", "max_inner"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_non_integer_iteration_limit_refused(self, limit, value):
        """A float limit used to reach `range` inside `solve` and fail
        there with a TypeError."""
        with pytest.raises(ValueError,
                           match=f"{limit} must be an integer >= 1"):
            SolverOptions(**{limit: value})


class TestWarmArguments:
    """Malformed warm-start arguments are refused where they enter,
    before they choose a solve path."""

    def test_warm_start_with_wrong_m(self, di_problem):
        part = uniform_partition(4, 1.0)
        warm = PiecewiseConstantControl(part, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="warm_start"):
            solve(di_problem, part, warm_start=warm)

    def test_warm_start_holding_nan(self, di_problem):
        part = uniform_partition(4, 1.0)
        warm = PiecewiseConstantControl(part, [[0.0], [np.nan], [0.0], [0.0]])
        with pytest.raises(ValueError, match="warm_start"):
            solve(di_problem, part, warm_start=warm)

    def test_multiplier_of_wrong_length(self, di_problem):
        with pytest.raises(ValueError, match="warm_multiplier"):
            solve(di_problem, uniform_partition(4, 1.0),
                  warm_multiplier=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_multiplier(self, di_problem, bad):
        with pytest.raises(ValueError, match="warm_multiplier"):
            solve(di_problem, uniform_partition(4, 1.0),
                  warm_multiplier=[bad, 0.0])


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

    @pytest.mark.parametrize("name, params, N", [
        ("lq_double_integrator", {}, 8),
        ("lq_double_integrator", {}, 64),
        ("affine_quadratic", {}, 32),
        ("lq_generic", {"A": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                              [-1.0, -0.5, -0.2]],
                        "B": [[0.0], [0.5], [1.0]], "x0": [1.0, 0.0, -1.0]},
         16)], ids=["di8", "di64", "aq32", "lq_generic_n3"])
    def test_terminal_jacobian_is_the_adjoint_marches(self, name, params, N):
        """Row j of C read from the one transition march equals, bit for
        bit, the one from the costate march with p0 = 0 and p(T) = e_j."""
        from sampled_ocp.integrate import Linearization
        from sampled_ocp.pmp_check import interval_grad_integrals
        from sampled_ocp.problem_model import project
        from sampled_ocp.solver_sampled import (SolverOptions,
                                                _AugmentedObjective,
                                                _terminal_jacobian,
                                                solver_grid)
        prob = build_problem(name, **params)
        part = uniform_partition(N, prob.horizon)
        aug = _AugmentedObjective(prob, part,
                                  solver_grid(prob, part, SolverOptions()))
        values = project(prob.control_set, np.random.default_rng(N).uniform(
            -1.0, 1.0, size=(N, prob.m)))
        traj, u = aug.forward(values), aug.control(values)
        lin = Linearization(prob, traj, u)
        marches = np.array([
            interval_grad_integrals(prob, traj.grid, traj.states, u,
                                    lin.costate(0.0, e).costates, 0.0).ravel()
            for e in np.eye(prob.n)])
        np.testing.assert_array_equal(_terminal_jacobian(prob, traj, u),
                                      marches)

    def test_terminal_jacobian_marches_once(self, di_problem, monkeypatch):
        """One build of C runs one RK4 march, whatever n is."""
        import sampled_ocp.integrate as integrate_module
        from sampled_ocp.solver_sampled import (_AugmentedObjective,
                                                _terminal_jacobian)
        part = uniform_partition(8, 1.0)
        aug = _AugmentedObjective(di_problem, part,
                                  integrate_module.build_time_grid(1.0, part))
        values = np.zeros((8, 1))
        traj = aug.forward(values)
        calls = []
        march = integrate_module._rk4_march

        def counted(*args, **kwargs):
            calls.append(1)
            return march(*args, **kwargs)

        monkeypatch.setattr(integrate_module, "_rk4_march", counted)
        _terminal_jacobian(di_problem, traj, aug.control(values))
        assert len(calls) == 1

    def test_cold_lq_solve_builds_C_once(self, di_problem, monkeypatch):
        """On LQ data C does not depend on u, so a cold solve builds it
        once, whatever penalties its augmented Lagrangian passes."""
        import sampled_ocp.solver_sampled as solver_module
        calls = []
        build = solver_module._terminal_jacobian

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_terminal_jacobian", counted)
        sol = solve(di_problem, uniform_partition(64, 1.0))
        assert sol.diagnostics.outer_iterations > 1
        assert len(calls) == 1

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
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 12),
           rows=st.booleans())
    def test_model_step_feasible_and_ball_equals_box(self, seed, N, rows):
        """On models B + rho C'C shaped like the solver's (rho = 10, B
        positive definite), the step keeps every control set and, with
        SQP's equality rows C s = r (r = C d for a step d that keeps the
        set, so the QP is feasible), meets them.  Where the box's
        active-set loop settles, a 1-D ball's ADMM step equals that box's
        step (within 1.6e-8 over 540 random models without rows), and
        with rows so does its multiplier wherever the free entries fix
        it.  Over 600 seeded models with rows, ADMM's step left the set
        by at most 1.2e-11 and missed the rows by 2e-15; it stayed within
        3.8e-11 of the box's step and its multiplier within 1.4e-11
        (relative) of the box's.  A QP with rows may be refused with
        `OracleError` (ADMM gave up on 8 of the 1,800 ball and product
        models), which SQP takes as a failed step."""
        from sampled_ocp.problem_model import distance_to
        from sampled_ocp.reference_oracles import _ReducedQp, _solve_box_qp
        from sampled_ocp.solver_sampled import _model_step
        rng = np.random.default_rng(seed)
        center, radius = rng.uniform(-1, 1), rng.uniform(0.1, 5)
        lo, up = np.full(N, center - radius), np.full(N, center + radius)
        sets = [Box([center - radius], [center + radius]),
                Ball([center], radius), Ball([center, 0.0], radius),
                ProductSet((Box([-1.0], [1.0]), Ball([0.0, center], radius)))]
        steps = []
        for U in sets:
            size = N * U.dim
            C = rng.normal(size=(min(2, size), size)) / N
            A = rng.normal(size=(size, size)) * 0.1 / N
            model = np.eye(size) / N + A @ A.T + 10.0 * C.T @ C
            values = U.project(rng.normal(center, radius, size=(N, U.dim)))
            g = rng.normal(size=(N, U.dim)) * 10.0 ** rng.uniform(-3, 1)
            eq = ()
            if rows:
                d = U.project(values + rng.normal(size=values.shape)) - values
                eq = (C, C @ d.ravel())
            try:
                step, nu = _model_step(U, values, g, model, *eq)
            except OracleError:
                assert rows
                steps.append(None)
                continue
            assert step.shape == values.shape
            assert np.max(distance_to(U, values + step)) <= \
                (1e-10 if rows else 1e-12)
            if rows:
                assert np.max(np.abs(C @ step.ravel() - eq[1])) <= 1e-12
            steps.append((values, g, model, eq, step, nu))
        if steps[0] is None:
            return
        # the 1-D ball on the box's model, values, gradient and rows
        values, g, model, eq, box_step, box_nu = steps[0]
        if not rows:
            qp = _ReducedQp.model(model, g.ravel() - model @ values.ravel())
            try:
                _solve_box_qp(qp, lo, up)
            except OracleError:
                return
        try:
            ball_step, ball_nu = _model_step(sets[1], values, g, model, *eq)
        except OracleError:
            assert rows
            return
        assert np.max(np.abs(ball_step - box_step)) <= \
            (1e-9 if rows else 1e-6)
        if rows:
            target = (values + box_step).ravel()
            free = (target > lo + 1e-9) & (target < up - 1e-9)
            if np.linalg.matrix_rank(eq[0][:, free]) == eq[0].shape[0]:
                assert np.max(np.abs(ball_nu - box_nu)) <= \
                    1e-9 * (1.0 + np.max(np.abs(box_nu)))

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
            step, _ = _model_step(Ball([center], radius), values, g, model)
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
    @pytest.mark.parametrize("name, N, counts, params", [
        ("lq_double_integrator", 8, (16, 7), {}),
        ("lq_double_integrator", 64, (14, 7), {}),
        ("lq_double_integrator", 256, (12, 7), {}),
        ("affine_quadratic", 32, (19, 9), {}),
        ("lq_double_integrator", 4, (19, 8),
         {"u_bound": 4.0, "x0": [0.9, 0.0]}),
    ])
    def test_cold_solve_counts_pinned(self, name, N, counts, params):
        """The problems and sizes of perfbench's cold `solve` workload,
        at the catalog's x0 (the bounded one from (0.9, 0)): cold solves
        start rho at PENALTY_INIT, so a warm-start change leaves their
        (inner, outer) counts where they are."""
        prob = build_problem(name, **params)
        diags = solve(prob, uniform_partition(N, prob.horizon)).diagnostics
        assert (diags.iterations, diags.outer_iterations) == counts


class TestWarmSqp:
    """A warm start takes SQP steps on every control set; any SQP failure
    restarts the augmented Lagrangian from the same warm start."""

    def test_cascade_march_budget(self, di_problem, di_reference,
                                  monkeypatch):
        """The double-integrator cascade N = 2..64, on its box and on the
        ball of the same radius, marches the state at most 12 times and
        the costate at most 12 times, and no row takes multiplier rounds.
        SQP from diag(h_i) took 25 and 25, a cold first row 36 and 43,
        and the augmented Lagrangian's multiplier rounds in every row 48
        and 74, on the box and on the ball alike."""
        import sampled_ocp.solver_sampled as solver_module
        from sampled_ocp import SweepConfig, sweep
        calls = {"integrate_state": 0, "integrate_costate": 0}
        for name in calls:
            march = getattr(solver_module, name)

            def counted(*args, _name=name, _march=march, **kwargs):
                calls[_name] += 1
                return _march(*args, **kwargs)

            monkeypatch.setattr(solver_module, name, counted)
        ball = build_problem("lq_double_integrator",
                             control_set=Ball([0.0], 20.0))
        for prob in (di_problem, ball):
            calls.update(integrate_state=0, integrate_costate=0)
            report, solutions = sweep(
                SweepConfig(problem=prob, reference=di_reference,
                            resolutions=(2, 4, 8, 16, 32, 64)),
                return_solutions=True)
            assert report.all_pass()
            assert [s.diagnostics.outer_iterations
                    for s in solutions.values()] == [0] * 6
            assert calls["integrate_state"] <= 12
            assert calls["integrate_costate"] <= 12

    @pytest.mark.parametrize("U", [
        Box([-1.1, -0.6], [1.1, 0.6]), Ball([0.0, 0.0], 1.2),
        ProductSet((Box([-1.0], [1.0]), Ball([0.0], 0.8)))],
        ids=["box", "ball", "product"])
    def test_lq_cascade_one_step_per_row(self, U):
        """An oscillator driven from (1, 0.5) through each set, which the
        reference's control leaves: on LQ data SQP starts from the exact
        sampled Hessian, so every row of the cascade N = 2..16, the first
        from the reference and each later one from its coarser row, takes
        one step and certifies.  From diag(h_i) the ball's rows took 3-5
        steps and the product's 2-4."""
        from sampled_ocp import solve_lq_permanent
        from sampled_ocp.convergence_harness import _cascade
        from sampled_ocp.problem_model import distance_to
        prob = build_problem("lq_generic", A=[[0.0, 1.0], [-1.0, 0.0]],
                             x0=[1.0, 0.5], control_set=U)
        ref = solve_lq_permanent(prob.lq)
        assert np.max(distance_to(U, ref.u.sample(np.linspace(0, 1, 65)))) \
            > 0.1
        rows = list(_cascade(prob, (2, 4, 8, 16), SolverOptions(),
                             reference=ref))
        assert [N for N, _, _ in rows] == [2, 4, 8, 16]
        for _, _, sol in rows:
            diags = sol.diagnostics
            assert (diags.iterations, diags.outer_iterations) == (1, 0)
            assert sol.residuals.all_pass()

    def test_sqp_certificate(self, di_problem):
        """p(T) = -nu exactly, one log entry per accepted step, and the
        certificate passes."""
        coarse = solve(di_problem, uniform_partition(4, 1.0))
        part = uniform_partition(8, 1.0)
        warm = PiecewiseConstantControl(part, np.repeat(coarse.control.values,
                                                        2, axis=0))
        sol = solve(di_problem, part, warm_start=warm,
                    warm_multiplier=coarse.multiplier)
        diags = sol.diagnostics
        np.testing.assert_array_equal(sol.multiplier,
                                      -sol.costate.final_costate)
        assert diags.outer_iterations == 0
        assert diags.iterations == len(diags.objective_log) \
            == len(diags.feasibility_log) >= 1
        assert diags.feasibility <= 1e-8 and diags.stationarity <= 1e-8
        assert sol.residuals.all_pass()

    def test_product_set_warm_solve_takes_sqp(self):
        """An oscillator driven through a box x ball product, warm from
        the N = 4 solution at N = 8: SQP certifies, with p(T) = -nu.  The
        augmented Lagrangian took 11 inner steps over 7 multiplier
        rounds."""
        prob = build_problem("lq_generic", A=[[0.0, 1.0], [-1.0, 0.0]],
                             x0=[1.0, 0.5],
                             control_set=ProductSet((Box([-1.0], [1.0]),
                                                     Ball([0.0], 0.8))))
        coarse = solve(prob, uniform_partition(4, 1.0))
        part = uniform_partition(8, 1.0)
        sol = solve(prob, part, warm_start=PiecewiseConstantControl(
            part, np.repeat(coarse.control.values, 2, axis=0)),
            warm_multiplier=coarse.multiplier)
        assert sol.diagnostics.outer_iterations == 0
        assert sol.diagnostics.iterations >= 1
        np.testing.assert_array_equal(sol.multiplier,
                                      -sol.costate.final_costate)
        assert sol.residuals.all_pass()

    @pytest.mark.parametrize("U", [Ball([0.0], 5.0), Box([-5.0], [5.0])],
                             ids=["ball", "box"])
    def test_rank_deficient_rows_fall_back(self, U):
        """x(T) does not depend on u in its second component, so C has a
        zero row: the ball's Schur complement is singular, and so is the
        box's KKT system.  Each raises `OracleError` inside SQP, not
        `LinAlgError`, and the augmented Lagrangian solves from the same
        warm start on both sets."""
        prob = build_problem("lq_generic", A=0.0, B=[[1.0], [0.0]],
                             x0=[1.0, 0.0], control_set=U)
        part = uniform_partition(4, 1.0)
        sol = solve(prob, part,
                    warm_start=PiecewiseConstantControl(part,
                                                        np.zeros((4, 1))),
                    warm_multiplier=np.zeros(2))
        diags = sol.diagnostics
        assert (diags.iterations, diags.outer_iterations) == (10, 6)
        assert sol.cost == pytest.approx(0.6572764381196, rel=1e-12)
        assert sol.residuals.all_pass()

    def test_unreachable_warm_solve_falls_back(self):
        """No control in [-0.1, 0.1] reaches the target, so the first QP
        is inconsistent; the augmented Lagrangian then stalls as a cold
        solve does."""
        prob = build_problem("lq_double_integrator", u_bound=0.1)
        part = uniform_partition(4, 1.0)
        with pytest.raises(InfeasibleStalledError, match="9.552e-01"):
            solve(prob, part,
                  warm_start=PiecewiseConstantControl(part, np.zeros((4, 1))))

    def test_clamped_corner_takes_sqp(self):
        """From (1, 0) under u_bound=4 at N=8, started at the -4 corner:
        on the exact sampled Hessian the first QP is regular, and SQP
        lands on the one feasible control, the vertex of
        `test_single_vertex_box_certified`, at the exact oracle's cost.
        When the first QP on diag(h_i) was singular, the augmented
        Lagrangian took 19 inner steps in 8 rounds to a point 3.9e-7 off
        the vertex, whose cost 8.858332918624441 was 4.7e-8 below the
        oracle's."""
        prob = build_problem("lq_double_integrator", u_bound=4.0)
        part = uniform_partition(8, 1.0)
        sol = solve(prob, part, warm_start=PiecewiseConstantControl(
            part, np.full((8, 1), -4.0)))
        exact = solve_lq_sampled_exact(prob.lq, part, prob.control_set)
        assert sol.diagnostics.outer_iterations == 0
        np.testing.assert_allclose(sol.control.values, exact.control.values,
                                   rtol=0, atol=1e-9)
        assert sol.cost == pytest.approx(exact.cost, rel=1e-9)
        assert sol.residuals.all_pass()

    def test_stalled_surrogate_link_certifies(self):
        """`affine_quadratic` over horizon 3 from (2.5, 0): warm from
        N=32, the augmented Lagrangian at N=64 ran out of its 50 outer
        rounds at stationarity 1.75; SQP certifies the link."""
        from sampled_ocp.convergence_harness import _cascade
        prob = build_problem("affine_quadratic", horizon=3.0, x0=[2.5, 0.0])
        rows = {N: sol for N, _, sol in _cascade(prob, (16, 32, 64),
                                                 SolverOptions())}
        assert rows[64].residuals.all_pass()


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

    def test_diverging_multiplier_reported(self, di_problem):
        """A cold solve from a multiplier past MULTIPLIER_LIMIT does not
        meet the target in its first round and stops there."""
        with pytest.raises(MultiplierDivergedError, match="1.000e\\+09"):
            solve(di_problem, uniform_partition(4, 1.0),
                  warm_multiplier=[1e9, 0.0])

    def test_diverging_trial_step_backtracks(self, monkeypatch):
        """On x' = x^2 + u from 0 to 3 over one interval, a trial step's
        state march blows up; the line search reads it as an infinite
        objective, backtracks, and the solve certifies."""
        import sampled_ocp.solver_sampled as solver_module
        from sampled_ocp.errors import IntegrationDivergedError
        from sampled_ocp.problem_model import problem_from_callables
        diverged = []
        march = solver_module.integrate_state

        def recorded(*args, **kwargs):
            try:
                return march(*args, **kwargs)
            except IntegrationDivergedError:
                diverged.append(1)
                raise

        monkeypatch.setattr(solver_module, "integrate_state", recorded)
        prob = problem_from_callables(
            lambda x, u, t: np.array([x[0] ** 2 + u[0]]),
            lambda x, u, t: 0.5 * float(u @ u), n=1, m=1, horizon=1.0,
            x0=[0.0], xT=[3.0], control_set=Box([-5.0], [5.0]))
        sol = solve(prob, uniform_partition(1, 1.0))
        assert diverged
        assert sol.residuals.all_pass()

    def test_sqp_hands_off_after_max_inner(self, aq_problem):
        """SQP from the zero control on `affine_quadratic` does not pass
        its tests in one step, so with max_inner = 1 the augmented
        Lagrangian solves from the warm start (SQP reports no outer
        rounds) and certifies."""
        part = uniform_partition(8, aq_problem.horizon)
        sol = solve(aq_problem, part, SolverOptions(max_inner=1),
                    warm_start=PiecewiseConstantControl(
                        part, np.zeros((8, aq_problem.m))))
        assert sol.diagnostics.outer_iterations > 0
        assert sol.residuals.all_pass()


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
