"""Exact LQ references: Hamiltonian shooting, exact hold discretization,
condensed QP with bounds, and the fine-partition surrogate."""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from sampled_ocp import (Box, LqProblemData, build_problem,
                         solve_lq_permanent, solve_lq_sampled_exact,
                         uniform_partition)
from sampled_ocp.errors import SurrogateRejectedError, UnreachableTargetError
from sampled_ocp.convergence_harness import fine_surrogate
from sampled_ocp.reference_oracles import (_ReducedQp, _solve_box_qp,
                                           _zoh_blocks)


def _scalar_transfer():
    return LqProblemData(A=[[0.0]], B=[[1.0]], Q=[[0.0]], R=[[1.0]],
                         horizon=1.0, x0=[0.0], xT=[1.0])


def _min_energy_double_integrator():
    return LqProblemData(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                         Q=np.zeros((2, 2)), R=[[1.0]], horizon=1.0,
                         x0=[1.0, 0.0], xT=[0.0, 0.0])


def _unstable_hamiltonian():
    """A well-posed 3-state instance whose Hamiltonian matrix has an
    eigenvalue near 5.4."""
    return LqProblemData(
        A=[[-0.127, 0.433, 0.172], [0.284, -0.523, -0.104],
           [0.627, 1.195, -1.007]],
        B=[[1.514, 1.346], [0.781, 0.264], [-0.314, 1.458]],
        Q=[[8.818, -1.482, -0.515], [-1.482, 1.588, 1.79],
           [-0.515, 1.79, 2.247]],
        R=1.176 * np.eye(2), horizon=2.491, x0=[-1.184, -0.662, -0.436],
        xT=[-1.17, 1.739, -0.496])


class TestPermanentLq:
    def test_scalar_minimum_energy_transfer(self):
        """Moving one unit in unit time with integrator dynamics: the
        constant unit control, unit costate, and cost one half."""
        ref = solve_lq_permanent(_scalar_transfer())
        ts = np.linspace(0, 1, 7)
        for t in ts:
            assert ref.u.at(t)[0] == pytest.approx(1.0, abs=1e-12)
            assert ref.p.at(t)[0] == pytest.approx(1.0, abs=1e-12)
        assert ref.cost == pytest.approx(0.5, abs=1e-12)

    def test_overflowing_path_is_unreachable(self):
        """x' = x + u from x0 = 1e12 over T = 700: the shooting matrix is
        well conditioned, but e^700 x0 overflows the path; that is an
        unreachable target, not a cost and path of inf and NaN."""
        data = LqProblemData([[1.0]], [[1.0]], [[0.0]], [[1.0]], 700.0,
                             [1e12], [0.0])
        with pytest.raises(UnreachableTargetError, match="not finite"):
            solve_lq_permanent(data)

    def test_overflowing_horizon_is_unreachable(self):
        """Over a finite horizon of 1e308 the shooting map's exponential
        overflows; that is an unreachable target, not a failed SVD."""
        data = build_problem("lq_double_integrator", horizon=1e308).lq
        with pytest.raises(UnreachableTargetError):
            solve_lq_permanent(data)

    def test_zero_transfer_flags_zero_costate(self):
        data = LqProblemData(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                             horizon=1.0, x0=[0.0], xT=[0.0])
        ref = solve_lq_permanent(data)
        assert ref.cost == pytest.approx(0.0, abs=1e-14)
        assert np.linalg.norm(ref.p.at(0.5)) == pytest.approx(0.0, abs=1e-14)
        assert ref.p0 == -1.0
        assert any("p0" in note for note in ref.notes)

    def test_min_energy_against_gramian_formula(self):
        """Independent route: u*(t) = B' e^{A'(T-t)} G^{-1} (xT - e^{AT} x0)
        with the finite-horizon controllability Gramian G, evaluated by
        dense quadrature.  The classic closed form here is -6 + 12 t."""
        data = _min_energy_double_integrator()
        ref = solve_lq_permanent(data)
        A, B = np.asarray(data.A), np.asarray(data.B)
        ts = np.linspace(0, 1, 20001)
        integrand = np.array([
            (expm(A * (1.0 - s)) @ B) @ (expm(A * (1.0 - s)) @ B).T
            for s in ts])
        G = np.trapezoid(integrand, ts, axis=0)
        eta = np.linalg.solve(G, data.xT - expm(A * 1.0) @ data.x0)
        for t in (0.0, 0.25, 0.6, 1.0):
            u_gram = float((B.T @ expm(A.T * (1.0 - t)) @ eta)[0])
            assert ref.u.at(t)[0] == pytest.approx(u_gram, abs=1e-7)
        assert ref.u.at(0.0)[0] == pytest.approx(-6.0, abs=1e-9)
        assert ref.u.at(1.0)[0] == pytest.approx(6.0, abs=1e-9)

    def test_interior_gradient_zero_along_path(self, di_reference, di_problem):
        """grad_u H = B'p - R u* vanishes along the reference."""
        R = di_problem.lq.R
        B = di_problem.lq.B
        for t in np.linspace(0, 1, 33):
            gu = B.T @ di_reference.p.at(t) - R @ di_reference.u.at(t)
            assert np.linalg.norm(gu) <= 1e-8

    def test_adjoint_equation_residual(self, di_reference, di_problem):
        """The reference costate satisfies the adjoint equation: finite
        differences of p match -A'p + Qx to high order."""
        A, Q = di_problem.lq.A, di_problem.lq.Q
        ts = np.linspace(0.1, 0.9, 9)
        h = 1e-5
        for t in ts:
            dp = (di_reference.p.at(t + h) - di_reference.p.at(t - h)) / (2 * h)
            rhs = -A.T @ di_reference.p.at(t) + Q @ di_reference.x.at(t)
            assert np.linalg.norm(dp - rhs) <= 1e-6

    def test_unstable_hamiltonian_instance(self):
        """A well-posed 3-state instance whose Hamiltonian matrix has an
        eigenvalue near 5.4: the boundary-identity cost agrees with a
        Gauss-Legendre quadrature of the running cost along
        expm(M t) z0, with z0 read from the reference at t = 0."""
        data = _unstable_hamiltonian()
        ref = solve_lq_permanent(data)
        n = data.n
        Rinv_Bt = np.linalg.solve(data.R, data.B.T)
        M = np.block([[data.A, data.B @ Rinv_Bt], [data.Q, -data.A.T]])
        z0 = np.concatenate([ref.x.at(0.0), ref.p.at(0.0)])
        nodes, weights = np.polynomial.legendre.leggauss(128)
        total = 0.0
        for t, w in zip(0.5 * data.horizon * (nodes + 1.0), weights):
            z = expm(M * t) @ z0
            u = Rinv_Bt @ z[n:]
            total += w * 0.5 * (z[:n] @ data.Q @ z[:n] + u @ data.R @ u)
        assert ref.cost == pytest.approx(0.5 * data.horizon * total,
                                         rel=1e-9, abs=0.0)

    def test_dense_path_reaches_target(self):
        """The dense state path ends on the target: each node comes from
        its own exponential, so no rounding compounds along the unstable
        mode (a chain of step products missed x_T by 4.1e-8)."""
        data = _unstable_hamiltonian()
        ref = solve_lq_permanent(data)
        assert np.linalg.norm(ref.x.at(data.horizon) - data.xT) <= 1e-9

    def test_catalog_cost_to_high_precision(self):
        """The catalog double integrator's optimal cost, computed with
        mpmath at 40 digits both from the boundary identity and by
        adaptive quadrature of the running cost."""
        ref = solve_lq_permanent(build_problem("lq_double_integrator").lq)
        assert ref.cost == pytest.approx(6.7846731090735585513, rel=1e-15,
                                         abs=0.0)

    def test_unreachable_detected(self):
        # B = 0 on the moved coordinate: shooting matrix singular
        data = LqProblemData(A=np.zeros((2, 2)), B=[[1.0], [0.0]],
                             Q=np.eye(2), R=[[1.0]], horizon=1.0,
                             x0=[0.0, 0.0], xT=[0.0, 1.0])
        with pytest.raises(UnreachableTargetError):
            solve_lq_permanent(data)


class TestZohBlocks:
    def test_cost_matrix_against_quadrature(self, rng):
        """The block-exponential interval cost matrix equals the dense
        quadrature of e^{Abar' s} Qbar e^{Abar s} on random instances."""
        for _ in range(5):
            n, m = 2, 1
            A = rng.normal(size=(n, n)) * 0.8
            B = rng.normal(size=(n, m))
            Qh = rng.normal(size=(n, n))
            Q = Qh @ Qh.T
            R = np.array([[float(rng.uniform(0.5, 2.0))]])
            data = LqProblemData(A, B, Q, R, 1.0, np.zeros(n), np.zeros(n))
            h = float(rng.uniform(0.1, 0.5))
            E, F, S = _zoh_blocks(data, h)
            q = n + m
            Abar = np.zeros((q, q))
            Abar[:n, :n] = A
            Abar[:n, n:] = B
            Qbar = np.zeros((q, q))
            Qbar[:n, :n] = Q
            Qbar[n:, n:] = R
            from scipy.integrate import simpson
            ts = np.linspace(0, h, 2001)
            vals = np.array([expm(Abar.T * s) @ Qbar @ expm(Abar * s)
                             for s in ts])
            S_quad = simpson(vals, x=ts, axis=0)
            np.testing.assert_allclose(S, S_quad, atol=1e-10)
            np.testing.assert_allclose(E, expm(A * h), atol=1e-13)

    def test_step_map_matches_direct_integral(self):
        data = _min_energy_double_integrator()
        E, F, _ = _zoh_blocks(data, 0.25)
        np.testing.assert_allclose(E, [[1.0, 0.25], [0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(F, [[0.03125], [0.25]], atol=1e-14)


class TestSampledExact:
    def test_single_interval_transfer(self):
        sol = solve_lq_sampled_exact(_scalar_transfer(), uniform_partition(1, 1.0))
        assert sol.control.values[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert sol.cost == pytest.approx(0.5, abs=1e-13)

    def test_two_interval_double_integrator_closed_form(self):
        """With two equal holds the terminal equalities force u1 = -u0 and
        1 + 0.25 u0 = 0, so u = (-4, 4); derived by hand from the exact
        step maps."""
        prob = build_problem("lq_double_integrator")
        sol = solve_lq_sampled_exact(prob.lq, uniform_partition(2, 1.0),
                                     prob.control_set)
        np.testing.assert_allclose(sol.control.values.ravel(), [-4.0, 4.0],
                                   atol=1e-10)

    def test_refinement_cost_monotone_toward_permanent(self, di_problem,
                                                       di_reference):
        costs = []
        for N in (2, 4, 8, 16, 32, 64):
            sol = solve_lq_sampled_exact(di_problem.lq,
                                         uniform_partition(N, 1.0),
                                         di_problem.control_set)
            costs.append(sol.cost)
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        assert all(c >= di_reference.cost - 1e-12 for c in costs)
        assert costs[-1] - di_reference.cost < 0.01 * (costs[0] - di_reference.cost)

    def test_oracle_certificate_quadrature_level(self, lq8_oracle_report):
        assert lq8_oracle_report.ahg_sup <= 1e-8
        assert lq8_oracle_report.ae_residual <= 1e-8

    def test_active_set_against_brute_enumeration(self, rng):
        """Small bounded instances: the active-set result equals
        exhaustive enumeration over all clamp patterns.  At u_bound=5 the
        optimum is interior; from (0.9, 0) with u_bound=4 two to four
        entries are clamped."""
        for bound, x0, N in [(5.0, None, 2), (5.0, None, 3), (5.0, None, 4),
                             (4.0, [0.9, 0.0], 4), (4.0, [0.9, 0.0], 5),
                             (4.0, [0.9, 0.0], 6), (4.0, [0.9, 0.0], 7)]:
            prob = build_problem("lq_double_integrator", u_bound=bound,
                                 **({} if x0 is None else {"x0": x0}))
            data = prob.lq
            part = uniform_partition(N, 1.0)
            sol = solve_lq_sampled_exact(data, part, prob.control_set)
            qp = _ReducedQp(data, part)
            lo = np.full(N, -bound)
            up = np.full(N, bound)
            best, best_val = None, np.inf
            for pattern in itertools.product((0, 1, 2), repeat=N):
                fixed_idx = np.array([j for j, a in enumerate(pattern) if a],
                                     dtype=int)
                fixed_val = np.array([lo[j] if pattern[j] == 1 else up[j]
                                      for j in fixed_idx])
                try:
                    u_try, _ = qp.kkt_solve(fixed_idx, fixed_val)
                except UnreachableTargetError:
                    continue
                if np.any(u_try < lo - 1e-9) or np.any(u_try > up + 1e-9):
                    continue
                if np.linalg.norm(qp.A_eq @ u_try - qp.b_eq) > 1e-8:
                    continue
                val = qp.objective(u_try)
                if val < best_val - 1e-12:
                    best_val, best = val, u_try
            np.testing.assert_allclose(sol.control.values.ravel(), best,
                                       atol=1e-8)

    @pytest.mark.parametrize("N", [16, 64, 256])
    def test_active_bounds_kkt_certificate(self, N):
        """From (0.9, 0) with u_bound=4 the box binds on many intervals;
        the returned control and multiplier satisfy the KKT conditions of
        the condensed QP, recomputed here from its matrices."""
        prob = build_problem("lq_double_integrator", u_bound=4.0,
                             x0=[0.9, 0.0])
        part = uniform_partition(N, 1.0)
        sol = solve_lq_sampled_exact(prob.lq, part, prob.control_set)
        qp = _ReducedQp(prob.lq, part)
        u = sol.control.values.ravel()
        grad = qp.H @ u + qp.g + qp.A_eq.T @ np.asarray(sol.multiplier)
        scale = 1.0 + float(np.max(np.abs(qp.H @ u + qp.g)))
        at_lo, at_up = u == -4.0, u == 4.0
        free = ~(at_lo | at_up)
        assert np.count_nonzero(~free) >= 2
        assert np.linalg.norm(qp.A_eq @ u - qp.b_eq) <= 1e-10
        assert np.all(np.abs(u) <= 4.0)
        assert np.max(np.abs(grad[free])) <= 1e-9 * scale
        assert np.all(grad[at_lo] >= -1e-9 * scale)
        assert np.all(grad[at_up] <= 1e-9 * scale)

    def test_single_vertex_box_certified(self):
        """From (1, 0) with u_bound=4 at N=8 the feasible set is one
        vertex, clamped on every interval, whose multiplier is not
        unique: the oracle returns the vertex with a multiplier that
        satisfies the KKT conditions recomputed from the condensed QP."""
        prob = build_problem("lq_double_integrator", u_bound=4.0)
        part = uniform_partition(8, 1.0)
        sol = solve_lq_sampled_exact(prob.lq, part, prob.control_set)
        qp = _ReducedQp(prob.lq, part)
        u = sol.control.values.ravel()
        np.testing.assert_array_equal(u, [-4.0] * 4 + [4.0] * 4)
        grad = qp.H @ u + qp.g + qp.A_eq.T @ np.asarray(sol.multiplier)
        scale = 1.0 + float(np.max(np.abs(qp.H @ u + qp.g)))
        assert np.linalg.norm(qp.A_eq @ u - qp.b_eq) <= 1e-10
        assert np.all(grad[:4] >= -1e-9 * scale)
        assert np.all(grad[4:] <= 1e-9 * scale)
        assert sol.cost == pytest.approx(qp.objective(u), rel=1e-12)

    @pytest.mark.parametrize("params, N", [({}, 8),
                                           ({"u_bound": 4.0,
                                             "x0": [0.9, 0.0]}, 4)])
    def test_dense_paths_match_joint_exponential(self, params, N):
        """State and costate on every grid node against a forward
        propagation of (x, lambda), lambdadot = -A' lambda - Q x, under
        the held control with one joint block exponential per step,
        started from x0 and the oracle's lambda(0) = -p(0); lambda(T)
        lands on the terminal multiplier.  The running cost ends at the
        QP cost."""
        prob = build_problem("lq_double_integrator", **params)
        data = prob.lq
        sol = solve_lq_sampled_exact(data, uniform_partition(N, 1.0),
                                     prob.control_set)
        n, m = data.n, data.m
        big = np.zeros((2 * n + m, 2 * n + m))
        big[:n, :n] = data.A
        big[n:2 * n, :n] = -data.Q
        big[n:2 * n, n:2 * n] = -data.A.T
        big[:n, 2 * n:] = data.B
        times = sol.state.grid.times
        y = np.concatenate([data.x0, -sol.costate.costates[0]])
        for k in range(times.size - 1):
            u = sol.control.values[sol.control.partition.interval_of(
                0.5 * (times[k] + times[k + 1]))]
            y = (expm(big * (times[k + 1] - times[k]))
                 @ np.concatenate([y, u]))[:2 * n]
            np.testing.assert_allclose(y[:n], sol.state.states[k + 1],
                                       rtol=0, atol=1e-11)
            np.testing.assert_allclose(-y[n:], sol.costate.costates[k + 1],
                                       rtol=0, atol=1e-11)
        np.testing.assert_allclose(y[n:], sol.multiplier, rtol=0, atol=1e-11)
        assert sol.state.running_cost[-1] == pytest.approx(sol.cost,
                                                           rel=1e-13, abs=0.0)

    def test_box_bound_saturation_at_fine_partitions(self):
        """The permanent optimum peaks past 6, so a [-6, 6] box saturates
        the first hold once the partition resolves the peak."""
        prob = build_problem("lq_double_integrator", u_bound=6.0)
        sol = solve_lq_sampled_exact(prob.lq, uniform_partition(64, 1.0),
                                     prob.control_set)
        assert sol.control.values[0, 0] == pytest.approx(-6.0, abs=1e-12)

    def test_ball_set_refused(self):
        from sampled_ocp import Ball
        from sampled_ocp.errors import OracleError
        data = _scalar_transfer()
        with pytest.raises(OracleError):
            solve_lq_sampled_exact(data, uniform_partition(2, 1.0),
                                   Ball([0.0], 5.0))


@pytest.fixture(scope="module")
def lq8_oracle_report(di_problem):
    from sampled_ocp import Extremal
    from sampled_ocp.pmp_check import evaluate_extremal
    sol = solve_lq_sampled_exact(di_problem.lq, uniform_partition(8, 1.0),
                                 di_problem.control_set)
    e = Extremal(di_problem, sol.state, sol.control, sol.costate, -1.0,
                 feas_tol=1e-10)
    return evaluate_extremal(e)


@pytest.fixture(scope="module")
def di_surrogates(di_problem):
    """Surrogates at 256 and 512."""
    return (fine_surrogate(di_problem, 256), fine_surrogate(di_problem, 512))


class TestFineSurrogate:
    def test_rejects_low_resolution(self, aq_problem):
        with pytest.raises(SurrogateRejectedError):
            fine_surrogate(aq_problem, 64)

    def test_rejects_outresolved_sweep(self, aq_problem):
        with pytest.raises(SurrogateRejectedError):
            fine_surrogate(aq_problem, 256, sweep_max_n=100000)

    @pytest.mark.parametrize("n_ref, chain", [
        (300, [75, 150, 300, 600]),
        (256, [16, 32, 64, 128, 256, 512]),
    ])
    def test_chain_reaches_n_ref(self, aq_problem, monkeypatch, n_ref, chain):
        """The warm chain halves n_ref while the half is an integer >= 16
        and ends at 2 n_ref; the error bar compares the n_ref and 2 n_ref
        solves.
        The solves are stubbed: each state is N in its first component."""
        import sampled_ocp.convergence_harness as convergence_harness
        from types import SimpleNamespace

        from sampled_ocp import PiecewiseConstantControl

        calls = []

        def fake_solve(prob, partition, opts, warm_start=None,
                       warm_multiplier=None, warm_penalty=None):
            N = partition.N
            calls.append(N)
            value = np.zeros(prob.n)
            value[0] = N
            return SimpleNamespace(
                control=PiecewiseConstantControl(partition,
                                                 np.zeros((N, prob.m))),
                multiplier=np.zeros(prob.n), costate=None, cost=float(N),
                diagnostics=SimpleNamespace(penalty=10.0),
                state=SimpleNamespace(
                    sample=lambda ts: np.tile(value, (len(ts), 1))))

        monkeypatch.setattr(convergence_harness, "solve", fake_solve)
        ref = fine_surrogate(aq_problem, n_ref)
        assert calls == chain
        assert ref.error_bar == float(n_ref)
        assert ref.cost == float(2 * n_ref)

    def test_lq_surrogate_agrees_with_analytic(self, di_surrogates,
                                               di_reference):
        """Self-consistency route vs the analytic one: a fine sampled
        solve stands within its own error bar of the analytic optimum."""
        ref = di_surrogates[1]
        ts = np.linspace(0, 1, 513)
        err = float(np.max(np.linalg.norm(
            ref.x.sample(ts) - di_reference.x.sample(ts), axis=1)))
        assert err <= 1e-4
        assert ref.error_bar is not None and ref.error_bar < 1e-3
        assert abs(ref.cost - di_reference.cost) < 1e-4

    def test_error_bar_shrinks_with_resolution(self, di_surrogates):
        bar256, bar512 = di_surrogates[0].error_bar, di_surrogates[1].error_bar
        assert bar512 <= 0.5 * bar256 * 1.05  # halves, 5% slack

    def test_control_free_dynamics_equals_plain_integration(self):
        """When the dynamics ignore the control the optimal control is
        zero and the surrogate reproduces the uncontrolled trajectory."""
        from sampled_ocp import build_time_grid, integrate_state
        from sampled_ocp.problem_model import Box, problem_from_callables
        e_val = float(np.exp(1.0))
        prob = problem_from_callables(
            f=lambda x, u, t: np.array([x[0]]),
            L=lambda x, u, t: float(u @ u), n=1, m=1, horizon=1.0,
            x0=[1.0], xT=[e_val], control_set=Box([-1.0], [1.0]))
        ref = fine_surrogate(prob, 256)
        grid = build_time_grid(1.0, uniform_partition(512, 1.0))
        traj = integrate_state(prob, lambda t: np.zeros(1), grid)
        ts = np.linspace(0, 1, 65)
        np.testing.assert_allclose(ref.x.sample(ts), traj.sample(ts),
                                   atol=1e-9)
        np.testing.assert_allclose(np.asarray(ref.u.values), 0.0, atol=1e-12)


class TestSingleBlasThread:
    def test_scope_runs_one_thread_and_restores(self):
        """Inside the scope every bundled OpenBLAS reads one thread, also
        when scopes nest; afterwards each reads its earlier count."""
        from sampled_ocp.reference_oracles import (_openblas_thread_controls,
                                                   _single_blas_thread)
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        before = [get() for get, _ in controls]
        with _single_blas_thread:
            assert [get() for get, _ in controls] == [1] * len(controls)
            with _single_blas_thread:
                assert [get() for get, _ in controls] == [1] * len(controls)
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before
