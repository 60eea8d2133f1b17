"""Optimality-condition residuals and the extremal-lift characterizations."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_ocp import (Extremal, PiecewiseConstantControl, build_problem,
                         build_time_grid, classify_normality, hamiltonian,
                         integrate_costate, integrate_state, lift_inequality,
                         uniform_partition)
from sampled_ocp.errors import (GridAlignmentError, MembershipError,
                                TrivialLiftError)
from sampled_ocp.control_partition import read_control_csv, resample_onto
from sampled_ocp.integrate import (ControlDifference, CostateTrajectory,
                                   Trajectory, costate_from_nodes,
                                   read_costate_csv, read_state_csv)
from sampled_ocp.pmp_check import (MAX_PROBE_STEPS, ResidualReport,
                                   _hamiltonian_rows, _probe_partition,
                                   ae_residual, ahg_residual,
                                   evaluate_extremal, grad_u_hamiltonian,
                                   hg_residual, hm_gap,
                                   interval_grad_integrals, probe_count,
                                   random_admissible_control)
from sampled_ocp.problem_model import catalog, load_problem_config


@pytest.fixture(scope="module")
def cubic_extremal():
    """The zero control with unit costate on the cubic problem, the
    canonical gradient-stationary / non-maximizing pair."""
    prob = build_problem("cubic_counterexample")
    part = uniform_partition(4, 1.0)
    grid = build_time_grid(1.0, part, h_max=1.0 / 64.0)
    u = PiecewiseConstantControl(part, np.zeros((4, 1)))
    x = integrate_state(prob, u, grid)
    p = integrate_costate(prob, x, u, p0=-1.0, pT=np.array([1.0]))
    return Extremal(prob, x, u, p, -1.0)


@pytest.fixture(scope="module")
def lq_oracle_extremal(di_problem):
    """Extremal assembled from the exact sampled LQ oracle at N = 8."""
    from sampled_ocp import solve_lq_sampled_exact
    part = uniform_partition(8, 1.0)
    sol = solve_lq_sampled_exact(di_problem.lq, part, di_problem.control_set)
    return Extremal(di_problem, sol.state, sol.control, sol.costate, -1.0,
                    feas_tol=1e-10), sol


class TestHamiltonian:
    def test_cubic_zero_everywhere(self):
        prob = build_problem("cubic_counterexample")
        for p0 in (-1.0, 0.0):
            h = hamiltonian(prob, [0.0], [0.0], [1.0], p0, 0.3)
            assert h == 0.0

    def test_linear_pairing(self):
        prob = build_problem("cubic_counterexample")
        # f = u^3 with u = 3 gives 27; p = 2 pairs to 54; L = 0
        assert hamiltonian(prob, [0.0], [3.0], [2.0], -1.0, 0.0) == \
            pytest.approx(54.0)

    def test_zero_costate_gives_minus_cost(self, di_problem):
        x = np.array([1.0, 2.0])
        u = np.array([0.5])
        h = hamiltonian(di_problem, x, u, np.zeros(2), -1.0, 0.0)
        assert h == pytest.approx(-di_problem.cost(x, u, 0.0))

    def test_pure_integrator_pairing(self):
        """f = u with zero cost: H = p u, so p = 2 and u = 3 give 6."""
        from sampled_ocp.problem_model import Box, problem_from_callables
        prob = problem_from_callables(
            f=lambda x, u, t: np.array([u[0]]), L=lambda x, u, t: 0.0,
            n=1, m=1, horizon=1.0, x0=[0.0], xT=[0.0],
            control_set=Box([-5.0], [5.0]))
        assert hamiltonian(prob, [0.0], [3.0], [2.0], -1.0, 0.0) == \
            pytest.approx(6.0)


class TestCubicCounterexample:
    def test_ae_residual_zero(self, cubic_extremal):
        assert ae_residual(cubic_extremal).sup == 0.0

    def test_hg_residual_zero(self, cubic_extremal):
        assert hg_residual(cubic_extremal).sup <= 1e-10

    def test_hm_gap_near_one(self, cubic_extremal):
        """The scan maximum sits at the control-set edge where the cubic
        reaches 1 while the candidate value is 0."""
        res = hm_gap(cubic_extremal, density=1001)
        assert 0.99 <= res.sup <= 1.01

    def test_quadratic_penalty_gap_zero(self):
        """With p = 0 and L = |u|^2 the Hamiltonian is -|u|^2, maximized
        exactly by the zero control: the gap vanishes."""
        from sampled_ocp.problem_model import Box, problem_from_callables
        prob = problem_from_callables(
            f=lambda x, u, t: np.array([0.0]),
            L=lambda x, u, t: float(u @ u), n=1, m=1, horizon=1.0,
            x0=[0.0], xT=[0.0], control_set=Box([-1.0], [1.0]))
        part = uniform_partition(2, 1.0)
        grid = build_time_grid(1.0, part, h_max=0.25)
        u = PiecewiseConstantControl(part, np.zeros((2, 1)))
        x = integrate_state(prob, u, grid)
        # costate identically zero is trivial; carry p0 = -1 for the lift
        p = integrate_costate(prob, x, u, p0=-1.0, pT=np.array([0.0]))
        e = Extremal(prob, x, u, p, -1.0)
        assert hm_gap(e, density=801).sup == 0.0

    def test_abnormal_variant(self):
        prob = build_problem("cubic_counterexample")
        part = uniform_partition(4, 1.0)
        grid = build_time_grid(1.0, part, h_max=1.0 / 64.0)
        u = PiecewiseConstantControl(part, np.zeros((4, 1)))
        x = integrate_state(prob, u, grid)
        p = integrate_costate(prob, x, u, p0=0.0, pT=np.array([1.0]))
        e = Extremal(prob, x, u, p, 0.0)
        assert classify_normality(e) == "abnormal"
        assert hg_residual(e).sup <= 1e-10
        assert 0.99 <= hm_gap(e, density=1001).sup <= 1.01

    def test_lift_inequality_probes(self, cubic_extremal):
        """All admissible probes give z_v(T) = 0 here: the control
        injection gradient vanishes at u = 0."""
        rng = np.random.default_rng(5)
        worst = -np.inf
        for _ in range(100):
            v = random_admissible_control(cubic_extremal.problem,
                                          cubic_extremal.u.partition, rng)
            worst = max(worst, lift_inequality(cubic_extremal, v))
        assert worst <= 1e-9

    def test_lift_inequality_self_probe_exact_zero(self, cubic_extremal):
        assert lift_inequality(cubic_extremal, cubic_extremal.u) == 0.0


class TestLqOracleExtremal:
    def test_ae_residual(self, lq_oracle_extremal):
        e, _ = lq_oracle_extremal
        assert ae_residual(e).sup <= 1e-8

    def test_ahg_residual(self, lq_oracle_extremal):
        e, _ = lq_oracle_extremal
        assert ahg_residual(e).sup <= 1e-8

    def test_hm_gap_small(self, lq_oracle_extremal):
        """Concave-in-u Hamiltonian with interior maximizer: no gap."""
        e, _ = lq_oracle_extremal
        assert hm_gap(e, density=1001, time_stride=4).sup <= 1e-6

    def test_hg_to_hm_consistency(self, lq_oracle_extremal):
        """A small maximization gap bounds the gradient residual: with H
        quadratic in u (curvature R) and an interior candidate,
        |grad_u H| = sqrt(2 R gap_true), and the scanned gap understates
        the true one by at most its spacing slack."""
        e, _ = lq_oracle_extremal
        res = hm_gap(e, density=1001, time_stride=8)
        R = float(e.problem.lq.R[0, 0])
        derived = np.sqrt(2.0 * R * (res.sup + res.slack)) + 1e-9
        assert hg_residual(e).sup <= derived

    def test_interior_perturbation_detected(self, lq_oracle_extremal):
        e, sol = lq_oracle_extremal
        values = sol.control.values.copy()
        values[3, 0] += 0.1  # interior of U: residual = |grad_u H| step
        u_pert = PiecewiseConstantControl(sol.control.partition, values)
        e_pert = Extremal(e.problem, e.x, u_pert, e.p, -1.0, feas_tol=1e-10)
        assert hg_residual(e_pert).sup >= 0.05

    def test_ahg_on_a_grid_built_for_another_partition(self, di_problem):
        """The N = 4 optimum re-marched on a grid aligned to N = 8: the
        averaged gradient integrates over the control's own intervals,
        not the grid's (which read 0.694)."""
        from sampled_ocp import solve_lq_sampled_exact
        sol = solve_lq_sampled_exact(di_problem.lq, uniform_partition(4, 1.0),
                                     di_problem.control_set)
        grid = build_time_grid(1.0, uniform_partition(8, 1.0), h_max=1 / 256)
        x = integrate_state(di_problem, sol.control, grid)
        p = integrate_costate(di_problem, x, sol.control, p0=-1.0,
                              pT=sol.costate.final_costate)
        e = Extremal(di_problem, x, sol.control, p, -1.0)
        assert ahg_residual(e).sup <= 1e-9

    def test_interval_flip_breaks_ahg(self, lq_oracle_extremal):
        e, sol = lq_oracle_extremal
        values = sol.control.values.copy()
        values[5, 0] = -values[5, 0]
        u_pert = PiecewiseConstantControl(sol.control.partition, values)
        grid = e.x.grid
        from sampled_ocp import integrate_state as int_state
        x_pert = int_state(e.problem, u_pert, grid)
        p_pert = integrate_costate(e.problem, x_pert, u_pert, p0=-1.0,
                                   pT=e.p.final_costate)
        e_pert = Extremal(e.problem, x_pert, u_pert, p_pert, -1.0,
                          feas_tol=10.0)
        res = ahg_residual(e_pert)
        assert res.per_interval[5] > 0.0

    def test_lift_probes_nonpositive(self, lq_oracle_extremal):
        e, _ = lq_oracle_extremal
        rng = np.random.default_rng(17)
        for _ in range(50):
            v = random_admissible_control(e.problem, e.u.partition, rng)
            assert lift_inequality(e, v) <= 1e-6

    def test_one_interval_zero_gradient(self):
        """A problem whose Hamiltonian ignores the control has zero
        averaged residual on a single interval."""
        from sampled_ocp.problem_model import Box, problem_from_callables
        prob = problem_from_callables(
            f=lambda x, u, t: np.array([x[0]]),
            L=lambda x, u, t: 0.0, n=1, m=1, horizon=1.0,
            x0=[1.0], xT=[np.e], control_set=Box([-1.0], [1.0]))
        part = uniform_partition(1, 1.0)
        grid = build_time_grid(1.0, part, h_max=1.0 / 64.0)
        u = PiecewiseConstantControl(part, np.zeros((1, 1)))
        x = integrate_state(prob, u, grid)
        p = integrate_costate(prob, x, u, p0=-1.0, pT=np.array([1.0]))
        e = Extremal(prob, x, u, p, -1.0, feas_tol=1e-6)
        assert ahg_residual(e).sup <= 1e-12


    def test_zero_derivatives_are_taken_at_their_word(self,
                                                       lq_oracle_extremal):
        """A costate with all-zero derivative arrays claims pdot = 0; the
        adjoint residual reads the claim, not finite differences."""
        e, sol = lq_oracle_extremal
        grid = sol.costate.grid
        n = sol.costate.costates.shape[1]
        flat = CostateTrajectory(grid, sol.costate.costates, -1.0,
                                 np.zeros((grid.K, n)),
                                 np.zeros((grid.K + 1, n)))
        e_flat = dataclasses.replace(e, p=flat)
        assert ae_residual(e_flat).sup > 1.0


class TestScalingInvariance:
    def test_positive_scaling(self, lq_oracle_extremal):
        """Positive rescaling of (p, p0) scales the averaged integrals and
        leaves normal-cone membership verdicts unchanged."""
        e, sol = lq_oracle_extremal
        lam = 3.7
        scaled = Extremal(e.problem, e.x, e.u, e.p.scaled(lam), -lam,
                          feas_tol=1e-10)
        base = ahg_residual(e)
        res = ahg_residual(scaled)
        np.testing.assert_allclose(res.integrals, lam * base.integrals,
                                   rtol=1e-12, atol=1e-15)
        # membership verdicts (zero vs positive residual) are preserved
        for r0, r1 in zip(base.per_interval, res.per_interval):
            assert (r0 <= 1e-9) == (r1 <= lam * 1e-9 + 1e-12)

    def test_ae_profile_scales(self, di_problem, rng):
        part = uniform_partition(4, 1.0)
        grid = build_time_grid(1.0, part, h_max=1.0 / 64.0)
        u = PiecewiseConstantControl(part, rng.uniform(-2, 2, (4, 1)))
        x = integrate_state(di_problem, u, grid)
        p = integrate_costate(di_problem, x, u, p0=-1.0, pT=np.array([1.0, -0.5]))
        # corrupt the derivatives so the residual is visibly nonzero
        bad = p.deriv_right.copy()
        bad += 0.01
        from sampled_ocp.integrate import CostateTrajectory
        p_bad = CostateTrajectory(grid, p.costates, -1.0, bad, p.deriv_left)
        e = Extremal(di_problem, x, u, p_bad, -1.0, feas_tol=10.0)
        lam = 2.5
        e_scaled = Extremal(di_problem, x, u, p_bad.scaled(lam), -lam,
                            feas_tol=10.0)
        r0 = ae_residual(e).sup
        r1 = ae_residual(e_scaled).sup
        assert r1 == pytest.approx(lam * r0, rel=1e-9)


class TestTelescoping:
    def test_interval_increments_sum_to_terminal(self, lq_oracle_extremal):
        """z_v increments over sampling intervals telescope to z_v(T)."""
        from sampled_ocp.integrate import ControlDifference, integrate_variation
        e, _ = lq_oracle_extremal
        rng = np.random.default_rng(23)
        v = random_admissible_control(e.problem, e.u.partition, rng)
        var = integrate_variation(e.problem, e.x, e.u, ControlDifference(v, e.u))
        grid = e.x.grid
        z = np.array([float(e.p.costates[k] @ var.w[k] + e.p0 * var.w0[k])
                      for k in range(grid.times.size)])
        increments = [z[grid.boundaries[i + 1]] - z[grid.boundaries[i]]
                      for i in range(grid.n_intervals)]
        assert sum(increments) == pytest.approx(z[-1], abs=1e-9)


class TestNeedleProbes:
    def test_violated_gradient_condition_exposed(self, di_problem):
        """Where the pointwise condition fails with margin, a needle probe
        produces a positive terminal variation value."""
        part = uniform_partition(4, 1.0)
        grid = build_time_grid(1.0, part, h_max=1.0 / 256.0)
        u = PiecewiseConstantControl(part, np.full((4, 1), 2.0))
        x = integrate_state(di_problem, u, grid)
        p = integrate_costate(di_problem, x, u, p0=-1.0, pT=np.array([1.0, 1.0]))
        e = Extremal(di_problem, x, u, p, -1.0, feas_tol=100.0)
        prof = hg_residual(e)
        k_bad = int(np.argmax(prof.per_node))
        assert prof.per_node[k_bad] > 0.05
        tau = float(prof.times[k_bad])
        # choose the scan direction that realizes the violation
        from sampled_ocp.pmp_check import grad_u_hamiltonian
        g = grad_u_hamiltonian(di_problem, x.states[k_bad],
                               e.u.value(tau), p.costates[k_bad],
                               -1.0, tau)
        lo, up = di_problem.control_set.bounding_box()
        omega = np.where(g > 0, up, lo)
        eps = 1.0 / 64.0
        tau = min(tau, 1.0 - eps)
        cuts = np.unique(np.concatenate([part.times, [tau, tau + eps]]))
        from sampled_ocp import Partition
        fine = Partition(cuts)
        vals = np.array([omega if tau <= tm < tau + eps else u.value(tm)
                         for tm in 0.5 * (cuts[:-1] + cuts[1:])])
        v = PiecewiseConstantControl(fine, vals)
        assert lift_inequality(e, v) > 0.0


class TestNormality:
    def test_normal(self, cubic_extremal):
        assert classify_normality(cubic_extremal) == "normal"

    def test_abnormal_requires_nonzero_terminal(self, di_problem):
        part = uniform_partition(2, 1.0)
        grid = build_time_grid(1.0, part, h_max=0.25)
        u = PiecewiseConstantControl(part, np.zeros((2, 1)))
        x = integrate_state(di_problem, u, grid)
        with pytest.raises(TrivialLiftError):
            integrate_costate(di_problem, x, u, p0=0.0, pT=np.zeros(2))


class TestReport:
    def test_report_sections_and_gating(self, cubic_extremal):
        report = evaluate_extremal(cubic_extremal, with_hm=True,
                                   hm_density=301, hm_time_stride=8,
                                   lift_probes=10)
        doc = report.to_json()
        for section in ('"ae"', '"hg"', '"hm"', '"ahg"', '"lift_probes"'):
            assert section in doc
        verdicts = report.verdicts()
        assert verdicts["ae"] == "pass"
        assert verdicts["ahg"] == "pass"
        assert verdicts["hm"] == "fail"   # gap ~ 1
        assert not report.all_pass()

    def test_report_passes_without_hm(self, cubic_extremal):
        report = evaluate_extremal(cubic_extremal, lift_probes=10)
        assert report.all_pass()


    def test_nan_gating_value_does_not_pass(self):
        report = ResidualReport(ae_residual=float("nan"), ahg_sup=0.0)
        assert report.all_pass() is False


class TestSharedLinearization:
    def test_ae_exact_for_callable_control(self, aq_problem):
        """The residual reads the stage data the costate march used, so a
        costate integrated under a smooth control certifies exactly; a
        segment's right end carries u(t_{k+1}), not u(t_k)."""
        grid = build_time_grid(1.0, h_max=1.0 / 256.0)

        def u(t):
            return np.array([np.sin(3.0 * t)])
        x = integrate_state(aq_problem, u, grid)
        p = integrate_costate(aq_problem, x, u, p0=-1.0, pT=[1.0, 0.5])
        e = Extremal(aq_problem, x, u, p, -1.0)
        assert ae_residual(e).sup <= 1e-12

    def test_report_evaluates_grad_x_f_once_per_stage_point(self, aq_problem):
        """ae and every lift probe share one table: 3K calls of grad_x f
        in a whole report, however many probes it runs."""
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return aq_problem.dynamics_jac_x(*args)

        prob = dataclasses.replace(aq_problem, dynamics_jac_x=counting)
        part = uniform_partition(4, 1.0)
        grid = build_time_grid(1.0, part, h_max=1.0 / 64.0)
        rng = np.random.default_rng(3)
        u = PiecewiseConstantControl(part, rng.uniform(-1, 1, size=(4, 1)))
        x = integrate_state(prob, u, grid)
        p = integrate_costate(prob, x, u, p0=-1.0, pT=[1.0, -0.5])
        e = Extremal(prob, x, u, p, -1.0, feas_tol=100.0)
        calls[0] = 0
        evaluate_extremal(e, lift_probes=5)
        assert grid.K == 64
        assert calls[0] == 3 * grid.K

    @pytest.mark.parametrize("probes", [1, 5, 20])
    def test_report_marches_variations_once(self, lq_oracle_extremal,
                                            monkeypatch, probes):
        """A report's lift probes go through one variation march, whatever
        their count."""
        import sampled_ocp.integrate as integrate_module
        e, _ = lq_oracle_extremal
        marches = []
        march = integrate_module._rk4_march

        def counted(*args, **kwargs):
            marches.append(kwargs["what"])
            return march(*args, **kwargs)

        monkeypatch.setattr(integrate_module, "_rk4_march", counted)
        report = evaluate_extremal(e, lift_probes=probes)
        assert marches == ["variation integration"]
        assert report.lift_probe_count == probes

    def test_control_difference_reports_as_its_held_value(self, aq_problem):
        """Every control a march accepts is one the certificates accept:
        under ControlDifference(u, v) of two held controls the report
        (ae, hg, hm) is the held control u - v's, bit for bit."""
        fine, coarse = uniform_partition(4, 1.0), uniform_partition(2, 1.0)
        rng = np.random.default_rng(7)
        u = PiecewiseConstantControl(fine, rng.uniform(-1, 1, size=(4, 1)))
        v = PiecewiseConstantControl(coarse, rng.uniform(-1, 1, size=(2, 1)))
        held = PiecewiseConstantControl(
            fine, u.values - resample_onto(v, fine).values)
        grid = build_time_grid(1.0, fine, h_max=1.0 / 64.0)
        extremals = []
        for w in (ControlDifference(u, v), held):
            x = integrate_state(aq_problem, w, grid)
            p = integrate_costate(aq_problem, x, w, p0=-1.0, pT=[1.0, -0.5])
            extremals.append(Extremal(aq_problem, x, w, p, -1.0,
                                      feas_tol=100.0))
        report = evaluate_extremal(extremals[0], with_hm=True)
        ref = evaluate_extremal(extremals[1], with_hm=True)
        assert report.ae_residual == ref.ae_residual
        assert report.hm_gap == ref.hm_gap > 0.0
        assert report.hg_residual == hg_residual(extremals[1]).sup
        assert report.feasibility == ref.feasibility

    def test_mismatched_grids_rejected(self, aq_problem):
        part = uniform_partition(4, 1.0)
        u = PiecewiseConstantControl(part, np.zeros((4, 1)))
        x = integrate_state(aq_problem, u,
                            build_time_grid(1.0, part, h_max=1.0 / 64.0))
        x_fine = integrate_state(aq_problem, u,
                                 build_time_grid(1.0, part, h_max=1.0 / 128.0))
        p = integrate_costate(aq_problem, x_fine, u, p0=-1.0, pT=[1.0, 0.5])
        with pytest.raises(GridAlignmentError):
            Extremal(aq_problem, x, u, p, -1.0)


@pytest.fixture(scope="module")
def di_probe_extremal():
    prob = build_problem("lq_double_integrator")
    part = uniform_partition(4, 1.0)
    grid = build_time_grid(1.0, part, h_max=1.0 / 64.0)
    u = PiecewiseConstantControl(part, np.array([[1.5], [-0.5], [0.25], [-2.0]]))
    x = integrate_state(prob, u, grid)
    p = integrate_costate(prob, x, u, p0=-1.0, pT=[0.7, -1.3])
    return Extremal(prob, x, u, p, -1.0)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lift_probe_matches_fresh_variation_march(di_probe_extremal, data):
    """A probe through the extremal's shared linearization gives, bit for
    bit, the value of a fresh variation march."""
    from sampled_ocp.integrate import ControlDifference, integrate_variation
    e = di_probe_extremal
    lo, up = e.problem.control_set.bounding_box()
    values = np.array([[data.draw(st.floats(float(lo[j]), float(up[j])))
                        for j in range(e.problem.m)]
                       for _ in range(e.u.partition.N)])
    v = PiecewiseConstantControl(e.u.partition, values)
    var = integrate_variation(e.problem, e.x, e.u, ControlDifference(v, e.u))
    fresh = float(e.p.final_costate @ var.final_w + e.p0 * var.final_w0)
    assert lift_inequality(e, v) == fresh


@pytest.fixture(scope="module")
def di_difference_extremal():
    """The probe extremal's setting under a `ControlDifference` control:
    a held control on 4 intervals minus one on 2."""
    prob = build_problem("lq_double_integrator")
    fine, coarse = uniform_partition(4, 1.0), uniform_partition(2, 1.0)
    u = ControlDifference(
        PiecewiseConstantControl(fine, np.array([[1.5], [-0.5], [0.25],
                                                 [-2.0]])),
        PiecewiseConstantControl(coarse, np.array([[0.75], [-1.25]])))
    x = integrate_state(prob, u, build_time_grid(1.0, fine, h_max=1.0 / 64.0))
    p = integrate_costate(prob, x, u, p0=-1.0, pT=[0.7, -1.3])
    return Extremal(prob, x, u, p, -1.0)


@pytest.mark.parametrize("fixture", ["di_probe_extremal",
                                     "di_difference_extremal"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_lift_is_the_largest_single_probe(request, fixture, data):
    """Held and callable probes marched together give the largest of
    their single-probe values, and a batch of one is the single probe bit
    for bit."""
    e = request.getfixturevalue(fixture)
    U = e.problem.control_set
    lo, up = U.bounding_box()
    amp = float(np.min(np.minimum(-lo, up)))
    part = uniform_partition(data.draw(st.sampled_from([1, 2, 4, 8])), 1.0)
    probes = []
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            values = np.array([[data.draw(st.floats(float(lo[j]),
                                                    float(up[j])))
                                for j in range(e.problem.m)]
                               for _ in range(part.N)])
            probes.append(PiecewiseConstantControl(part, values))
        else:
            c = data.draw(st.floats(-amp, amp))
            w = data.draw(st.floats(0.0, 20.0))
            probes.append(lambda t, c=c, w=w: np.array([c * np.cos(w * t)]))
    singles = [lift_inequality(e, v) for v in probes]
    assert lift_inequality(e, probes) == pytest.approx(max(singles),
                                                       rel=0, abs=1e-14)
    assert lift_inequality(e, [probes[0]]) == singles[0]
    assert lift_inequality(e, tuple(probes[:1])) == singles[0]


def _random_extremal(prob, seed, p0):
    """States, costates and an in-box control drawn at random on a
    9-node grid: far from any extremal, so the hm gaps are nonzero."""
    rng = np.random.default_rng(seed)
    part = uniform_partition(2, 1.0)
    grid = build_time_grid(1.0, part, h_max=1.0 / 8.0)
    K, n = grid.K, prob.n
    lo, up = prob.control_set.bounding_box()
    u = PiecewiseConstantControl(part, rng.uniform(lo, up, size=(2, prob.m)))
    x = Trajectory(grid, rng.uniform(-2, 2, (K + 1, n)), np.zeros((K, n)),
                   np.zeros((K + 1, n)), np.zeros(K + 1))
    p = CostateTrajectory(grid, rng.uniform(-5, 5, (K + 1, n)), p0,
                          np.zeros((K, n)), np.zeros((K + 1, n)))
    return Extremal(prob, x, u, p, p0)


_COUPLED_R = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]]


def _m3_lq_problem(R=_COUPLED_R):
    """An `lq_generic` problem with m = 3 on the box [-2, 2]^3, where
    `hm_gap` scans coordinate lines."""
    from sampled_ocp import Box
    return build_problem("lq_generic", A=np.diag([1.0, 1.0], k=1),
                         B=np.eye(3), R=R, x0=[0.0, 1.5, 0.0],
                         xT=[0.0, 0.0, 0.0],
                         control_set=Box(-2.0 * np.ones(3), 2.0 * np.ones(3)))


def _m3_lq_extremal(R=_COUPLED_R):
    """The exact N = 4 sampled optimum of `_m3_lq_problem(R)`."""
    from sampled_ocp import solve_lq_sampled_exact
    prob = _m3_lq_problem(R)
    sol = solve_lq_sampled_exact(prob.lq, uniform_partition(4, 1.0),
                                 prob.control_set)
    return Extremal(prob, sol.state, sol.control, sol.costate, -1.0,
                    feas_tol=1e-9)


class TestStructuredHmScan:
    @pytest.mark.parametrize("build, density", [
        (lambda: build_problem("lq_double_integrator"), 1001),
        (lambda: build_problem("affine_quadratic"), 1001),
        (_m3_lq_problem, 101)], ids=["lq_double_integrator",
                                     "affine_quadratic", "lq_generic_m3"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p0=st.sampled_from([-1.0, 0.0]))
    def test_rows_match_the_call_loop(self, build, density, seed, p0):
        """The rows read from a declared control Hessian give the
        per-call rows' gaps to 1e-12 of the largest gap, and their slack,
        on the point grid (m <= 2) and on coordinate lines (m = 3)."""
        prob = build()
        e = _random_extremal(prob, seed, p0)
        loop = hm_gap(dataclasses.replace(
            e, problem=dataclasses.replace(prob, control_hessian=None)),
            density=density)
        rows = hm_gap(e, density=density)
        assert loop.sup > 0.0
        np.testing.assert_allclose(rows.per_node, loop.per_node, rtol=1e-12,
                                   atol=1e-12 * loop.sup)
        assert rows.slack == pytest.approx(loop.slack, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p0=st.sampled_from([-1.0, 0.0]))
    def test_structure_is_the_hamiltonian(self, seed, p0):
        """For every catalog problem that declares a control Hessian, the
        closed-form rows' H(w), H(u) and slack Lipschitz bound
        |grad_u H(w)| equal `hamiltonian` and `grad_u_hamiltonian`: a
        declaration that disagrees with f and L fails here."""
        rng = np.random.default_rng(seed)
        declared = []
        for entry in catalog():
            prob = build_problem(entry.name)
            if prob.control_hessian is None:
                continue
            declared.append(entry.name)
            x = rng.uniform(-2, 2, prob.n)
            p = rng.uniform(-5, 5, prob.n)
            w, u = rng.uniform(-3, 3, (2, prob.m))
            t = float(rng.uniform(0, prob.horizon))
            H, grad_norm = _hamiltonian_rows(prob, x, p, p0, t)
            h_w, h_u = H(np.array([w, u]))
            lip = grad_norm(w[None, :])[0]
            for h, v in ((h_w, w), (h_u, u)):
                exact = hamiltonian(prob, x, v, p, p0, t)
                assert h == pytest.approx(exact, rel=1e-12, abs=1e-12)
            grad = grad_u_hamiltonian(prob, x, w, p, p0, t)
            assert lip == pytest.approx(float(np.linalg.norm(grad)),
                                        rel=1e-12, abs=1e-12)
        assert declared == ["lq_double_integrator", "lq_generic",
                            "affine_quadratic"]

    @pytest.mark.parametrize("R", [[[1.0, 0.0], [0.0, 1.0]], [1.0],
                                   [[float("nan")]], [[float("inf")]]],
                             ids=["wrong_shape", "one_dim", "nan", "inf"])
    def test_control_hessian_is_a_finite_m_by_m_array(self, R):
        """`OcpProblem` rejects a declared R that is not a finite (m, m)
        array, and freezes the one it keeps."""
        prob = build_problem("affine_quadratic")
        with pytest.raises(ValueError, match="control_hessian"):
            dataclasses.replace(prob, control_hessian=R)
        kept = dataclasses.replace(prob, control_hessian=[[2.0]])
        assert kept.control_hessian.shape == (1, 1)
        assert not kept.control_hessian.flags.writeable

    def test_no_hamiltonian_calls_under_a_structure(self, monkeypatch):
        """A problem that declares R scans without calling `hamiltonian`,
        on the point grid and on the coordinate lines of m = 3; the
        per-call rows call it once per scan point and once at u(t), per
        node."""
        import sampled_ocp.pmp_check as pmp
        calls = [0]
        original = pmp.hamiltonian

        def counting(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(pmp, "hamiltonian", counting)
        prob = build_problem("affine_quadratic")
        e = _random_extremal(prob, 0, -1.0)
        hm_gap(e)
        assert calls[0] == 0
        hm_gap(dataclasses.replace(
            e, problem=dataclasses.replace(prob, control_hessian=None)))
        assert calls[0] == 1002 * e.x.grid.times.size
        calls[0] = 0
        hm_gap(_m3_lq_extremal(), density=101, time_stride=32)
        assert calls[0] == 0


class TestScanArguments:
    @pytest.mark.parametrize("kwargs", [{"density": 0}, {"density": 1},
                                        {"time_stride": 0}],
                             ids=["density_0", "density_1", "stride_0"])
    def test_vacuous_scan_refused(self, cubic_extremal, kwargs):
        """A scan of no point, of the box's lower corner alone, or with a
        stride that never advances is refused, directly and through the
        report."""
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            hm_gap(cubic_extremal, **kwargs)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            evaluate_extremal(cubic_extremal, with_hm=True,
                              **{"hm_" + k: v for k, v in kwargs.items()})

    def test_negative_probe_count_refused(self, cubic_extremal):
        """A negative probe count is refused, not reported as "not
        evaluated"."""
        with pytest.raises(ValueError, match="lift_probes"):
            evaluate_extremal(cubic_extremal, lift_probes=-5)

    @pytest.mark.parametrize("count", [True, 2.5, "3"],
                             ids=["bool", "float", "str"])
    def test_non_integer_probe_count_refused(self, cubic_extremal, count):
        """`True` ran one probe and wrote `"lift_probe_count": true`;
        2.5 raised a bare `TypeError` from `range`."""
        with pytest.raises(ValueError,
                           match="lift_probes must be an integer >= 0"):
            evaluate_extremal(cubic_extremal, lift_probes=count)

    def test_numpy_integer_probe_count(self, cubic_extremal):
        doc = json.loads(evaluate_extremal(cubic_extremal,
                                           lift_probes=np.int64(2)).to_json())
        assert doc["lift_probe_count"] == 2


class TestCallableProbes:
    """A callable probe is read at the grid's nodes and midpoints, and
    must lie in U there, as a held probe must on its intervals."""

    def test_inside_probe_evaluated(self, lq_oracle_extremal):
        """A constant callable inside U gives the value of the held probe
        at the same constant."""
        e, _ = lq_oracle_extremal
        held = PiecewiseConstantControl(e.u.partition, np.full((8, 1), 5.0))
        assert lift_inequality(e, lambda t: np.array([5.0])) == \
            pytest.approx(lift_inequality(e, held), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("probe", [
        lambda t: np.array([1e3]),
        lambda t: np.array([1e3 if t > 0.99 else 0.0])],
        ids=["everywhere", "last_step"])
    def test_outside_probe_refused(self, lq_oracle_extremal, probe):
        """On the double integrator's box [-20, 20] a callable at 1e3
        returned 1.70e-08, where a held probe at 1e3 is refused."""
        e, _ = lq_oracle_extremal
        with pytest.raises(MembershipError, match="leaves the control set"):
            lift_inequality(e, probe)
        held = PiecewiseConstantControl(e.u.partition, np.full((8, 1), 1e3))
        with pytest.raises(MembershipError, match="leaves the control set"):
            lift_inequality(e, held)

    @pytest.mark.parametrize("outside", [
        lambda part: PiecewiseConstantControl(part, np.full((8, 1), 1e3)),
        lambda part: (lambda t: np.array([1e3 if t > 0.99 else 0.0]))],
        ids=["held", "callable_last_step"])
    def test_outside_probe_refuses_its_batch(self, lq_oracle_extremal,
                                             monkeypatch, outside):
        """A batch holding one probe outside U raises that probe's own
        `MembershipError` before any march."""
        import sampled_ocp.integrate as integrate_module
        e, _ = lq_oracle_extremal
        probe = outside(e.u.partition)
        inside = PiecewiseConstantControl(e.u.partition, np.full((8, 1), 5.0))
        with pytest.raises(MembershipError) as single:
            lift_inequality(e, probe)
        marches = []
        monkeypatch.setattr(integrate_module, "_rk4_march",
                            lambda *args, **kwargs: marches.append(1))
        with pytest.raises(MembershipError) as batch:
            lift_inequality(e, [inside, probe, inside])
        assert str(batch.value) == str(single.value)
        assert marches == []


class TestCoordinateHmScan:
    @pytest.mark.parametrize("R", [np.eye(3), _COUPLED_R],
                             ids=["identity", "coupled"])
    def test_gap_brackets_the_exact_gap(self, R):
        """With m = 3, `hm_gap` scans coordinate lines.  On an LQ problem
        H is concave in u and its maximum over the box is a box QP, so at
        each scanned node the exact gap is known: the reported gap lies
        between it minus twice the slack and it."""
        from sampled_ocp.reference_oracles import _ReducedQp, _solve_box_qp
        e = _m3_lq_extremal(R)
        prob, U = e.problem, e.problem.control_set
        res = hm_gap(e, density=101, time_stride=32)
        exact, clipped = [], 0
        for k in range(0, e.x.grid.times.size, 32):
            t = float(e.x.grid.times[k])
            x, p = e.x.states[k], e.p.costates[k]
            # max over the box of p'w - w'Rw/2, the u-dependent part of H
            w, _, _ = _solve_box_qp(_ReducedQp.model(prob.lq.R, -p),
                                    U.lower, U.upper)
            clipped += bool(np.any(np.abs(w) == 2.0))
            exact.append(hamiltonian(prob, x, w, p, -1.0, t)
                         - hamiltonian(prob, x, e.u.value(t), p, -1.0,
                                       t))
        exact = np.asarray(exact)
        assert clipped > 0 and exact.max() > 2.0 * res.slack
        assert np.all(res.per_node <= exact + 1e-12)
        assert np.all(res.per_node >= exact - 2.0 * res.slack)


@pytest.mark.parametrize("fixture, tol", [("lq_oracle_extremal", 1e-9),
                                          ("di_probe_extremal", 1e-8)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lift_value_is_the_averaged_gradient_pairing(request, fixture, tol,
                                                     data):
    """z_v(T) = sum_i G_i . (v_i - u_i), with G the interval integrals of
    grad_u H that `ahg` reads: the adjoint identity ties the lift section
    to the averaged condition.  On the exact optimum both sides vanish;
    the probe extremal is no optimum, |z| reaches about 10, and RK4 and
    Simpson at h = 1/64 leave a few 1e-9 between the two sides."""
    e = request.getfixturevalue(fixture)
    e = e[0] if isinstance(e, tuple) else e
    lo, up = e.problem.control_set.bounding_box()
    values = np.array([[data.draw(st.floats(float(lo[j]), float(up[j])))
                        for j in range(e.problem.m)]
                       for _ in range(e.u.partition.N)])
    v = PiecewiseConstantControl(e.u.partition, values)
    G = interval_grad_integrals(e.problem, e.x.grid, e.x.states, e.u,
                                e.p.costates, e.p0)
    pairing = float(np.sum(G * (values - e.u.values)))
    assert lift_inequality(e, v) == pytest.approx(pairing, abs=tol)


# bundles stored with the benchmark; tests only read them
_BUNDLES = Path(__file__).resolve().parents[1] / "perfbench" / "bundles"


def _bundle_extremal(name, shifted):
    """The extremal `check` builds from a stored bundle; `shifted` moves
    one interior costate node by 0.05, as a corrupted bundle would."""
    root = _BUNDLES / name
    prob = load_problem_config(str(root / "problem.json"))
    u = read_control_csv(str(root / "control.csv"))
    x = read_state_csv(str(root / "state.csv"), prob, u)
    _, P, p0 = read_costate_csv(str(root / "costate.csv"))
    if shifted:
        P = P.copy()
        P[P.shape[0] // 3, 0] += 0.05
    return Extremal(prob, x, u, costate_from_nodes(x.grid, P, p0), p0,
                    feas_tol=1.0)


def _per_node_ae(e):
    """The adjoint defect node by node: on each side of node k, the norm
    of the stored derivative minus -f_x' p - p0 L_x with that side's
    segment control, by one product per node."""
    prob, x, p = e.problem, e.x, e.p
    u = e.linearization.stage_controls
    times = x.grid.times
    res = np.zeros(times.size)
    for k in range(x.grid.K):
        for node, side, deriv in ((k, 0, p.deriv_right[k]),
                                  (k + 1, 2, p.deriv_left[k + 1])):
            args = (x.states[node], u[k, side], times[node])
            rhs = (-prob.dynamics_jac_x(*args).T @ p.costates[node]
                   - e.p0 * prob.cost_grad_x(*args))
            res[node] = max(res[node], float(np.linalg.norm(deriv - rhs)))
    return res


class TestAdjointProfile:
    @pytest.mark.parametrize("shifted", [False, True],
                             ids=["stored", "shifted"])
    @pytest.mark.parametrize("name", ["v0/lq", "v0/aq", "cubic"])
    def test_profile_is_the_per_node_loop(self, name, shifted):
        """`ae_residual` reads its tables in one array expression per side
        of a node; its profile is the per-node loop's, bit for bit."""
        e = _bundle_extremal(name, shifted)
        res = ae_residual(e)
        np.testing.assert_array_equal(res.per_node, _per_node_ae(e))
        assert res.sup == float(np.max(res.per_node))
        if shifted:
            assert res.sup > 1e-3


class TestProbeBudget:
    def test_count_over_budget_refused_before_any_draw(self,
                                                       lq_oracle_extremal,
                                                       monkeypatch):
        """A count whose probes times grid steps exceed MAX_PROBE_STEPS
        raises a `ValueError` naming `lift_probes` before a probe is drawn
        or a march runs."""
        import sampled_ocp.pmp_check as pmp_module
        e, _ = lq_oracle_extremal
        monkeypatch.setattr(pmp_module, "random_admissible_control",
                            lambda *args: pytest.fail("probe drawn"))
        monkeypatch.setattr(pmp_module, "ae_residual",
                            lambda *args: pytest.fail("residual computed"))
        for count in (MAX_PROBE_STEPS // e.x.grid.K + 1, 10 ** 9):
            with pytest.raises(ValueError, match="lift_probes"):
                evaluate_extremal(e, lift_probes=count)

    def test_default_count_fits_two_hundred_thousand_steps(self):
        assert probe_count("n", 20, 200_000) == 20
        assert probe_count("n", 20, MAX_PROBE_STEPS // 20) == 20
        with pytest.raises(ValueError, match="n = 20 on"):
            probe_count("n", 20, MAX_PROBE_STEPS // 20 + 1)

    @pytest.mark.parametrize("empty", [[], ()], ids=["list", "tuple"])
    def test_empty_probe_list_refused(self, lq_oracle_extremal, empty):
        e, _ = lq_oracle_extremal
        with pytest.raises(ValueError, match="at least one probe"):
            lift_inequality(e, empty)


def _permanent_extremal(di_problem, reference, h_max, feas_tol=1e-6):
    """The permanent LQ optimum as a callable control on a grid without
    a partition, with its costate marched back from the reference's."""
    grid = build_time_grid(1.0, None, h_max=h_max)
    u = reference.u.at
    x = integrate_state(di_problem, u, grid)
    p = integrate_costate(di_problem, x, u, p0=-1.0,
                          pT=reference.p.at(1.0))
    return Extremal(di_problem, x, u, p, -1.0, feas_tol=feas_tol)


class TestProbePartition:
    def test_probes_on_any_grid(self, di_problem, di_reference):
        """On K = 1004 steps the eight probe intervals end at grid nodes,
        so a permanent control's report marches its probes."""
        e = _permanent_extremal(di_problem, di_reference, 1.0 / 1002)
        assert e.x.grid.K == 1004
        report = evaluate_extremal(e, lift_probes=3)
        assert report.lift_probe_count == 3
        assert report.lift_inequality_worst <= 1e-9

    def test_aligned_grid_keeps_the_eight_equal_intervals(self, di_problem,
                                                          di_reference):
        """Where the eight equal intervals end at nodes (K = 1024), the
        probes are the ones drawn on them, and so is the lift value."""
        e = _permanent_extremal(di_problem, di_reference, 1.0 / 1024)
        assert e.x.grid.K == 1024
        rng = np.random.default_rng(0)
        probes = [random_admissible_control(
            di_problem, uniform_partition(8, 1.0), rng) for _ in range(3)]
        report = evaluate_extremal(e, lift_probes=3)
        assert report.lift_inequality_worst == lift_inequality(e, probes)

    @pytest.mark.parametrize("steps", [2, 6])
    def test_short_grid_drops_repeated_ends(self, di_problem, di_reference,
                                            steps):
        """A grid of fewer than eight steps gives one interval per step."""
        e = _permanent_extremal(di_problem, di_reference, 1.0 / steps,
                                feas_tol=1.0)
        assert e.x.grid.K == steps
        np.testing.assert_array_equal(_probe_partition(e).times,
                                      e.x.grid.times)
        report = evaluate_extremal(e, lift_probes=2)
        assert report.lift_probe_count == 2
