"""Refinement sweeps, report format, verdicts."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import sampled_ocp.convergence_harness as harness
from sampled_ocp import (PermanentReference, SolverOptions, SweepConfig,
                         build_problem, resample_onto, solve,
                         solve_lq_permanent, solve_lq_sampled_exact, sweep,
                         uniform_partition)
from sampled_ocp.convergence_harness import (REPORT_HEADER, _decreasing_with_noise,
                                             SWEEP_SOLVER_OPTIONS,
                                             fit_rates, write_report)
from sampled_ocp.errors import GridAlignmentError
from sampled_ocp.problem_model import distance_to


class TestSweepOnDoubleIntegrator:
    def test_errors_shrink(self, di_sweep):
        report, _ = di_sweep
        for name in ("state_sup_err", "cost_err", "costate_sup_err"):
            vals = [getattr(r, name) for r in report.rows]
            assert vals[-1] <= 0.1 * vals[0]
            assert _decreasing_with_noise(vals)

    def test_all_rows_certified(self, di_sweep):
        report, _ = di_sweep
        assert len(report.rows) == 6
        assert not report.failures
        assert report.verdicts["all_rows_certified"]

    def test_cost_floor_and_monotone(self, di_sweep, di_reference):
        report, _ = di_sweep
        costs = [r.cost for r in report.rows]
        assert all(c >= di_reference.cost - 1e-7 for c in costs)
        assert all(b <= a + 1e-7 for a, b in zip(costs, costs[1:]))
        assert report.verdicts["cost_floor"]
        assert report.verdicts["cost_monotone_dyadic"]

    def test_sampled_oracle_cost_cross_check(self, di_sweep, di_problem,
                                             di_reference):
        """The row cost gap agrees with |oracle cost - permanent cost|."""
        report, _ = di_sweep
        row8 = next(r for r in report.rows if r.N == 8)
        oracle = solve_lq_sampled_exact(di_problem.lq, uniform_partition(8, 1.0),
                                        di_problem.control_set)
        assert row8.cost_err == pytest.approx(
            abs(oracle.cost - di_reference.cost), abs=1e-8)

    def test_normality_and_terminal_costate_bounded(self, di_sweep,
                                                    di_reference):
        report, _ = di_sweep
        ref_pT = np.linalg.norm(di_reference.p.at(1.0))
        for row in report.rows:
            assert row.p0 == -1.0
            assert row.costate_terminal_norm <= 10.0 * ref_pT + 1.0
        assert report.verdicts["normality"]

    def test_rates_reported_not_asserted(self, di_sweep):
        report, _ = di_sweep
        for name, slope in report.rates.items():
            assert slope is None or np.isfinite(slope)
        # the state error should shrink at least first order in the norm
        assert report.rates["state_sup_err"] >= 0.8

    def test_limitation_note_present(self, di_sweep):
        report, _ = di_sweep
        assert any("global optimality" in n for n in report.notes)


class TestCascadeCarriesPenalty:
    """The first cascade row starts from the reference, each later row
    from its coarser row's control and multiplier; a cold row starts from
    neither."""

    def test_cascade_work_budget(self, di_problem, di_reference,
                                 monkeypatch):
        """Rows N = 2..64 take 6 SQP iterations, one per row, and 6
        builds of C = dx(T)/du, one per row.  From diag(h_i) in place of
        the exact sampled Hessian they took 19 and 6; a cold augmented
        Lagrangian in the first row 30 and 8; restarting rho at
        PENALTY_INIT in every row 70 and 18."""
        import sampled_ocp.solver_sampled as solver_module
        builds = []
        build = solver_module._terminal_jacobian

        def counted(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_terminal_jacobian", counted)
        cfg = SweepConfig(problem=di_problem, reference=di_reference,
                          resolutions=(2, 4, 8, 16, 32, 64))
        report, solutions = sweep(cfg, return_solutions=True)
        assert report.verdicts and report.all_pass()
        assert sum(s.diagnostics.iterations for s in solutions.values()) <= 6
        assert len(builds) <= 6

    def test_every_row_takes_sqp_steps(self, di_sweep):
        """No row runs multiplier rounds: the first starts from the
        reference, the others from the coarser row."""
        _, solutions = di_sweep
        assert [s.diagnostics.outer_iterations
                for s in solutions.values()] == [0] * 6

    def test_first_row_matches_cold_solve(self, di_sweep, di_problem):
        """Started from the reference, the N = 2 row reaches the optimum
        the independent cold solve reaches."""
        _, solutions = di_sweep
        cold = solve(di_problem, uniform_partition(2, 1.0),
                     SWEEP_SOLVER_OPTIONS)
        assert solutions[2].cost == pytest.approx(cold.cost, rel=1e-9)
        np.testing.assert_allclose(solutions[2].control.values,
                                   cold.control.values, rtol=0, atol=1e-6)

    def test_first_row_start_lies_in_the_box(self, monkeypatch):
        """Under u_bound=4 from (0.9, 0) the reference control leaves the
        box; the first row starts from its projection."""
        prob = build_problem("lq_double_integrator", u_bound=4.0,
                             x0=[0.9, 0.0])
        ref = solve_lq_permanent(prob.lq)
        assert np.max(np.abs(ref.u.sample(np.linspace(0, 1, 9)))) > 4.0
        starts = []

        def recording_solve(prob, partition, opts, **warm):
            starts.append(warm)
            return solve(prob, partition, opts, **warm)

        monkeypatch.setattr(harness, "solve", recording_solve)
        sweep(SweepConfig(problem=prob, reference=ref, resolutions=(4, 8),
                          comparison_points=257))
        first = starts[0]
        assert np.max(distance_to(prob.control_set,
                                  first["warm_start"].values)) == 0.0
        assert np.max(np.abs(first["warm_start"].values)) == 4.0
        np.testing.assert_array_equal(first["warm_multiplier"],
                                      -ref.p.at(1.0))

    def test_piecewise_constant_reference_start(self, di_sweep, di_problem):
        """A fine-surrogate reference carries a piecewise-constant
        control: the first row starts from its value at each midpoint,
        as `resample_onto` reads it, and takes SQP steps from there."""
        _, solutions = di_sweep
        fine = solutions[64]
        ref = PermanentReference(x=fine.state, u=fine.control,
                                 p=fine.costate, p0=-1.0, cost=fine.cost,
                                 provenance="test")
        partition = uniform_partition(2, 1.0)
        start = harness._reference_start(di_problem, ref, partition)
        np.testing.assert_array_equal(
            start["warm_start"].values,
            resample_onto(fine.control, partition).values)
        _, rows = sweep(SweepConfig(problem=di_problem, reference=ref,
                                    resolutions=(2,), comparison_points=257),
                        return_solutions=True)
        assert rows[2].diagnostics.outer_iterations == 0

    def test_unreachable_sweep_fails_as_cold(self):
        """No control in [-0.1, 0.1] reaches the target: the cascade
        records the same failures, row by row, as the cold sweep."""
        prob = build_problem("lq_double_integrator", u_bound=0.1)
        ref = solve_lq_permanent(prob.lq)
        failures = {
            policy: sweep(SweepConfig(problem=prob, reference=ref,
                                      resolutions=(2, 4, 8),
                                      warm_start_policy=policy,
                                      comparison_points=257)).failures
            for policy in ("cascade", "cold")}
        assert [f["N"] for f in failures["cold"]] == [2, 4, 8]
        assert failures["cascade"] == failures["cold"]

    def test_cold_rows_equal_independent_cold_solves(self, di_problem,
                                                     di_reference):
        cfg = SweepConfig(problem=di_problem, reference=di_reference,
                          resolutions=(2, 4), warm_start_policy="cold",
                          comparison_points=257)
        _, solutions = sweep(cfg, return_solutions=True)
        assert sorted(solutions) == [2, 4]
        for N, sol in solutions.items():
            cold = solve(di_problem, uniform_partition(N, 1.0),
                         SWEEP_SOLVER_OPTIONS)
            np.testing.assert_array_equal(sol.control.values,
                                          cold.control.values)
            np.testing.assert_array_equal(sol.multiplier, cold.multiplier)
            np.testing.assert_array_equal(sol.costate.costates,
                                          cold.costate.costates)
            assert sol.cost == cold.cost
            assert sol.diagnostics == cold.diagnostics


class TestDegenerateSweep:
    @pytest.mark.parametrize("pT", [[np.nan, 0.0], [1.0], [np.inf, 1.0]],
                             ids=["nan", "one_value", "inf"])
    def test_unusable_reference_costate_refused(self, di_problem,
                                                di_reference, pT):
        """The cascade's first row starts from -p_ref(T); a reference
        whose p(T) is not n finite values is refused before any solve."""
        bad_p = SimpleNamespace(at=lambda t: np.array(pT))
        with pytest.raises(ValueError, match="reference costate"):
            SweepConfig(problem=di_problem,
                        reference=dataclasses.replace(di_reference, p=bad_p))

    @pytest.mark.parametrize("points", [0, 1])
    def test_too_few_comparison_points_refused(self, di_problem,
                                               di_reference, points):
        """One point compares only x(0) = x0 with itself, and none fails
        after the first row is solved; both are refused up front."""
        with pytest.raises(ValueError, match="comparison_points"):
            SweepConfig(problem=di_problem, reference=di_reference,
                        comparison_points=points)

    def test_zero_transfer_rows(self):
        prob = build_problem("lq_generic", A=0.0, B=1.0, Q=1.0, R=1.0,
                             x0=[0.0, 0.0], xT=[0.0, 0.0])
        ref = solve_lq_permanent(prob.lq)
        cfg = SweepConfig(problem=prob, reference=ref, resolutions=(2, 4, 8),
                          comparison_points=513)
        report = sweep(cfg)
        for row in report.rows:
            assert row.cost_err == 0.0
            assert row.state_sup_err == 0.0

    def test_ungriddable_step_bound_raised(self, di_problem, di_reference):
        """A step bound under which no grid can be built is not a row
        failure: `sweep` raises the `GridAlignmentError` of its first
        solve."""
        cfg = SweepConfig(problem=di_problem, reference=di_reference,
                          resolutions=(2, 4),
                          solver_options=SolverOptions(h_max=1e-300))
        with pytest.raises(GridAlignmentError, match="grid steps"):
            sweep(cfg)


class TestCertificationGate:
    def test_uncertified_rows_flagged_not_included(self, di_problem,
                                                   di_reference):
        """Rows whose lift misses the residual gate land in `failures`
        with an explicit reason instead of entering the CSV."""
        loose = SolverOptions(feas_tol=0.5, stat_tol=0.5)
        cfg = SweepConfig(problem=di_problem, reference=di_reference,
                          resolutions=(2,), comparison_points=257,
                          solver_options=loose)
        report = sweep(cfg)
        assert not report.rows
        assert report.failures and \
            report.failures[0]["error"] == "certification"
        assert not report.verdicts["all_rows_certified"]


class TestReportFormat:
    def test_csv_header_exact(self, di_sweep):
        report, _ = di_sweep
        text = report.to_csv()
        assert text.splitlines()[0] == REPORT_HEADER
        assert REPORT_HEADER == ("N,partition_norm,cost,cost_err,"
                                 "state_sup_err,costate_sup_err,"
                                 "ahg_sup_residual,feasibility,iterations")

    def test_csv_significant_digits(self, di_sweep):
        report, _ = di_sweep
        line = report.to_csv().splitlines()[1].split(",")
        # cost column round-trips through repr at 17 significant digits
        assert float(line[2]) == report.rows[0].cost

    def test_write_report_files(self, di_sweep, tmp_path):
        report, _ = di_sweep
        write_report(tmp_path / "report.csv", tmp_path / "summary", report)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + len(report.rows)
        summary = (tmp_path / "summary").read_text()
        assert "verdicts" in summary and "rates" in summary

    def test_single_row_rates_not_available(self, di_problem, di_reference,
                                            di_sweep):
        _, solutions = di_sweep
        rows = []  # reuse machinery on one row only
        from sampled_ocp.convergence_harness import ConvergenceRow
        r = ConvergenceRow(N=8, partition_norm=0.125, cost=1.0, cost_err=0.1,
                           state_sup_err=0.1, costate_sup_err=0.1,
                           ahg_sup_residual=0.0, feasibility=0.0,
                           iterations=1, certified=True, p0=-1.0,
                           costate_terminal_norm=1.0)
        assert fit_rates([r]) == {"cost_err": None, "state_sup_err": None,
                                  "costate_sup_err": None}


class TestDecreasingWithNoise:
    def test_strict(self):
        assert _decreasing_with_noise([4.0, 2.0, 1.0])

    def test_one_noise_step_allowed(self):
        assert _decreasing_with_noise([4.0, 2.0, 2.04, 1.0])

    def test_two_noise_steps_rejected(self):
        assert not _decreasing_with_noise([4.0, 4.1, 4.2, 1.0])

    def test_large_jump_rejected(self):
        assert not _decreasing_with_noise([4.0, 5.0, 1.0])

