"""Refinement sweeps, report format, verdicts."""

import numpy as np
import pytest

from sampled_ocp import (SolverOptions, SweepConfig, build_problem,
                         solve_lq_permanent, solve_lq_sampled_exact, sweep,
                         uniform_partition)
from sampled_ocp.convergence_harness import (REPORT_HEADER, _decreasing_with_noise,
                                             fit_rates, write_report)


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


class TestDegenerateSweep:
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

