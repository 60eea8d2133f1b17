"""Exit-code contract and file outputs of the command-line front end."""

import json
import os

import numpy as np
import pytest

from sampled_ocp import cli


@pytest.fixture(scope="module")
def di_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle_di")
    code = cli.main(["solve", "--problem", "lq_double_integrator",
                     "--N", "8", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cubic_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle_cubic")
    code = cli.main(["solve", "--problem", "cubic_counterexample",
                     "--N", "4", "--out", str(out)])
    assert code == 0
    return out


class TestSolve:
    def test_bundle_files_written(self, di_bundle):
        for name in ("control.csv", "state.csv", "costate.csv", "summary"):
            assert (di_bundle / name).exists()

    def test_cost_matches_oracle(self, di_bundle):
        from sampled_ocp import (build_problem, solve_lq_sampled_exact,
                                 uniform_partition)
        prob = build_problem("lq_double_integrator")
        oracle = solve_lq_sampled_exact(prob.lq, uniform_partition(8, 1.0),
                                        prob.control_set)
        summary = json.loads((di_bundle / "summary").read_text())
        assert summary["cost"] == pytest.approx(oracle.cost, abs=1e-6)

    def test_cubic_zero_solution(self, cubic_bundle):
        summary = json.loads((cubic_bundle / "summary").read_text())
        assert summary["cost"] == 0.0
        assert summary["feasibility"] == 0.0

    def test_missing_partition_is_usage_error(self, tmp_path):
        code = cli.main(["solve", "--problem", "lq_double_integrator",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_unknown_problem_is_usage_error(self, tmp_path):
        code = cli.main(["solve", "--problem", "nonsense", "--N", "4",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_bad_config_line_anchored(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{\n  "problem": oops\n}')
        code = cli.main(["solve", "--config", str(cfg), "--N", "4",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert ":2:" in err

    def test_solver_failure_exit(self, tmp_path):
        cfg = tmp_path / "unreachable.json"
        cfg.write_text(json.dumps({
            "problem": "lq_double_integrator",
            "params": {"u_bound": 0.1},
        }))
        code = cli.main(["solve", "--config", str(cfg), "--N", "4",
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_certification_failure_exit(self, tmp_path):
        """Stopping at a loose stationarity leaves the averaged-gradient
        residual above the certification threshold."""
        code = cli.main(["solve", "--problem", "lq_double_integrator",
                         "--N", "4", "--stat-tol", "0.5",
                         "--feas-tol", "0.5", "--out", str(tmp_path)])
        assert code == 3

    def test_times_file(self, tmp_path):
        times = tmp_path / "times.txt"
        times.write_text("0.0\n0.25\n0.5\n1.0\n")
        out = tmp_path / "o"
        code = cli.main(["solve", "--problem", "cubic_counterexample",
                         "--times-file", str(times), "--out", str(out)])
        assert code == 0
        rows = (out / "control.csv").read_text().splitlines()
        assert len(rows) == 4  # header + 3 intervals

    def test_h_max_flag_controls_grid(self, tmp_path):
        out = tmp_path / "coarse"
        code = cli.main(["solve", "--problem", "cubic_counterexample",
                         "--N", "2", "--h-max", "0.25", "--out", str(out)])
        assert code == 0
        rows = (out / "state.csv").read_text().splitlines()
        assert len(rows) == 6  # header + 5 nodes (2 intervals x 2 steps)

    @pytest.mark.parametrize("flag", ["--feas-tol", "--stat-tol", "--h-max",
                                      "--max-outer", "--max-inner"])
    def test_nonpositive_solver_option_is_usage_error(self, tmp_path, flag):
        code = cli.main(["solve", "--problem", "lq_double_integrator",
                         "--N", "2", flag, "0", "--out", str(tmp_path)])
        assert code == 1

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "noradius.json"
        cfg.write_text(json.dumps({
            "problem": "lq_double_integrator",
            "control_set": {"kind": "ball", "center": [0.0]}}))
        code = cli.main(["solve", "--config", str(cfg), "--N", "2",
                         "--out", str(tmp_path)])
        assert code == 1


class TestCheck:
    def test_bundle_passes(self, di_bundle):
        code = cli.main(["check", str(di_bundle), "--problem",
                         "lq_double_integrator"])
        assert code == 0

    def test_cubic_weak_lift_passes_without_hm(self, cubic_bundle, tmp_path):
        """The stored costate is the solver's p = 0 certificate; check the
        paper-grade lift p = 1 instead by rewriting the costate file."""
        # overwrite costate with the unit lift, still solving the adjoint
        lines = (cubic_bundle / "costate.csv").read_text().splitlines()
        header = lines[0]
        out = [header]
        for line in lines[1:]:
            t = line.split(",")[0]
            out.append(f"{t},1,-1")
        (cubic_bundle / "costate.csv").write_text("\n".join(out) + "\n")
        code = cli.main(["check", str(cubic_bundle), "--problem",
                         "cubic_counterexample"])
        assert code == 0

    def test_cubic_require_hm_fails(self, cubic_bundle, capsys):
        code = cli.main(["check", str(cubic_bundle), "--problem",
                         "cubic_counterexample", "--require-hm"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["sections"]["hm"]["value"] == pytest.approx(1.0, abs=0.01)

    def test_corrupted_costate_is_parse_error(self, di_bundle, tmp_path):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(di_bundle, broken)
        path = broken / "costate.csv"
        text = path.read_text().splitlines()
        text[3] = text[3].replace(",", ";")
        path.write_text("\n".join(text) + "\n")
        code = cli.main(["check", str(broken), "--problem",
                         "lq_double_integrator"])
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--probes", "-1"),
                                             ("--p0", "1")])
    def test_out_of_range_flag_is_usage_error(self, di_bundle, flag, value):
        code = cli.main(["check", str(di_bundle), "--problem",
                         "lq_double_integrator", flag, value])
        assert code == 1

    def test_missing_bundle_dir(self, tmp_path):
        code = cli.main(["check", str(tmp_path / "nope"), "--problem",
                         "lq_double_integrator"])
        assert code == 1


class TestConverge:
    def test_small_sweep_passes(self, tmp_path):
        out = tmp_path / "report"
        code = cli.main(["converge", "--problem", "lq_double_integrator",
                         "--Ns", "2,4,8", "--out", str(out)])
        assert code == 0
        text = (out / "report.csv").read_text()
        assert text.splitlines()[0].startswith("N,partition_norm,cost")
        assert len(text.splitlines()) == 4

    def test_single_row_rates_na(self, tmp_path, capsys):
        out = tmp_path / "single"
        code = cli.main(["converge", "--problem", "lq_double_integrator",
                         "--Ns", "8", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary").read_text())
        assert summary["rates"]["state_sup_err"] is None

    def test_unknown_problem(self, tmp_path):
        code = cli.main(["converge", "--problem", "nope", "--Ns", "2,4",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_reference_rejection_exit(self, tmp_path):
        code = cli.main(["converge", "--problem", "affine_quadratic",
                         "--Ns", "2,4", "--surrogate-N", "64",
                         "--out", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize("ns", ["0", "2,0", "4,2"])
    def test_bad_resolutions_are_usage_error(self, tmp_path, ns):
        code = cli.main(["converge", "--problem", "lq_double_integrator",
                         "--Ns", ns, "--out", str(tmp_path)])
        assert code == 1

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAMPLED_OCP_OUT", str(tmp_path))
        code = cli.main(["converge", "--problem", "lq_double_integrator",
                         "--Ns", "2"])
        assert code == 0
        assert (tmp_path / "report" / "report.csv").exists()

    def test_jobs_flag_cold_rows(self, tmp_path):
        """Cold-start rows through the CLI; the degenerate zero-transfer
        problem keeps every row instant."""
        out = tmp_path / "jobs"
        code = cli.main(["converge", "--problem", "lq_generic",
                         "--Ns", "2,4",
                         "--warm-start", "cold", "--out", str(out)])
        assert code == 0
        assert len((out / "report.csv").read_text().splitlines()) == 3


class TestCatalog:
    def test_lists_problems(self, capsys):
        assert cli.main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("cubic_counterexample", "lq_double_integrator",
                     "lq_generic", "affine_quadratic"):
            assert name in out

    def test_no_subcommand_usage(self):
        assert cli.main([]) == 1
