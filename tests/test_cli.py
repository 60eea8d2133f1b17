"""Exit-code contract and file outputs of the command-line front end."""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sampled_ocp import SolverOptions, cli, integrate

# check bundles stored with the benchmark; tests only read them
BUNDLES = Path(__file__).resolve().parents[1] / "perfbench" / "bundles"

# config overrides that no problem can hold: JSON's Infinity and NaN, and
# an endpoint past BLOWUP_NORM, where every march stops
UNHOLDABLE_OVERRIDES = [{"horizon": math.inf}, {"horizon": math.nan},
                        {"x0": [math.nan, 0.0]}, {"xT": [0.0, -math.inf]},
                        {"x0": [0.0, 1e308]}]
UNHOLDABLE_IDS = ["horizon_inf", "horizon_nan", "x0_nan", "xT_neg_inf",
                  "x0_1e308"]


def _write_config(path, config):
    """`config` as JSON, with non-finite numbers as Infinity and NaN."""
    path.write_text(json.dumps(config))
    return str(path)


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

    @pytest.mark.parametrize("text", ["0\n0.5\n2\n", "0\n0.5\ninf\n",
                                      "0\nnan\n1\n"],
                             ids=["past_horizon", "inf", "nan"])
    def test_bad_times_file_is_usage_error(self, tmp_path, text):
        """A times file that ends off the problem horizon or holds a
        non-finite time exits 1."""
        times = tmp_path / "times.txt"
        times.write_text(text)
        code = cli.main(["solve", "--problem", "lq_double_integrator",
                         "--times-file", str(times),
                         "--out", str(tmp_path / "o")])
        assert code == 1

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

    @pytest.mark.parametrize("flags", [["--h-max", "nan"],
                                       ["--h-max", "1e-300"],
                                       ["--feas-tol", "inf"],
                                       ["--stat-tol", "nan"]],
                             ids=["h_max_nan", "h_max_tiny", "feas_tol_inf",
                                  "stat_tol_nan"])
    def test_hostile_solver_option_is_usage_error(self, tmp_path, capsys,
                                                   flags):
        """A NaN step bound, a grid too large to allocate and a tolerance
        no solve can meet (or one every solve meets) exit 1 without a
        traceback; no bundle is written."""
        out = tmp_path / "o"
        code = cli.main(["solve", "--problem", "lq_double_integrator",
                         "--N", "2", *flags, "--out", str(out)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "summary").exists()

    def test_grid_over_the_step_bound_is_usage_error(self, tmp_path, capsys):
        """`--h-max 1e-9` asks for 1e9 steps on the unit horizon, more
        than `MAX_GRID_STEPS`: refused on the count, before any node and
        before the output directory is made."""
        out = tmp_path / "o"
        code = cli.main(["solve", "--problem", "lq_double_integrator",
                         "--N", "2", "--h-max", "1e-9", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--h-max" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["solve", "--problem", "lq_double_integrator", "--N", "10000000"],
         "--N"),
        (["solve", "--problem", "lq_double_integrator",
          "--N", "1000000000000"], "--N"),
        (["converge", "--problem", "lq_double_integrator",
          "--Ns", "2,10000000"], "--Ns"),
        (["converge", "--problem", "lq_double_integrator",
          "--Ns", "2,1000000000000"], "--Ns"),
        (["converge", "--problem", "affine_quadratic", "--Ns", "2,4",
          "--surrogate-N", "1000000000000"], "--surrogate-N")],
        ids=["N1e7", "N1e12", "Ns1e7", "Ns1e12", "surrogate1e12"])
    def test_ungriddable_resolution_is_refused_at_once(self, tmp_path,
                                                       capsys, argv, flag):
        """Every interval takes at least two grid steps, so an N above
        MAX_GRID_STEPS // 2 is a usage error naming its flag, refused
        before any partition or grid takes memory."""
        out = tmp_path / "o"
        start = time.perf_counter()
        code = cli.main([*argv, "--out", str(out)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"usage error: {flag}: ")
        assert "Traceback" not in err
        assert not out.exists()
        assert elapsed < 0.5

    def test_times_file_past_the_bound_is_usage_error(self, tmp_path, capsys,
                                                      monkeypatch):
        """A times file is held to the same bound (lowered here to 8
        intervals) before its partition is built."""
        monkeypatch.setattr(cli.harness, "MAX_GRID_STEPS", 16)
        times = tmp_path / "times"
        times.write_text("\n".join(map(str, np.linspace(0.0, 1.0, 10).tolist())))
        out = tmp_path / "o"
        code = cli.main(["solve", "--problem", "lq_double_integrator",
                         "--times-file", str(times), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "usage error: --times-file: N = 9 ")
        assert not out.exists()

    def test_grid_error_names_h_max_only_when_given(self, tmp_path, capsys,
                                                    monkeypatch):
        """Without --h-max the grid comes from the partition, so a grid
        over the (here lowered) step bound names the resolution's flag."""
        monkeypatch.setattr(integrate, "MAX_GRID_STEPS", 64)
        code = cli.main(["solve", "--problem", "lq_double_integrator",
                         "--N", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: --N: h_max")

    @pytest.mark.parametrize("command", [["solve", "--N", "2"],
                                         ["converge", "--Ns", "2"]],
                             ids=["solve", "converge"])
    def test_out_under_a_file_is_usage_error(self, tmp_path, capsys,
                                             command):
        """An output directory that cannot be made exits 1 with one
        line, not a `NotADirectoryError` traceback."""
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = cli.main([command[0], "--problem", "lq_double_integrator",
                         *command[1:], "--out", str(blocker / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --out:")
        assert len(err.splitlines()) == 1

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "noradius.json"
        cfg.write_text(json.dumps({
            "problem": "lq_double_integrator",
            "control_set": {"kind": "ball", "center": [0.0]}}))
        code = cli.main(["solve", "--config", str(cfg), "--N", "2",
                         "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("override", UNHOLDABLE_OVERRIDES,
                             ids=UNHOLDABLE_IDS)
    def test_non_finite_config_is_usage_error(self, tmp_path, capsys,
                                              override):
        cfg = _write_config(tmp_path / "c.json",
                            {"problem": "lq_double_integrator", **override})
        code = cli.main(["solve", "--config", cfg, "--N", "2",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad problem specification" in err and "Traceback" not in err

@pytest.mark.parametrize("command", [["solve", "--N", "4"],
                                     ["converge", "--Ns", "2,4"]],
                         ids=["solve", "converge"])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, command):
    """`u_bound` belongs under `params`.  At the top level it was ignored,
    and `converge` exited 0 on the u_bound=20 problem where the intended
    sweep exits 3; now the CLI exits 1 naming the key, with no traceback
    and no output directory."""
    cfg = _write_config(tmp_path / "c.json", {
        "problem": "lq_double_integrator", "u_bound": 4.0, "x0": [0.9, 0.0]})
    out = tmp_path / "o"
    code = cli.main([command[0], "--config", cfg, *command[1:],
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad problem specification" in err and "'u_bound'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("control_set", [
    {"kind": "ball", "center": [1e308], "radius": 1e308},
    {"kind": "box", "lower": [1e308], "upper": [1e308]}],
    ids=["ball", "box"])
@pytest.mark.parametrize("command", [["solve", "--N", "4"],
                                     ["converge", "--Ns", "2,4"]],
                         ids=["solve", "converge"])
def test_oversized_control_set_is_usage_error(tmp_path, capsys, command,
                                              control_set):
    """Set data past BLOWUP_NORM is refused where the set is built, as an
    endpoint is.  At 1e308, numpy's overflow warning from `Ball.project`
    came first, then a solver blow-up (`solve`) or a rejected reference
    (`converge`)."""
    cfg = _write_config(tmp_path / "c.json", {
        "problem": "lq_double_integrator", "control_set": control_set})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command[0], "--config", cfg, *command[1:],
                         "--out", str(tmp_path / "o")])
    assert code == 1 and caught == []
    err = capsys.readouterr().err
    assert "bad problem specification" in err and "1e+12" in err
    assert "Warning" not in err and "Traceback" not in err


@pytest.mark.parametrize("command,flag", [
    (["converge", "--Ns", ""], "--Ns"), (["solve", "--N", "0"], "--N")],
    ids=["converge_Ns_empty", "solve_N_zero"])
def test_falsy_resolution_is_refused_by_its_flag(tmp_path, capsys, command,
                                                 flag):
    """A given but falsy resolution goes through the resolution check.
    `--Ns ""` used to run the default sweep and exit 0, and `--N 0` was
    read as no --N at all."""
    out = tmp_path / "o"
    code = cli.main([command[0], "--problem", "lq_double_integrator",
                     *command[1:], "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag}: ") and "Traceback" not in err
    assert not out.exists()


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

    @pytest.mark.parametrize("name, ae", [
        ("v0/lq", 4.9301065011933545e-12),
        ("v0/aq", 2.2561524905572245e-09),
        ("cubic", 0.0),
    ])
    def test_stored_bundle_ae_value(self, name, ae, capsys):
        """A bundle costate's derivatives come from its nodes, interval by
        interval; the adjoint residual keeps its value to the last bit."""
        bundle = BUNDLES / name
        code = cli.main(["check", str(bundle), "--config",
                         str(bundle / "problem.json"), "--probes", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sections"]["ae"]["value"] == ae

    @pytest.mark.parametrize("filename, column, value, extra", [
        ("state.csv", 1, "nan", []),
        ("control.csv", 2, "nan", []),
        ("costate.csv", 1, "nan", []),
        ("state.csv", 2, None, []),
        ("costate.csv", 2, None, []),
        (None, None, None, ["--p0", "nan"]),
    ], ids=["state_nan", "control_nan", "costate_nan", "state_narrow",
            "costate_narrow", "p0_nan"])
    def test_malformed_numbers_exit_1(self, tmp_path, filename, column, value,
                                      extra):
        """Non-finite or wrong-width bundle numbers and a non-finite --p0
        are malformed input, never a certificate.  A `value` replaces
        `column` in one data row; without one the column is dropped."""
        bundle = shutil.copytree(BUNDLES / "v0" / "aq", tmp_path / "b")
        if filename is not None:
            path = bundle / filename
            rows = [line.split(",") for line in path.read_text().splitlines()]
            if value is not None:
                rows[5][column] = value
            else:
                rows = [row[:column] + row[column + 1:] for row in rows]
            path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        code = cli.main(["check", str(bundle), "--config",
                         str(bundle / "problem.json"), "--probes", "0",
                         *extra])
        assert code == 1

    @pytest.mark.parametrize("dropped", [[3], [3, 4]],
                             ids=["odd_steps", "uneven_steps"])
    def test_malformed_grid_exit_1(self, tmp_path, dropped):
        """Interior nodes of the first sampling interval deleted from the
        state and costate files: an odd step count, or an even one with
        uneven steps, breaks the grid's invariant, so the bundle is
        malformed, not a failed certificate."""
        bundle = shutil.copytree(BUNDLES / "v0" / "aq", tmp_path / "b")
        for name in ("state.csv", "costate.csv"):
            lines = (bundle / name).read_text().splitlines()
            kept = [line for i, line in enumerate(lines) if i not in dropped]
            (bundle / name).write_text("\n".join(kept) + "\n")
        code = cli.main(["check", str(bundle), "--config",
                         str(bundle / "problem.json"), "--probes", "0"])
        assert code == 1

    def test_out_flag_is_usage_error(self, tmp_path):
        """`check` writes no files, so it takes no output directory."""
        bundle = BUNDLES / "v0" / "lq"
        code = cli.main(["check", str(bundle), "--config",
                         str(bundle / "problem.json"), "--out",
                         str(tmp_path / "x")])
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

    @pytest.mark.parametrize("flags", [["--Ns", "4,2"], ["--Ns", "0"],
                                       ["--Ns", "2,x"], ["--feas-tol", "0"],
                                       ["--stat-tol", "nan"],
                                       ["--h-max", "1e-9"]],
                             ids=["Ns_decreasing", "Ns_zero", "Ns_text",
                                  "feas_tol_zero", "stat_tol_nan",
                                  "h_max_over_bound"])
    def test_bad_argument_exits_before_the_reference(self, tmp_path, capsys,
                                                     flags):
        """A bad resolution list or solver flag exits 1 before the
        reference is built or the output directory is made."""
        out = tmp_path / "o"
        with mock.patch.object(cli, "fine_surrogate") as surrogate:
            code = cli.main(["converge", "--problem", "affine_quadratic",
                             *flags, "--out", str(out)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        surrogate.assert_not_called()
        assert not out.exists()

    def test_rounding_level_row_finishes(self, tmp_path):
        """A one-row sweep whose line search sits at the rounding level
        of the objective (it took 56 s when such steps backtracked)."""
        cfg = _write_config(tmp_path / "c.json", {
            "problem": "lq_double_integrator", "horizon": 3.004538361588751,
            "xT": [2.00001, -7.036626451553446e-84]})
        out = tmp_path / "o"
        start = time.perf_counter()
        code = cli.main(["converge", "--config", cfg, "--Ns", "2",
                         "--h-max", "0.2", "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert code == 0
        verdicts = json.loads((out / "summary").read_text())["verdicts"]
        assert verdicts and all(verdicts.values())

    def test_unknown_problem(self, tmp_path):
        code = cli.main(["converge", "--problem", "nope", "--Ns", "2,4",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_reference_rejection_exit(self, tmp_path):
        code = cli.main(["converge", "--problem", "affine_quadratic",
                         "--Ns", "2,4", "--surrogate-N", "64",
                         "--out", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize("config, distance", [
        ({"params": {"u_bound": 4.0}, "x0": [0.9, 0.0]}, "1.536e+00"),
        ({"control_set": {"kind": "ball", "center": [0.0], "radius": 5.0}},
         "1.151e+00"),
        ({"params": {"u_bound": 0.1}}, "6.051e+00")],
        ids=["bound4", "ball5", "bound0.1"])
    def test_analytic_reference_outside_the_set_is_rejected(
            self, tmp_path, capsys, config, distance):
        """`lq_analytic` ignores U, so where its control leaves U it is not
        the optimum the rows converge to: exit 4 naming the distance, and
        no output directory.  These ran the sweep and exited 3, 3 and 2
        (the last unreachable within the bound)."""
        cfg = _write_config(tmp_path / "c.json",
                            {"problem": "lq_double_integrator", **config})
        out = tmp_path / "o"
        code = cli.main(["converge", "--config", cfg, "--Ns", "2,4",
                         "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("reference rejected:") and distance in err
        assert not out.exists()

    def test_rejected_surrogate_makes_no_output(self, tmp_path, capsys):
        """The surrogate's rejection rules apply before `--out` is made."""
        out = tmp_path / "o"
        code = cli.main(["converge", "--problem", "affine_quadratic",
                         "--Ns", "2,4", "--surrogate-N", "100",
                         "--out", str(out)])
        assert code == 4
        assert "reference rejected" in capsys.readouterr().err
        assert not out.exists()

    def test_ungriddable_surrogate_chain_is_usage_error(self, tmp_path,
                                                        capsys):
        """The 2 N_ref link of the surrogate chain has more grid steps than
        a grid may have: exit 1 naming the flag, before anything is
        built."""
        out = tmp_path / "o"
        code = cli.main(["converge", "--problem", "affine_quadratic",
                         "--Ns", "2,4", "--surrogate-N", "600001",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--surrogate-N" in err and "Traceback" not in err
        assert not out.exists()

    def test_failed_surrogate_link_is_reference_rejection(self, tmp_path,
                                                          capsys):
        """A bound of 0.05 leaves the target out of reach, so the
        surrogate's first link stalls: exit 4 naming that link."""
        cfg = _write_config(tmp_path / "c.json", {
            "problem": "affine_quadratic", "params": {"u_bound": 0.05},
            "horizon": 0.5})
        code = cli.main(["converge", "--config", cfg, "--Ns", "2",
                         "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "reference rejected" in err and "N=16" in err
        assert "Traceback" not in err

    def test_nan_reject_limit_is_usage_error(self, tmp_path, capsys):
        """A NaN limit would never reject (every comparison with NaN is
        false); it exits 1 before any solve."""
        code = cli.main(["converge", "--problem", "affine_quadratic",
                         "--Ns", "2", "--reference-reject-above", "nan",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_unbuildable_grid_is_usage_error(self, tmp_path, capsys):
        """A step bound too small to give a grid is the same usage error
        as in `solve`, not a solver failure of every row."""
        out = tmp_path / "o"
        code = cli.main(["converge", "--problem", "lq_double_integrator",
                         "--Ns", "2,4", "--h-max", "1e-300",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--h-max" in err and "Traceback" not in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("override", UNHOLDABLE_OVERRIDES,
                             ids=UNHOLDABLE_IDS)
    def test_non_finite_config_is_usage_error(self, tmp_path, capsys,
                                              override):
        cfg = _write_config(tmp_path / "c.json",
                            {"problem": "lq_double_integrator", **override})
        code = cli.main(["converge", "--config", cfg, "--Ns", "2",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad problem specification" in err and "Traceback" not in err

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

    def test_reference_column_is_what_converge_builds(self, capsys):
        """`converge` measures LQ problems against the exact permanent
        optimum and every other problem against the fine-partition
        surrogate; the catalog says so."""
        assert cli.main(["catalog"]) == 0
        column = {line.split()[0]: line.split()[1]
                  for line in capsys.readouterr().out.splitlines()}
        assert column == {
            "cubic_counterexample": "reference=fine_surrogate",
            "lq_double_integrator": "reference=lq_analytic",
            "lq_generic": "reference=lq_analytic",
            "affine_quadratic": "reference=fine_surrogate"}

    def test_no_subcommand_usage(self):
        assert cli.main([]) == 1


# Inputs for the fuzz below, hostile one time in eight so that many
# runs reach the solver.  Horizons stay small or overflow the grid, and step
# bounds stay coarse or are refused, so no drawn grid is large enough
# to take seconds or gigabytes.
def _rarely(hostile, usual):
    return st.integers(0, 7).flatmap(lambda k: hostile if k == 0 else usual)


_NUMBERS = _rarely(st.sampled_from([math.nan, math.inf, -math.inf,
                                         0.0, -1.0, 1e-300, 1e308]),
                        st.floats(0.05, 4.0) | st.floats(-4.0, 4.0))
_VECTORS = _rarely(
    st.lists(_NUMBERS, max_size=3) | _NUMBERS
    | st.sampled_from(["x", [[0.5, 0.0]], {"a": 1}]),
    st.lists(_NUMBERS, min_size=2, max_size=2))
_SET_LEAVES = _rarely(
    st.fixed_dictionaries({"kind": st.just("box")},
                          optional={"lower": _VECTORS, "upper": _VECTORS,
                                    "bounds": st.lists(_VECTORS,
                                                       max_size=3)})
    | st.fixed_dictionaries({"kind": st.just("ball")},
                            optional={"center": _VECTORS,
                                      "radius": _NUMBERS})
    | st.sampled_from([{}, {"kind": "disc"}, 3, ["box"], None]),
    st.fixed_dictionaries({"kind": st.just("box"), "lower": _NUMBERS,
                           "upper": _NUMBERS})
    | st.fixed_dictionaries({"kind": st.just("ball"), "center": _NUMBERS,
                             "radius": _NUMBERS}))
_CONTROL_SETS = st.recursive(
    _SET_LEAVES,
    lambda inner: _rarely(
        st.fixed_dictionaries({"kind": st.just("product")},
                              optional={"factors": inner}),
        st.fixed_dictionaries({"kind": st.just("product"),
                               "factors": st.lists(inner, max_size=3)})),
    max_leaves=4)
_OVERRIDES = {"horizon": _NUMBERS, "x0": _VECTORS, "xT": _VECTORS,
              "control_set": _CONTROL_SETS}


def _flag(hostile, usual):
    return _rarely(st.sampled_from(hostile), st.sampled_from(usual))


_TOLERANCES = _flag(["nan", "inf", "-1", "0", "1e-300", "abc"],
                    ["1e-6", "1e-3"])
_SHARED_FLAGS = {"--feas-tol": _TOLERANCES, "--stat-tol": _TOLERANCES,
                 "--h-max": _flag(["nan", "inf", "-1", "0", "1e-300", "abc"],
                                  ["0.05", "0.2"])}


@st.composite
def _invocations(draw):
    """(command, config, flags): `solve` on any catalog problem, or
    `converge` on an LQ problem (its reference is exact), at N <= 4."""
    command = draw(st.sampled_from(["solve", "converge"]))
    problems = ["lq_double_integrator", "lq_generic"]
    if command == "solve":
        problems += ["affine_quadratic", "cubic_counterexample"]
    config = draw(st.fixed_dictionaries(
        {"problem": st.sampled_from(problems)}, optional=_OVERRIDES))
    if command == "solve":
        flags = ["--N", draw(_flag(["0", "-3", "x"], ["1", "2", "4"])),
                 "--max-outer", "3",
                 "--max-inner", draw(_flag(["0"], ["1", "5", "20"]))]
    else:
        flags = ["--Ns", draw(_flag(["0", "4,2", "x"], ["2", "2,4", "1,2"]))]
        if draw(st.booleans()):
            flags += ["--warm-start", draw(_flag(["x"], ["cold"]))]
    for flag, values in _SHARED_FLAGS.items():
        if draw(st.booleans()):
            flags += [flag, draw(values)]
    return command, config, flags


class TestFuzz:
    # `converge` has no iteration flags; its rows get the budget that
    # `solve` gets from --max-outer and --max-inner, since a box solve
    # can take up to max_inner Armijo steps of about 30 backtracks each
    # (see CHANGES.md)
    CONVERGE_OPTIONS = SolverOptions(feas_tol=1e-9, max_outer=3,
                                     max_inner=20)

    @settings(max_examples=60, deadline=None)
    @example(invocation=("solve", {"problem": "lq_double_integrator",
                                   "horizon": math.inf},
                         ["--N", "2", "--max-outer", "3"]))
    @example(invocation=("converge", {"problem": "lq_double_integrator",
                                      "horizon": math.inf}, ["--Ns", "2"]))
    @example(invocation=("solve", {"problem": "lq_double_integrator",
                                   "x0": [math.nan, 0.0]},
                         ["--N", "2", "--max-outer", "3"]))
    @example(invocation=("converge", {"problem": "lq_double_integrator",
                                      "horizon": 1e308}, ["--Ns", "2"]))
    @example(invocation=("converge", {"problem": "lq_double_integrator",
                                      "x0": [0.0, 1e308]}, ["--Ns", "2"]))
    @example(invocation=("solve", {"problem": "affine_quadratic",
                                   "horizon": 1e308},
                         ["--N", "2", "--max-outer", "3"]))
    @example(invocation=("solve", {"problem": "lq_double_integrator"},
                         ["--N", "2", "--max-outer", "3",
                          "--h-max", "1e-300"]))
    @example(invocation=("solve", {"problem": "lq_double_integrator"},
                         ["--N", "2", "--max-outer", "3",
                          "--feas-tol", "inf"]))
    @example(invocation=("converge", {"problem": "lq_double_integrator"},
                         ["--Ns", "2", "--h-max", "1e-300"]))
    @given(invocation=_invocations())
    def test_exit_codes_without_traceback(self, invocation):
        """Whatever the config and the flags, the CLI exits 0-4, prints
        no traceback, and lets no exception escape `main`."""
        command, config, flags = invocation
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _write_config(Path(tmp) / "c.json", config)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), \
                    mock.patch.object(cli.harness, "SWEEP_SOLVER_OPTIONS",
                                      self.CONVERGE_OPTIONS):
                code = cli.main([command, "--config", cfg, *flags,
                                 "--out", os.path.join(tmp, "o")])
        assert 0 <= code <= 4
        assert "Traceback" not in err.getvalue()


# Edits for the `check` fuzz below, applied to copies of a stored bundle.
# Row and column indices are taken modulo the file's size when applied.
_CSV_NAMES = ("control.csv", "state.csv", "costate.csv")
_INDICES = st.integers(0, 10**6)
_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("drop_row"), _INDICES),
    st.tuples(st.just("ragged"), _INDICES, st.booleans()),
    st.tuples(st.just("entry"), _INDICES, _INDICES,
              st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308",
                               "5e-324", "", "x", "0", "-7.5", "1e3"])),
    st.tuples(st.just("reverse")),
    st.tuples(st.just("swap_rows"), _INDICES, _INDICES),
    st.tuples(st.just("drop_column")),
    st.tuples(st.just("scale_times"),
              st.sampled_from([0.5, 1.0 + 1e-12, 2.0, -1.0, 1e308])),
    st.tuples(st.just("missing")))


def _edit_csv(text, kind, *args):
    """`text` after one edit, or None when the edit deletes the file."""
    if kind == "missing":
        return None
    if kind == "truncate":
        return text[:int(args[0] * len(text))]
    lines = text.splitlines()
    header, rows = lines[:1], [line.split(",") for line in lines[1:]]
    if rows:
        if kind == "drop_row":
            del rows[args[0] % len(rows)]
        elif kind == "ragged":
            row = rows[args[0] % len(rows)]
            if args[1]:
                row.append("1")
            elif row:
                row.pop()
        elif kind == "entry":
            row = rows[args[0] % len(rows)]
            if row:
                row[args[1] % len(row)] = args[2]
        elif kind == "reverse":
            rows.reverse()
        elif kind == "swap_rows":
            i, j = args[0] % len(rows), args[1] % len(rows)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "scale_times":
            for row in rows:
                # an earlier "entry" edit may have put a non-number there
                try:
                    row[0] = repr(float(row[0]) * args[0])
                except (IndexError, ValueError):
                    pass
    if kind == "drop_column":
        header = [",".join(header[0].split(",")[:-1])] if header else []
        rows = [row[:-1] for row in rows]
    return "\n".join(header + [",".join(row) for row in rows]) + "\n"


class TestCheckFuzz:
    """`check` on spoiled copies of the stored `v0/lq` bundle: truncated,
    ragged, empty or missing CSVs, NaN or huge entries, reversed or
    gapped times, mismatched grids, a costate without p0."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(edits=[("costate.csv", ("drop_column",))], flags=[])
    @example(edits=[("control.csv", ("truncate", 0.0))], flags=[])
    @example(edits=[("control.csv", ("truncate", 0.1328125))],
             flags=["--probes", "0"])
    @example(edits=[("state.csv", ("missing",))], flags=[])
    @example(edits=[("state.csv", ("entry", 3, 1, "nan"))],
             flags=["--require-hm"])
    @example(edits=[("costate.csv", ("entry", 3, 1, "1e308"))],
             flags=["--require-hm", "--probes", "2"])
    @example(edits=[("state.csv", ("reverse",)),
                    ("costate.csv", ("reverse",))], flags=[])
    @example(edits=[("state.csv", ("drop_row", 5))], flags=[])
    @example(edits=[("control.csv", ("scale_times", 2.0))], flags=[])
    @example(edits=[("costate.csv", ("entry", 3, 1, "1e300"))],
             flags=["--require-hm"])
    @example(edits=[("control.csv", ("entry", 0, 0, "x")),
                    ("control.csv", ("scale_times", 0.5))],
             flags=["--probes", "0"])
    @given(edits=st.lists(st.tuples(st.sampled_from(_CSV_NAMES), _EDITS),
                          min_size=1, max_size=3),
           flags=st.lists(st.sampled_from(
               [["--require-hm"], ["--probes", "2"], ["--p0", "0"],
                ["--p0", "nan"], ["--p0", "1e308"]]), max_size=2)
           .map(lambda groups: ["--probes", "0"] + sum(groups, [])))
    def test_exit_codes_without_traceback(self, tmp_path, edits, flags):
        """Whatever the edits, `check` exits 0-4, prints no traceback and
        no warning, lets no exception escape `main`, and any report it
        prints is strict JSON (no Infinity or NaN)."""
        with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            bundle = Path(shutil.copytree(BUNDLES / "v0" / "lq",
                                          Path(tmp) / "b"))
            for name, edit in edits:
                path = bundle / name
                if not path.exists():
                    continue
                text = _edit_csv(path.read_text(), *edit)
                if text is None:
                    path.unlink()
                else:
                    path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["check", str(bundle), "--config",
                                 str(bundle / "problem.json"), *flags])
        assert 0 <= code <= 4
        assert "Traceback" not in err.getvalue()
        assert "Warning" not in err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=_refuse_constant)


def _refuse_constant(name):
    """`json.loads` hook: Infinity, -Infinity and NaN are not JSON."""
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def test_probe_count_over_budget_exits_1_at_once(capsys):
    """`--probes` past the probe-step budget of the bundle's grid is a
    usage error naming the flag, refused before the report starts."""
    bundle = BUNDLES / "v0" / "lq"
    with mock.patch.object(cli, "evaluate_extremal",
                           side_effect=AssertionError("report started")):
        code = cli.main(["check", str(bundle), "--config",
                         str(bundle / "problem.json"), "--require-hm",
                         "--probes", "1000000000"])
    assert code == 1
    assert "--probes" in capsys.readouterr().err
