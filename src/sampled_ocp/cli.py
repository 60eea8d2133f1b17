"""Command-line front end.

Subcommands: solve (write a certified solution bundle), check (recompute
residuals on a stored bundle), converge (partition-refinement sweep with
a report CSV), catalog (list built-in problems).

Exit codes, fixed for scripting: 0 success, 1 usage or malformed input,
2 solver failure, 3 certification/threshold failure, 4 reference
rejection.  All numeric output uses locale-independent decimal
formatting, and identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import convergence_harness as harness
from .control_partition import Partition, read_control_csv, uniform_partition
from .convergence_harness import fine_surrogate
from .errors import (ConfigFormatError, GridAlignmentError,
                     IntegrationDivergedError, MembershipError, OracleError,
                     ProblemLookupError, SampledOcpError, SolverError)
from .integrate import costate_from_nodes, read_costate_csv, read_state_csv
from .pmp_check import Extremal, evaluate_extremal
from .problem_model import (BLOWUP_NORM, OcpProblem, build_problem, catalog,
                            load_problem_config, require_in_set)
from .reference_oracles import LQ_PROVENANCE, solve_lq_permanent
from .solver_sampled import (SolverOptions, solve, solver_grid,
                             write_solution_bundle)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CERTIFICATION = 3
EXIT_REFERENCE = 4

OUTPUT_ROOT_ENV = "SAMPLED_OCP_OUT"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sampled-ocp", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_problem_flags(p):
        p.add_argument("--problem", help="catalog problem name")
        p.add_argument("--config", help="problem configuration file (JSON)")

    def add_solver_flags(p):
        for flag in ("--feas-tol", "--stat-tol", "--h-max"):
            p.add_argument(flag, type=float)

    p_solve = sub.add_parser("solve", help="solve on one partition")
    add_problem_flags(p_solve)
    p_solve.add_argument("--out", help="output directory")
    p_solve.add_argument("--N", type=int, help="uniform partition intervals")
    p_solve.add_argument("--times-file", help="file with explicit sampling times")
    add_solver_flags(p_solve)
    p_solve.add_argument("--max-outer", type=int)
    p_solve.add_argument("--max-inner", type=int)

    p_check = sub.add_parser("check", help="recompute residuals on a bundle")
    p_check.add_argument("bundle", help="bundle directory with the CSV files")
    add_problem_flags(p_check)
    p_check.add_argument("--require-hm", action="store_true",
                         help="also gate on the pointwise maximization gap")
    p_check.add_argument("--p0", type=float, default=None,
                         help="override the abnormality scalar from the file")
    p_check.add_argument("--probes", type=int, default=20)

    p_conv = sub.add_parser("converge", help="partition-refinement sweep")
    add_problem_flags(p_conv)
    p_conv.add_argument("--out", help="output directory")
    p_conv.add_argument("--Ns", help="comma-separated resolutions, e.g. 2,4,8")
    p_conv.add_argument("--warm-start", choices=("cascade", "cold"),
                        default="cascade",
                        help="cascade: the first row starts from the "
                             "reference, each later row from the last "
                             "row's solution; cold: every row is solved "
                             "as `solve` would")
    add_solver_flags(p_conv)
    p_conv.add_argument("--surrogate-N", type=int, default=256,
                        help="resolution of the fine-partition surrogate")
    p_conv.add_argument("--reference-reject-above", type=float, default=None,
                        help="reject the surrogate when its error bar exceeds this")

    sub.add_parser("catalog", help="list built-in problems")
    return parser


def _load_problem(args) -> OcpProblem:
    if bool(args.problem) == bool(args.config):
        raise _UsageError("exactly one of --problem or --config is required")
    if args.problem:
        return build_problem(args.problem)
    return load_problem_config(args.config)


def _output_dir(args, default_name: str) -> str:
    if args.out:
        out = args.out
    else:
        root = os.environ.get(OUTPUT_ROOT_ENV, ".")
        out = os.path.join(root, default_name)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"--out: {exc}") from exc
    return out


def _check_grids(prob: OcpProblem, partitions, opts: SolverOptions,
                 flag: str) -> None:
    """Usage error unless `solve` can build its grid on every partition;
    it names --h-max when the options carry one, `flag` otherwise."""
    try:
        for partition in partitions:
            solver_grid(prob, partition, opts)
    except GridAlignmentError as exc:
        raise _UsageError(f"{'--h-max' if opts.h_max is not None else flag}: "
                          f"{exc}") from exc


def _resolutions(ns, flag: str) -> tuple:
    """`harness.checked_resolutions` of the integers that `ns` spells, or
    a usage error naming `flag`."""
    try:
        return harness.checked_resolutions([int(n) for n in ns])
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


def _partition_from_args(args, horizon: float) -> Partition:
    if (args.N is None) == (args.times_file is None):
        raise _UsageError("exactly one of --N or --times-file is required")
    if args.N is not None:
        return uniform_partition(_resolutions([args.N], "--N")[0], horizon)
    try:
        with open(args.times_file, "r", encoding="utf-8") as fh:
            times = [float(line.strip()) for line in fh if line.strip()]
        # a list too short for a partition is left to `Partition` to refuse
        harness.checked_resolutions([max(len(times) - 1, 1)])
        partition = Partition(np.asarray(times))
    except (OSError, ValueError) as exc:
        raise _UsageError(f"--times-file: {exc}")
    if partition.horizon != horizon:
        raise _UsageError(f"--times-file: the partition ends at "
                          f"{partition.horizon!r}, the problem horizon is "
                          f"{horizon!r}")
    return partition


def _solver_options(args, base: SolverOptions) -> SolverOptions:
    """`base` with every solver flag that was given applied on top."""
    given = {name: getattr(args, name, None)
             for name in ("feas_tol", "stat_tol", "h_max", "max_outer",
                          "max_inner")}
    try:
        return dataclasses.replace(
            base, **{name: v for name, v in given.items() if v is not None})
    except ValueError as exc:
        raise _UsageError(f"solver options: {exc}") from exc


def run_solve(args) -> int:
    prob = _load_problem(args)
    partition = _partition_from_args(args, prob.horizon)
    opts = _solver_options(args, SolverOptions())
    _check_grids(prob, [partition], opts,
                 "--N" if args.N is not None else "--times-file")
    out = _output_dir(args, "solution")
    try:
        sol = solve(prob, partition, opts)
    except (SolverError, IntegrationDivergedError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    write_solution_bundle(out, prob, sol)
    report = sol.residuals
    print(report.to_json())
    print(f"bundle written to {out}")
    if not report.all_pass():
        print("certification failed: adjoint or averaged-gradient residual "
              "above threshold", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def run_check(args) -> int:
    if args.probes < 0:
        raise _UsageError("--probes must be nonnegative")
    if args.p0 is not None and abs(args.p0) > BLOWUP_NORM:
        raise _UsageError(f"--p0: {args.p0!r} exceeds {BLOWUP_NORM:g} in "
                          "magnitude")
    prob = _load_problem(args)
    bundle = args.bundle
    try:
        control = read_control_csv(os.path.join(bundle, "control.csv"))
        if control.m != prob.m:
            raise ValueError(f"control.csv: {control.m} control columns, "
                             f"the problem has m = {prob.m}")
        traj = read_state_csv(os.path.join(bundle, "state.csv"), prob, control)
        times, P, p0_file = read_costate_csv(os.path.join(bundle, "costate.csv"))
        if P.shape[1] != prob.n:
            raise ValueError(f"costate.csv: {P.shape[1]} costate columns, "
                             f"the problem has n = {prob.n}")
    except (OSError, ValueError) as exc:
        print(f"malformed bundle: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if times.shape != traj.grid.times.shape or \
            not np.array_equal(times, traj.grid.times):
        print("malformed bundle: state and costate grids differ", file=sys.stderr)
        return EXIT_USAGE
    p0 = p0_file if args.p0 is None else float(args.p0)
    try:
        costate = costate_from_nodes(traj.grid, P, p0)
        extremal = Extremal(prob, traj, control, costate, p0)
    except ValueError as exc:
        raise _UsageError(f"--p0 or costate.csv: {exc}") from exc
    try:
        report = evaluate_extremal(extremal, with_hm=args.require_hm,
                                   lift_probes=args.probes)
    except (SampledOcpError, ValueError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    print(report.to_json())
    return EXIT_OK if report.all_pass() else EXIT_CERTIFICATION


def run_converge(args) -> int:
    if args.reference_reject_above is not None and \
            np.isnan(args.reference_reject_above):
        raise _UsageError("--reference-reject-above must be a number")
    prob = _load_problem(args)
    # every argument is checked before the reference is built and the
    # output directory is made
    ns = _resolutions(args.Ns.split(","), "--Ns") if args.Ns is not None \
        else (2, 4, 8, 16, 32, 64)
    solver_opts = _solver_options(args, harness.SWEEP_SOLVER_OPTIONS)
    _check_grids(prob, [uniform_partition(n, prob.horizon) for n in ns],
                 solver_opts, "--Ns")
    try:
        if prob.lq is None:
            try:
                chain = harness.surrogate_chain(args.surrogate_N, max(ns))
            except ValueError as exc:
                raise _UsageError(f"--surrogate-N: {exc}") from exc
            _check_grids(prob,
                         [uniform_partition(n, prob.horizon) for n in chain],
                         harness.SURROGATE_SOLVER_OPTIONS, "--surrogate-N")
        reference = (solve_lq_permanent(prob.lq) if prob.lq is not None else
                     fine_surrogate(prob, args.surrogate_N,
                                    reject_above=args.reference_reject_above,
                                    sweep_max_n=max(ns)))
        # lq_analytic ignores U: a control outside U is not the rows' limit
        require_in_set(prob.control_set, reference.u.values,
                       f"the {reference.provenance} control")
    except (OracleError, MembershipError) as exc:
        print(f"reference rejected: {exc}", file=sys.stderr)
        return EXIT_REFERENCE
    out = _output_dir(args, "report")
    cfg = harness.SweepConfig(problem=prob, reference=reference,
                              resolutions=ns,
                              warm_start_policy=args.warm_start,
                              solver_options=solver_opts)
    report = harness.sweep(cfg)
    csv_path = os.path.join(out, "report.csv")
    summary_path = os.path.join(out, "summary")
    harness.write_report(csv_path, summary_path, report)
    print(report.to_csv(), end="")
    print(report.summary_json())
    print(f"report written to {csv_path}")
    if any(f.get("error") != "certification" for f in report.failures):
        return EXIT_SOLVER
    return EXIT_OK if report.all_pass() else EXIT_CERTIFICATION


def run_catalog(_args) -> int:
    for entry in catalog():
        # the reference `converge` builds for the default instance
        reference = (LQ_PROVENANCE if entry.builder().lq is not None
                     else harness.SURROGATE_PROVENANCE)
        print(f"{entry.name:24s} reference={reference:26s} {entry.summary}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required "
                              "(solve, check, converge, catalog)")
        if args.command == "solve":
            return run_solve(args)
        if args.command == "check":
            return run_check(args)
        if args.command == "converge":
            return run_converge(args)
        if args.command == "catalog":
            return run_catalog(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigFormatError, ProblemLookupError) as exc:
        print(f"bad problem specification: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
