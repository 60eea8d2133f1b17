"""Partition-refinement sweeps: the empirical convergence record.

For a list of partition resolutions, solves the sampled problem,
certifies each costate lift through the residual checks, measures
sup-norm state/costate errors and the cost gap against a permanent
reference on one shared comparison grid, and fits empirical rates.
Rates are reported, never asserted: the underlying theory guarantees
convergence but no order.

Known limitation, recorded in every report: the harness tracks one
stationary point per resolution (warm-start cascading stabilizes which
one) and cannot certify global optimality of a row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .control_partition import resample_onto, uniform_partition
from .errors import GridAlignmentError, SampledOcpError
from .problem_model import _FLOAT_FMT, OcpProblem
from .reference_oracles import PermanentReference
from .solver_sampled import SampledSolution, SolverOptions, solve

REPORT_HEADER = ("N,partition_norm,cost,cost_err,state_sup_err,"
                 "costate_sup_err,ahg_sup_residual,feasibility,iterations")

# Verdict constants (shared with the acceptance criteria).
FINAL_RATIO_LIMIT = 0.1
NOISE_STEP_FACTOR = 1.05
COST_FLOOR_SLACK = 1e-7
LIMITATION_NOTE = ("single stationary point tracked per resolution; global "
                   "optimality not certified")


def default_solver_options() -> SolverOptions:
    # Tighter terminal feasibility than the general default so the
    # cost-floor comparison against the reference keeps a clean margin.
    return SolverOptions(feas_tol=1e-9)


@dataclass(frozen=True)
class SweepConfig:
    problem: OcpProblem
    reference: PermanentReference
    resolutions: Sequence[int] = (2, 4, 8, 16, 32, 64)
    warm_start_policy: str = "cascade"  # or "cold"
    comparison_points: int = 4096
    solver_options: Optional[SolverOptions] = None

    def __post_init__(self):
        ns = checked_resolutions(self.resolutions)
        if self.warm_start_policy not in ("cascade", "cold"):
            raise ValueError("warm_start_policy must be 'cascade' or 'cold'")
        object.__setattr__(self, "resolutions", ns)


def checked_resolutions(resolutions) -> tuple:
    """`resolutions` as a tuple of ints; `ValueError` unless they are
    positive and strictly increasing."""
    ns = tuple(int(n) for n in resolutions)
    if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("resolution list must be positive and "
                         "strictly increasing")
    return ns


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    partition_norm: float
    cost: float
    cost_err: float
    state_sup_err: float
    costate_sup_err: float
    ahg_sup_residual: float
    feasibility: float
    iterations: int
    certified: bool
    p0: float
    costate_terminal_norm: float

    def csv_values(self):
        return (self.N, self.partition_norm, self.cost, self.cost_err,
                self.state_sup_err, self.costate_sup_err,
                self.ahg_sup_residual, self.feasibility, self.iterations)


@dataclass
class ConvergenceReport:
    rows: list
    rates: dict
    verdicts: dict
    reference_provenance: str
    reference_cost: float
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [REPORT_HEADER]
        for row in self.rows:
            vals = row.csv_values()
            lines.append(",".join(
                str(v) if isinstance(v, int) else _FLOAT_FMT % v
                for v in vals))
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        doc = {
            "reference": {"provenance": self.reference_provenance,
                          "cost": self.reference_cost},
            "rates": self.rates,
            "verdicts": self.verdicts,
            "rows": [{"N": r.N, "certified": r.certified, "p0": r.p0,
                      "costate_terminal_norm": r.costate_terminal_norm}
                     for r in self.rows],
            "failures": self.failures,
            "notes": self.notes,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def all_pass(self) -> bool:
        return all(bool(v) for v in self.verdicts.values())


def sweep(cfg: SweepConfig, return_solutions: bool = False):
    """Run the refinement sweep and assemble the convergence report.

    Rows are solved in resolution order; a package error of a row is
    recorded as a failure, except a `GridAlignmentError` (the step bound
    cannot give a grid), which is raised.  With `return_solutions` the
    per-resolution solver outputs come back too.
    """
    prob = cfg.problem
    ref = cfg.reference
    opts = cfg.solver_options if cfg.solver_options is not None \
        else default_solver_options()
    ts = np.linspace(0.0, prob.horizon, cfg.comparison_points)
    ref_x = ref.x.sample(ts)
    ref_p = ref.p.sample(ts)
    ref_pT = float(np.linalg.norm(np.atleast_1d(ref.p.at(prob.horizon))))

    solutions: dict = {}
    failures = []
    previous: Optional[SampledSolution] = None
    for N in cfg.resolutions:
        partition = uniform_partition(N, prob.horizon)
        warm = None
        warm_mu = None
        if cfg.warm_start_policy == "cascade" and previous is not None:
            warm = resample_onto(previous.control, partition)
            warm_mu = previous.multiplier
        try:
            sol = solve(prob, partition, opts, warm_start=warm,
                        warm_multiplier=warm_mu)
        except GridAlignmentError:
            raise
        except SampledOcpError as exc:
            failures.append({"N": N, "error": type(exc).__name__,
                             "message": str(exc)})
            continue
        previous = sol
        solutions[N] = sol

    rows = []
    for N in cfg.resolutions:
        if N not in solutions:
            continue
        sol = solutions[N]
        partition = uniform_partition(N, prob.horizon)
        report = sol.residuals
        certified = (report is not None and report.certifies_solve()
                     and sol.p0 == -1.0)
        state_err = float(np.max(np.linalg.norm(sol.state.sample(ts) - ref_x,
                                                axis=1)))
        costate_err = float(np.max(np.linalg.norm(sol.costate.sample(ts) - ref_p,
                                                  axis=1)))
        row = ConvergenceRow(
            N=N, partition_norm=partition.norm, cost=sol.cost,
            cost_err=abs(sol.cost - ref.cost), state_sup_err=state_err,
            costate_sup_err=costate_err,
            ahg_sup_residual=float(report.ahg_sup) if report else float("nan"),
            feasibility=sol.diagnostics.feasibility,
            iterations=sol.diagnostics.iterations,
            certified=certified, p0=sol.p0,
            costate_terminal_norm=float(np.linalg.norm(sol.costate.final_costate)))
        if certified:
            rows.append(row)
        else:
            failures.append({"N": N, "error": "certification",
                             "message": "lift failed the residual gate",
                             "ae": report.ae_residual if report else None,
                             "ahg": report.ahg_sup if report else None})
    rates = fit_rates(rows)
    verdicts = evaluate_sweep(rows, failures, cfg, ref, ref_pT)
    notes = [LIMITATION_NOTE] + list(ref.notes)
    if ref.error_bar is not None:
        notes.append(f"reference error bar {ref.error_bar:.6e}")
    report = ConvergenceReport(rows=rows, rates=rates, verdicts=verdicts,
                               reference_provenance=ref.provenance,
                               reference_cost=ref.cost, failures=failures,
                               notes=notes)
    if return_solutions:
        return report, solutions
    return report


def fit_rates(rows) -> dict:
    """Least-squares log-log slopes of each error column in the norm."""
    out = {}
    for name in ("cost_err", "state_sup_err", "costate_sup_err"):
        pairs = [(row.partition_norm, getattr(row, name)) for row in rows
                 if getattr(row, name) > 0.0]
        if len(pairs) < 2:
            out[name] = None
            continue
        lx = np.log([p[0] for p in pairs])
        ly = np.log([p[1] for p in pairs])
        slope = np.polyfit(lx, ly, 1)[0]
        out[name] = float(slope)
    return out


def _decreasing_with_noise(values, factor=NOISE_STEP_FACTOR) -> bool:
    """Strictly decreasing, allowing one non-strict step within `factor`."""
    slack_used = False
    for a, b in zip(values, values[1:]):
        if b < a:
            continue
        if not slack_used and b <= factor * a:
            slack_used = True
            continue
        return False
    return True


def evaluate_sweep(rows, failures, cfg: SweepConfig,
                   ref: PermanentReference, ref_pT: float) -> dict:
    """Pass/fail verdicts for the standard sweep acceptance thresholds."""
    verdicts = {"all_rows_certified": not failures and len(rows) == len(cfg.resolutions)}
    columns = ("cost_err", "state_sup_err", "costate_sup_err")
    if len(rows) >= 2:
        for name in columns:
            vals = [getattr(r, name) for r in rows]
            verdicts[f"{name}_decreasing"] = _decreasing_with_noise(vals)
            verdicts[f"{name}_final_ratio"] = bool(
                vals[-1] <= FINAL_RATIO_LIMIT * vals[0])
    costs = [r.cost for r in rows]
    verdicts["cost_floor"] = bool(all(c >= ref.cost - COST_FLOOR_SLACK
                                      for c in costs))
    ns = [r.N for r in rows]
    dyadic = all(b == 2 * a for a, b in zip(ns, ns[1:]))
    if dyadic and len(costs) >= 2:
        verdicts["cost_monotone_dyadic"] = bool(
            all(b <= a + COST_FLOOR_SLACK for a, b in zip(costs, costs[1:])))
    verdicts["normality"] = bool(all(
        r.p0 == -1.0 and r.costate_terminal_norm <= 10.0 * ref_pT + 1.0
        for r in rows))
    return verdicts


def write_report(path_csv, path_summary, report: ConvergenceReport) -> None:
    with open(path_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_csv())
    with open(path_summary, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.summary_json() + "\n")

