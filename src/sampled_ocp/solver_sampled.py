"""Sampled-data solve: minimize the cost over piecewise-constant controls
under the terminal equality constraint, and reconstruct the costate.

The terminal constraint is handled by an augmented Lagrangian whose
converged multiplier supplies the costate terminal value; the inner
subproblems run projected gradient over the interval control values
with spectral trial steps and an Armijo-type backtracking test against
a short nonmonotone reference window (plain monotone acceptance
throttles spectral steps into uselessness).  Because the control-set
projection is closed form, the inner fixed points are exactly the
points where the interval integral of grad_u H lies in the normal cone
at each control value, so the returned costate is a stationarity
certificate rather than a trusted by-product: the adjoint-equation and
averaged-gradient residuals are recomputed and attached to every
solution.

Sign convention: with the normal normalization (p0 = -1) we have
H = <p, f> - L, the adjoint lambda of the augmented objective satisfies
p = -lambda, and on each interval int grad_u H dt = -(gradient block).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control_partition import (Partition, PiecewiseConstantControl,
                                write_control_csv)
from .errors import (InfeasibleStalledError, IntegrationDivergedError,
                     MaxIterationsError, MembershipError,
                     MultiplierDivergedError)
from .integrate import (CostateTrajectory, TimeGrid, Trajectory,
                        build_time_grid, integrate_costate, integrate_state,
                        write_costate_csv, write_state_csv)
from .pmp_check import (Extremal, ResidualReport, evaluate_extremal,
                        interval_grad_integrals)
from .problem_model import OcpProblem, project

Array = np.ndarray

# The solver works on a coarser default grid than general-purpose
# integration; fourth-order step error at T/256 sits far below the
# advertised certification thresholds and was validated against the
# exact sampled oracle.
SOLVER_STEP_DIVISOR = 256

MULTIPLIER_LIMIT = 1e8
PENALTY_INIT = 10.0
PENALTY_GROWTH = 10.0
PENALTY_LIMIT = 1e12
STALL_ROUNDS = 5
# sufficient-decrease constant, backtracking factor and first trial step
# of the projected-gradient line search
ARMIJO_C = 1e-4
ARMIJO_BACKTRACK = 0.5
ARMIJO_STEP_INIT = 1.0


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for the augmented-Lagrangian projected-gradient solve."""

    max_outer: int = 50
    max_inner: int = 2000
    feas_tol: float = 1e-8
    stat_tol: float = 1e-8
    h_max: Optional[float] = None

    def __post_init__(self):
        if min(self.max_outer, self.max_inner) <= 0:
            raise ValueError("iteration limits must be positive")
        if not all(np.isfinite(v) and v > 0
                   for v in (self.feas_tol, self.stat_tol)):
            raise ValueError("solver tolerances must be finite and positive")
        if self.h_max is not None and \
                not (np.isfinite(self.h_max) and self.h_max > 0):
            raise ValueError("h_max must be finite and positive")


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int            # total inner iterations (or oracle solves)
    outer_iterations: int
    feasibility: float
    stationarity: float
    objective_log: tuple       # (outer, inner, augmented objective) triples
    feasibility_log: tuple = ()  # terminal defect norm after each outer round


@dataclass(frozen=True)
class SampledSolution:
    control: PiecewiseConstantControl
    state: Trajectory
    costate: CostateTrajectory
    cost: float
    multiplier: Array
    diagnostics: SolveDiagnostics
    residuals: Optional[ResidualReport]

    @property
    def p0(self) -> float:
        return self.costate.p0


class _AugmentedObjective:
    """Forward/backward evaluations of the augmented Lagrangian."""

    def __init__(self, prob: OcpProblem, partition: Partition, grid: TimeGrid):
        self.prob = prob
        self.partition = partition
        self.grid = grid

    def control(self, values: Array) -> PiecewiseConstantControl:
        return PiecewiseConstantControl(self.partition, values)

    def forward(self, values: Array) -> Trajectory:
        return integrate_state(self.prob, self.control(values), self.grid)

    def value(self, traj: Trajectory, mu: Array, rho: float) -> float:
        defect = traj.final_state - self.prob.xT
        return traj.cost + float(mu @ defect) + 0.5 * rho * float(defect @ defect)

    def gradient(self, values: Array, traj: Trajectory, mu: Array, rho: float):
        """Adjoint gradient blocks g_i = int (grad_u L + grad_u f' lambda).

        lambda solves the backward linear equation with terminal value
        mu + rho * defect; it is materialized through the costate solver
        with p = -lambda so the certificate reuse is literal.
        """
        defect = traj.final_state - self.prob.xT
        lam_T = mu + rho * defect
        u = self.control(values)
        costate = integrate_costate(self.prob, traj, u, p0=-1.0, pT=-lam_T)
        g = -interval_grad_integrals(self.prob, self.grid, traj.states, u,
                                     costate.costates, -1.0)
        return g, costate, defect


def _stationarity(prob: OcpProblem, values: Array, g: Array) -> float:
    """Projected-gradient norm: sup_i ||u_i - proj(u_i - g_i)||."""
    moved = project(prob.control_set, values - g)
    return float(np.max(np.linalg.norm(values - moved, axis=1)))


def _default_initial_control(prob: OcpProblem, partition: Partition) -> Array:
    origin = project(prob.control_set, np.zeros(prob.m))
    return np.tile(origin, (partition.N, 1))


def solve(prob: OcpProblem, partition: Partition,
          options: Optional[SolverOptions] = None,
          warm_start: Optional[PiecewiseConstantControl] = None,
          warm_multiplier: Optional[Array] = None) -> SampledSolution:
    """Solve the sampled-data problem on the given partition.

    Outer loop: multiplier update mu <- mu + rho * (x(T) - xT), penalty
    growth only when feasibility fails to contract by 10x.  Inner loop:
    full vector projected-gradient steps (interval order 0..N-1) with
    spectral trial steps and Armijo backtracking; the first step size
    satisfying the sufficient-decrease test is accepted.

    On success the costate is p = -lambda with p(T) = -(mu + rho*defect)
    evaluated at the accepted stationary point, and p0 = -1.
    """
    opts = options if options is not None else SolverOptions()
    h_max = opts.h_max if opts.h_max is not None \
        else prob.horizon / SOLVER_STEP_DIVISOR
    grid = build_time_grid(prob.horizon, partition, h_max)
    aug = _AugmentedObjective(prob, partition, grid)

    if warm_start is not None:
        if warm_start.partition.N != partition.N or \
                not np.array_equal(warm_start.partition.times, partition.times):
            raise ValueError("warm start lives on a different partition")
        dist = warm_start.max_set_distance(prob.control_set)
        if dist > 1e-10:
            raise MembershipError(
                f"warm start leaves the control set by {dist:.3e}")
        values = warm_start.values.copy()
    else:
        values = _default_initial_control(prob, partition)

    h_weights = np.diff(partition.times)[:, None]
    mu = np.zeros(prob.n) if warm_multiplier is None \
        else np.asarray(warm_multiplier, dtype=float).copy()
    rho = PENALTY_INIT
    total_inner = 0
    objective_log = []
    feas_history = []
    best = None  # (feas, stat) of the most feasible outer round

    traj = aug.forward(values)
    for outer in range(1, opts.max_outer + 1):
        inner_tol = max(opts.stat_tol, 1e-3 * (0.1 ** outer))
        g, costate, defect = aug.gradient(values, traj, mu, rho)
        phi = aug.value(traj, mu, rho)
        prev_values = None
        prev_g = None
        alpha = ARMIJO_STEP_INIT
        # nonmonotone (GLL) reference window for the sufficient-decrease
        # test: spectral steps need it to keep their fast local behavior
        recent_phi = [phi]
        for _ in range(opts.max_inner):
            stat = _stationarity(prob, values, g)
            if stat <= inner_tol:
                break
            # spectral (Barzilai-Borwein) trial step in the h-weighted
            # metric; the 1/h scaling keeps the fixed points identical
            # (positive per-interval scaling preserves the normal cone)
            if prev_values is not None:
                s = values - prev_values
                y = (g - prev_g) / h_weights
                denom = float(np.sum(s * y * h_weights))
                if denom > 0:
                    alpha = float(np.sum(s * s * h_weights)) / denom
                    alpha = min(max(alpha, 1e-10), 1e6)
                else:
                    alpha = 1e6
            scaled = g / h_weights
            reference = max(recent_phi)
            accepted = False
            trial_alpha = alpha
            while trial_alpha >= 1e-14:
                cand = project(prob.control_set, values - trial_alpha * scaled)
                decrease = float(np.sum(g * (cand - values)))
                if decrease >= 0.0:
                    break
                try:
                    cand_traj = aug.forward(cand)
                    cand_phi = aug.value(cand_traj, mu, rho)
                except IntegrationDivergedError:
                    cand_phi = np.inf
                if cand_phi <= reference + ARMIJO_C * decrease:
                    accepted = True
                    break
                trial_alpha *= ARMIJO_BACKTRACK
            if not accepted:
                break
            prev_values, prev_g = values, g
            values, traj, phi = cand, cand_traj, cand_phi
            recent_phi.append(phi)
            if len(recent_phi) > 10:
                recent_phi.pop(0)
            total_inner += 1
            objective_log.append((outer, total_inner, phi))
            g, costate, defect = aug.gradient(values, traj, mu, rho)

        stat = _stationarity(prob, values, g)
        feas = float(np.linalg.norm(defect))
        feas_history.append(feas)
        mu_certificate = mu + rho * defect
        if best is None or (feas, stat) < best:
            best = (feas, stat)
        if feas <= opts.feas_tol and stat <= opts.stat_tol:
            return _package(prob, partition, values, traj, costate,
                            mu_certificate, total_inner, outer, feas, stat,
                            objective_log, feas_history)
        mu = mu_certificate
        if float(np.linalg.norm(mu)) > MULTIPLIER_LIMIT:
            raise MultiplierDivergedError(
                "constraint multiplier diverged (possible abnormality or "
                f"unreachable target): ||mu|| = {np.linalg.norm(mu):.3e}")
        if len(feas_history) > STALL_ROUNDS and \
                feas >= 0.9 * feas_history[-STALL_ROUNDS - 1] and \
                feas > 1e3 * opts.feas_tol:
            raise InfeasibleStalledError(
                f"terminal feasibility stalled at {feas:.3e} over "
                f"{STALL_ROUNDS} outer rounds; the target may be unreachable "
                "with piecewise-constant controls on this partition")
        if len(feas_history) >= 2 and feas > 0.1 * feas_history[-2]:
            rho = min(rho * PENALTY_GROWTH, PENALTY_LIMIT)
    raise MaxIterationsError(
        f"no convergence within {opts.max_outer} outer rounds "
        f"(best feasibility {best[0]:.3e}, stationarity {best[1]:.3e})")


def _package(prob, partition, values, traj, costate, mu, total_inner, outer,
             feas, stat, objective_log, feas_history) -> SampledSolution:
    control = PiecewiseConstantControl(partition, values)
    diags = SolveDiagnostics(iterations=total_inner, outer_iterations=outer,
                             feasibility=feas, stationarity=stat,
                             objective_log=tuple(objective_log),
                             feasibility_log=tuple(feas_history))
    extremal = Extremal(prob, traj, control, costate, -1.0,
                        feas_tol=max(10 * feas, 1e-12))
    return SampledSolution(control=control, state=traj, costate=costate,
                           cost=traj.cost, multiplier=mu, diagnostics=diags,
                           residuals=evaluate_extremal(extremal))


def gradient_check(prob: OcpProblem, partition: Partition,
                   u: PiecewiseConstantControl, mu: Array, rho: float,
                   fd_step: float = 1e-3) -> float:
    """Relative error between the adjoint gradient and central finite
    differences of the augmented objective, entry by entry.

    The FD probes move single control entries, so the control should sit
    in the interior of the control set.  Central differencing is
    second order in `fd_step`; halving the step should shrink the error
    about fourfold on problems with genuine third derivatives.  The
    marches run on the default grid, h <= T / 1024.
    """
    grid = build_time_grid(prob.horizon, partition)
    aug = _AugmentedObjective(prob, partition, grid)
    mu = np.asarray(mu, dtype=float)
    values = u.values.copy()
    traj = aug.forward(values)
    g, _, _ = aug.gradient(values, traj, mu, rho)
    g_fd = np.empty_like(g)
    for i in range(values.shape[0]):
        for j in range(values.shape[1]):
            for sign in (+1.0, -1.0):
                probe = values.copy()
                probe[i, j] += sign * fd_step
                t = aug.forward(probe)
                val = aug.value(t, mu, rho)
                if sign > 0:
                    plus = val
                else:
                    minus = val
            g_fd[i, j] = (plus - minus) / (2.0 * fd_step)
    scale = max(float(np.linalg.norm(g_fd)), 1e-300)
    return float(np.linalg.norm(g - g_fd)) / scale


# ---------------------------------------------------------------------------
# Solution bundles on disk


def write_solution_bundle(directory, prob: OcpProblem,
                          sol: SampledSolution) -> None:
    """Write control.csv, state.csv, costate.csv, and a summary file."""
    os.makedirs(directory, exist_ok=True)
    write_control_csv(os.path.join(directory, "control.csv"), sol.control)
    write_state_csv(os.path.join(directory, "state.csv"), sol.state)
    write_costate_csv(os.path.join(directory, "costate.csv"), sol.costate)
    summary = {
        "problem": prob.name,
        "cost": sol.cost,
        "feasibility": sol.diagnostics.feasibility,
        "stationarity": sol.diagnostics.stationarity,
        "iterations": sol.diagnostics.iterations,
        "outer_iterations": sol.diagnostics.outer_iterations,
        "multiplier": [float(v) for v in sol.multiplier],
        "p0": sol.p0,
        "residual_verdicts": (sol.residuals.verdicts()
                              if sol.residuals is not None else None),
    }
    with open(os.path.join(directory, "summary"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
