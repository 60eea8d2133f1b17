"""Sampled-data solve: minimize the cost over piecewise-constant controls
under the terminal equality constraint, and reconstruct the costate.

The terminal constraint is handled by an augmented Lagrangian whose
converged multiplier supplies the costate terminal value.  The inner
subproblems take projected quasi-Newton steps on every control set: the
model Hessian is B + rho C'C, with C = dx(T)/du from n adjoint marches
(the condensing of Bock & Plitt, IFAC 1984) and B a damped BFGS
estimate of the rest.  Each step minimizes the model over the control
set: on a box with the exact oracle's active-set loop, elsewhere (or
where that loop does not settle) by ADMM, whose Cholesky factor solves
the ill-conditioned rho C'C part exactly.  The inner loop stops on the
projected-gradient test, so its fixed points are exactly the points
where the interval integral of grad_u H lies in the normal cone at each
control value, and the returned costate is a stationarity certificate
rather than a trusted by-product: the adjoint-equation and
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
from scipy.linalg import cho_factor, cho_solve

from .control_partition import (Partition, PiecewiseConstantControl,
                                write_control_csv)
from .errors import (InfeasibleStalledError, IntegrationDivergedError,
                     MaxIterationsError, MembershipError,
                     MultiplierDivergedError, OracleError)
from .integrate import (Linearization, TimeGrid, Trajectory, build_time_grid,
                        integrate_costate, integrate_state, write_costate_csv,
                        write_state_csv)
from .pmp_check import (Extremal, SampledSolution, SolveDiagnostics,
                        evaluate_extremal, interval_grad_integrals)
from .problem_model import TOL_SET, Box, ControlSet, OcpProblem, project
from .reference_oracles import _ReducedQp, _single_blas_thread, _solve_box_qp

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
# sufficient-decrease constant and backtracking factor of the inner line
# search, and the relative size of phi below which a change is rounding
ARMIJO_C = 1e-4
ARMIJO_BACKTRACK = 0.5
ROUNDING_FLOOR = 1e-13
# ADMM iteration cap and residual tolerance (absolute plus relative);
# 1-D ball models at rho = 900 took up to 1,030 iterations to converge
ADMM_MAX_ITER = 2000
ADMM_TOL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for the augmented-Lagrangian solve."""

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

    def trial(self, values: Array, mu: Array, rho: float):
        """(trajectory, objective) at a trial point; the objective is inf
        where the state march blows up."""
        try:
            traj = self.forward(values)
        except IntegrationDivergedError:
            return None, np.inf
        return traj, self.value(traj, mu, rho)

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


def _terminal_jacobian(prob: OcpProblem, traj: Trajectory,
                       u: PiecewiseConstantControl) -> Array:
    """C = dx(T)/du, (n, N*m) over the stacked held values: row j is the
    interval integral of grad_u f' p along the costate with p0 = 0 and
    p(T) = e_j, marched on the linearization along (x, u)."""
    lin = Linearization(prob, traj, u)
    return np.array([
        interval_grad_integrals(prob, traj.grid, traj.states, u,
                                lin.costate(0.0, e).costates, 0.0).ravel()
        for e in np.eye(prob.n)])


def _damped_bfgs(B: Array, s: Array, y: Array) -> Array:
    """BFGS update of B with Powell's damping (Nocedal & Wright, Procedure
    18.2), which keeps B positive definite whatever the curvature of y."""
    Bs = B @ s
    sBs = float(s @ Bs)
    if sBs <= 0.0:
        return B
    sy = float(s @ y)
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        y = theta * y + (1.0 - theta) * Bs
    return B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / float(s @ y)


def _model_step(U: ControlSet, values: Array, g: Array,
                model: Array) -> Array:
    """Step s minimizing g's + 1/2 s' model s subject to values + s in U.

    On a box the primal-dual active-set loop of the exact oracle solves
    the model.  Off a box, or where that loop does not settle (the model
    need not be an M-matrix), ADMM on the split s = w, w in U - values
    (Boyd et al., Found. Trends Mach. Learn. 2011, sec. 5) from the
    penalty sigma = sqrt(lambda_min * lambda_max) of the model, doubled
    or halved every tenth iteration while one residual leads the other
    tenfold (sec. 3.4.1); the Cholesky factor of model + sigma I is
    rebuilt only then.  The feasible iterate w is returned."""
    u, c = values.ravel(), g.ravel()
    if isinstance(U, Box):
        N = values.shape[0]
        lo, up = np.tile(U.lower, N), np.tile(U.upper, N)
        try:
            target, _, _ = _solve_box_qp(
                _ReducedQp.model(model, c - model @ u), lo, up)
            return (target - u).reshape(values.shape)
        except OracleError:
            pass
    eig = np.linalg.eigvalsh(model)
    sigma = float(np.sqrt(eig[0] * eig[-1]))
    factor = cho_factor(model + sigma * np.eye(u.size))
    w = lam = np.zeros(u.size)
    for k in range(ADMM_MAX_ITER):
        s = cho_solve(factor, sigma * (w - lam) - c)
        w_prev = w
        w = project(U, (u + s + lam).reshape(values.shape)).ravel() - u
        lam = lam + s - w
        primal = np.linalg.norm(s - w) / (
            1.0 + max(np.linalg.norm(s), np.linalg.norm(w)))
        dual = sigma * np.linalg.norm(w - w_prev) / (
            1.0 + max(np.linalg.norm(c), sigma * np.linalg.norm(lam)))
        if max(primal, dual) <= ADMM_TOL:
            break
        if k % 10 == 0 and max(primal, dual) > 10.0 * min(primal, dual):
            scale = 2.0 if primal > dual else 0.5
            sigma, lam = sigma * scale, lam / scale
            factor = cho_factor(model + sigma * np.eye(u.size))
    return w.reshape(values.shape)


def _line_search(aug, values: Array, step: Array, g: Array, phi: float,
                 mu: Array, rho: float):
    """Armijo backtracking along values + t * step: the first t in 1,
    1/2, ... with phi(t) <= phi + ARMIJO_C t g's + floor, floor the
    rounding level of phi, is accepted (only t = 1 when -g's is itself
    at the floor).  Returns (values, trajectory, objective, settled), or
    None; `settled` says the accepted step changed phi by at most floor."""
    decrease = float(np.sum(g * step))
    floor = ROUNDING_FLOOR * (1.0 + abs(phi))
    t = 1.0
    while t >= 1e-14:
        cand = project(aug.prob.control_set, values + t * step)
        traj, val = aug.trial(cand, mu, rho)
        if val <= phi + ARMIJO_C * t * decrease + floor:
            return cand, traj, val, phi - val <= floor
        if -decrease <= floor:
            return None
        t *= ARMIJO_BACKTRACK
    return None


def _default_initial_control(prob: OcpProblem, partition: Partition) -> Array:
    origin = project(prob.control_set, np.zeros(prob.m))
    return np.tile(origin, (partition.N, 1))


def solver_grid(prob: OcpProblem, partition: Partition,
                opts: SolverOptions) -> TimeGrid:
    """The grid `solve` marches on: steps of at most `opts.h_max`, or of
    T / SOLVER_STEP_DIVISOR when it is None."""
    h_max = opts.h_max if opts.h_max is not None \
        else prob.horizon / SOLVER_STEP_DIVISOR
    return build_time_grid(prob.horizon, partition, h_max)


@_single_blas_thread
def solve(prob: OcpProblem, partition: Partition,
          options: Optional[SolverOptions] = None,
          warm_start: Optional[PiecewiseConstantControl] = None,
          warm_multiplier: Optional[Array] = None,
          warm_penalty: Optional[float] = None) -> SampledSolution:
    """Solve the sampled-data problem on the given partition.

    Outer loop: multiplier update mu <- mu + rho * (x(T) - xT), penalty
    growth only when feasibility fails to contract by 10x.  Inner loop:
    projected quasi-Newton steps on the model B + rho C'C, one algorithm
    for every control set.  C = dx(T)/du is rebuilt from n adjoint
    marches at the start of each round whose rho differs from the one C
    was built at (for LQ data C does not depend on u).  B is a damped
    BFGS estimate of the rest of the Hessian, started at diag(h_i) and
    carried across rounds.  Each step minimizes the model over the
    control set (`_model_step`) and backtracks from the unit step under
    an Armijo test loosened by the rounding level of the objective; an
    accepted step that changes the objective by no more than that level
    ends the round.

    A refinement cascade passes the coarser solution's control,
    multiplier and penalty (`diagnostics.penalty`) as `warm_start`,
    `warm_multiplier` and `warm_penalty`, so the row starts where the
    coarser row's augmented Lagrangian ended instead of climbing rho
    from PENALTY_INIT again.  `warm_penalty` must be finite and
    positive; with None rho starts at PENALTY_INIT.

    On success the costate is p = -lambda with p(T) = -(mu + rho*defect)
    evaluated at the accepted stationary point, and p0 = -1.  The dense
    algebra runs on one OpenBLAS thread.
    """
    opts = options if options is not None else SolverOptions()
    if warm_penalty is not None and \
            not (np.isfinite(warm_penalty) and warm_penalty > 0):
        raise ValueError("warm penalty must be finite and positive")
    grid = solver_grid(prob, partition, opts)
    aug = _AugmentedObjective(prob, partition, grid)

    if warm_start is not None:
        if warm_start.partition.N != partition.N or \
                not np.array_equal(warm_start.partition.times, partition.times):
            raise ValueError("warm start lives on a different partition")
        dist = warm_start.max_set_distance(prob.control_set)
        if dist > TOL_SET:
            raise MembershipError(
                f"warm start leaves the control set by {dist:.3e}")
        values = warm_start.values.copy()
    else:
        values = _default_initial_control(prob, partition)

    B = np.diag(np.repeat(np.diff(partition.times), prob.m))
    C = C_rho = None
    mu = np.zeros(prob.n) if warm_multiplier is None \
        else np.asarray(warm_multiplier, dtype=float).copy()
    rho = PENALTY_INIT if warm_penalty is None else float(warm_penalty)
    total_inner = 0
    objective_log = []
    feas_history = []
    best = None  # (feas, stat) of the most feasible outer round

    traj = aug.forward(values)
    for outer in range(1, opts.max_outer + 1):
        inner_tol = max(opts.stat_tol, 1e-3 * (0.1 ** outer))
        g, costate, defect = aug.gradient(values, traj, mu, rho)
        phi = aug.value(traj, mu, rho)
        if rho != C_rho:
            C = _terminal_jacobian(prob, traj, aug.control(values))
            C_rho = rho
        for _ in range(opts.max_inner):
            stat = _stationarity(prob, values, g)
            if stat <= inner_tol:
                break
            step = _model_step(prob.control_set, values, g,
                               B + rho * (C.T @ C))
            found = _line_search(aug, values, step, g, phi, mu, rho)
            if found is None:
                break
            cand, traj, phi, settled = found
            g_new, costate, defect = aug.gradient(cand, traj, mu, rho)
            s = (cand - values).ravel()
            B = _damped_bfgs(B, s, (g_new - g).ravel()
                             - rho * (C.T @ (C @ s)))
            values, g = cand, g_new
            total_inner += 1
            objective_log.append((outer, total_inner, phi))
            if settled:
                break

        stat = _stationarity(prob, values, g)
        feas = float(np.linalg.norm(defect))
        feas_history.append(feas)
        mu_certificate = mu + rho * defect
        if best is None or (feas, stat) < best:
            best = (feas, stat)
        if feas <= opts.feas_tol and stat <= opts.stat_tol:
            return _package(prob, partition, values, traj, costate,
                            mu_certificate, rho, total_inner, outer, feas,
                            stat, objective_log, feas_history)
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


def _package(prob, partition, values, traj, costate, mu, rho, total_inner,
             outer, feas, stat, objective_log,
             feas_history) -> SampledSolution:
    control = PiecewiseConstantControl(partition, values)
    diags = SolveDiagnostics(iterations=total_inner, outer_iterations=outer,
                             feasibility=feas, stationarity=stat,
                             objective_log=tuple(objective_log),
                             feasibility_log=tuple(feas_history),
                             penalty=rho)
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
    if not (np.isfinite(fd_step) and fd_step > 0):
        raise ValueError("fd_step must be finite and positive")
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
