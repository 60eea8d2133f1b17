"""Sampled-data solve: minimize the cost over piecewise-constant controls
under the terminal equality constraint, and reconstruct the costate.

A cold solve runs an augmented Lagrangian (AL), a warm start SQP on the
condensed problem (`_sqp`; the condensing of Bock & Plitt, IFAC 1984),
and both minimize their quasi-Newton model over the control set in one
place, `_model_step`.  On LQ data SQP's model starts from the exact
sampled oracle's Hessian, so from a warm start near the optimum one step
certifies.  Both stop on the projected-gradient test, whose fixed points
are exactly the points where the interval integral of grad_u H lies in
the normal cone at each control value, so the returned costate is a
stationarity certificate rather than a trusted by-product: the
adjoint-equation and averaged-gradient residuals are recomputed and
attached to every solution.

Sign convention: with the normal normalization (p0 = -1) we have
H = <p, f> - L, the adjoint lambda of the augmented objective satisfies
p = -lambda, and on each interval int grad_u H dt = -(gradient block).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .control_partition import (Partition, PiecewiseConstantControl,
                                _check_type, write_control_csv)
from .errors import (InfeasibleStalledError, IntegrationDivergedError,
                     MaxIterationsError, MultiplierDivergedError, OracleError)
from .integrate import (Linearization, TimeGrid, Trajectory, build_time_grid,
                        integrate_costate, integrate_state, write_costate_csv,
                        write_state_csv)
from .pmp_check import (Extremal, SampledSolution, SolveDiagnostics,
                        evaluate_extremal, interval_grad_integrals)
from .problem_model import (Box, ControlSet, OcpProblem, _count,
                            normal_cone_residual, project, require_in_set)
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
    """Tuning knobs of `solve`: an SQP solve takes at most `max_inner`
    steps; the augmented Lagrangian at most `max_outer` rounds of at most
    `max_inner` steps each."""

    max_outer: int = 50
    max_inner: int = 2000
    feas_tol: float = 1e-8
    stat_tol: float = 1e-8
    h_max: Optional[float] = None

    def __post_init__(self):
        _count("max_outer", self.max_outer, 1)
        _count("max_inner", self.max_inner, 1)
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

    def merit(self, traj: Trajectory, weight: float) -> float:
        """The l1 merit J + weight * ||x(T) - xT||_1 of the SQP steps."""
        defect = traj.final_state - self.prob.xT
        return traj.cost + weight * float(np.sum(np.abs(defect)))

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
    """Projected-gradient norm sup_i ||proj(u_i - g_i) - u_i||: the
    certificate's normal-cone residual of -g."""
    return float(np.max(normal_cone_residual(prob.control_set, values, -g)))


def _terminal_jacobian(prob: OcpProblem, traj: Trajectory,
                       u: PiecewiseConstantControl) -> Array:
    """C = dx(T)/du, (n, N*m) over the stacked held values: row j is the
    interval integral of grad_u f' p, p(t) = Phi(T, t)' e_j the costate
    with p0 = 0 and p(T) = e_j, all n from one march along (x, u)."""
    phi = Linearization(prob, traj, u).at_final()
    return np.array([
        interval_grad_integrals(prob, traj.grid, traj.states, u,
                                phi[:, j], 0.0).ravel()
        for j in range(prob.n)])


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


def _model_step(U: ControlSet, values: Array, g: Array, model: Array,
                C: Optional[Array] = None, r: Optional[Array] = None):
    """(s, nu): the step minimizing g's + 1/2 s' model s subject to
    values + s in U and, when C is given, C s = r, and the rows'
    multiplier.  On a box the exact oracle's active-set loop solves it;
    off a box, or where that loop does not settle without rows (the model
    need not be an M-matrix), ADMM on the split s = w, w in U - values
    (Boyd et al., Found. Trends Mach. Learn. 2011, sec. 5), with sigma
    from sqrt(lambda_min lambda_max) of the model, doubled or halved every
    tenth iteration while one residual leads the other tenfold (sec.
    3.4.1); only then are the Cholesky factors of model + sigma I (exact
    on the AL's ill-conditioned rho C'C) and of the Schur complement
    C (model + sigma I)^-1 C' rebuilt.  Without rows the feasible w is
    returned; with rows s, which meets them and leaves U by at most the
    ADMM tolerance (SQP's merit needs the rows met).  With rows an
    unsettled loop, a singular Schur complement or ADMM_MAX_ITER
    iterations raise `OracleError`."""
    u, c = values.ravel(), g.ravel()
    rows = C is not None
    if not rows:
        C, r = np.empty((0, u.size)), np.empty(0)
    if isinstance(U, Box):
        N = values.shape[0]
        lo, up = np.tile(U.lower, N), np.tile(U.upper, N)
        try:
            target, nu, _ = _solve_box_qp(
                _ReducedQp.model(model, c - model @ u, C, C @ u + r), lo, up)
            return (target - u).reshape(values.shape), nu
        except OracleError:
            if rows:
                raise
    eig = np.linalg.eigvalsh(model)
    sigma, factor = float(np.sqrt(eig[0] * eig[-1])), None
    w = lam = np.zeros(u.size)
    nu = np.empty(0)
    for k in range(ADMM_MAX_ITER):
        if factor is None:
            factor = cho_factor(model + sigma * np.eye(u.size))
            KC = cho_solve(factor, C.T)
            try:
                schur = cho_factor(C @ KC)
            except np.linalg.LinAlgError as exc:
                raise OracleError("singular Schur complement: the rows of "
                                  "C are dependent") from exc
        s = cho_solve(factor, sigma * (w - lam) - c)
        if rows:
            nu = cho_solve(schur, C @ s - r)
            s = s - KC @ nu
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
            factor = None
    # NaN (an overflowed nu) fails too: SQP's next p(T) = -nu stays finite
    if rows and not max(primal, dual) <= ADMM_TOL:
        raise OracleError(f"ADMM did not settle within {ADMM_MAX_ITER} "
                          "iterations")
    return (s if rows else w).reshape(values.shape), nu


def _line_search(aug, values: Array, step: Array, objective,
                 decrease: float, phi: float):
    """Armijo backtracking along values + t * step on `objective`, a
    function of the trajectory that is phi at t = 0 with directional
    derivative `decrease`: the first t in 1, 1/2, ... with phi(t) <=
    phi + ARMIJO_C t decrease + floor, floor the rounding level of phi,
    is accepted (only t = 1 when -decrease is itself at the floor); a
    trial whose state march blows up has phi(t) = inf.  Returns (values,
    trajectory, objective, settled), or None; `settled` says the
    accepted step changed phi by at most floor."""
    floor = ROUNDING_FLOOR * (1.0 + abs(phi))
    t = 1.0
    while t >= 1e-14:
        cand = project(aug.prob.control_set, values + t * step)
        try:
            traj = aug.forward(cand)
        except IntegrationDivergedError:
            traj = None
        val = np.inf if traj is None else objective(traj)
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
          warm_multiplier: Optional[Array] = None) -> SampledSolution:
    """Solve the sampled-data problem on the given partition.

    The augmented Lagrangian (AL), which every cold solve runs.  Outer
    loop: multiplier update mu <- mu + rho * (x(T) - xT), penalty
    growth only when feasibility fails to contract by 10x.  Inner loop:
    projected quasi-Newton steps on the model B + rho C'C, one algorithm
    for every control set.  C = dx(T)/du comes from one transition
    march, once per solve on LQ data, where it does not depend on u, and
    otherwise at the start of each round whose rho differs from C's.  B
    is a damped BFGS estimate of the rest of the Hessian, started at
    diag(h_i) and carried across rounds.  Each step minimizes the model
    over the control set (`_model_step`) and backtracks from the unit
    step under an Armijo test loosened by the rounding level of the
    objective; an accepted step that changes the objective by no more
    than that level ends the round.

    `warm_start` and `warm_multiplier` (a refinement cascade passes the
    coarser solution's) run SQP (`_sqp`): its multiplier nu gives p(T) =
    -nu, `iterations` counts accepted SQP steps and `outer_iterations` is
    0.  Its model starts from the Hessian of the exact sampled oracle's
    condensed QP on LQ data (`_ReducedQp.H`, off the RK4 one by the step
    error) and from diag(h_i) otherwise.  Where SQP fails, the AL runs
    from the warm start as a cold solve does.  Malformed warm arguments
    raise `ValueError` (`TypeError` for a warm start that is not held), a
    warm control outside the set `MembershipError`.

    On success the costate is p = -lambda with p(T) = -(mu + rho*defect)
    evaluated at the accepted stationary point, and p0 = -1.  The dense
    algebra runs on one OpenBLAS thread.
    """
    opts = options if options is not None else SolverOptions()
    mu = np.zeros(prob.n) if warm_multiplier is None \
        else np.asarray(warm_multiplier, dtype=float).copy()
    if mu.shape != (prob.n,) or not np.all(np.isfinite(mu)):
        raise ValueError(f"warm_multiplier must hold n = {prob.n} finite "
                         "values")
    grid = solver_grid(prob, partition, opts)
    aug = _AugmentedObjective(prob, partition, grid)
    rho = PENALTY_INIT
    B = np.diag(np.repeat(np.diff(partition.times), prob.m))

    if warm_start is not None:
        _check_type(warm_start, PiecewiseConstantControl)
        if warm_start.partition.N != partition.N or \
                not np.array_equal(warm_start.partition.times, partition.times):
            raise ValueError("warm start lives on a different partition")
        if warm_start.m != prob.m or \
                not np.all(np.isfinite(warm_start.values)):
            raise ValueError(f"warm_start must hold finite values with "
                             f"m = {prob.m} columns")
        require_in_set(prob.control_set, warm_start.values, "warm start")
        values = warm_start.values.copy()
        model = B if prob.lq is None else _ReducedQp(prob.lq, partition).H
        sol = _sqp(aug, values, mu, model, opts)
        if sol is not None:
            return sol
    else:
        values = _default_initial_control(prob, partition)

    C = C_rho = None
    total_inner = 0
    objective_log = []
    feas_history = []
    best = None  # (feas, stat) of the most feasible outer round

    traj = aug.forward(values)
    for outer in range(1, opts.max_outer + 1):
        inner_tol = max(opts.stat_tol, 1e-3 * (0.1 ** outer))
        g, costate, defect = aug.gradient(values, traj, mu, rho)
        phi = aug.value(traj, mu, rho)
        if C is None or (prob.lq is None and rho != C_rho):
            C = _terminal_jacobian(prob, traj, aug.control(values))
            C_rho = rho
        for _ in range(opts.max_inner):
            stat = _stationarity(prob, values, g)
            if stat <= inner_tol:
                break
            step, _ = _model_step(prob.control_set, values, g,
                                  B + rho * (C.T @ C))
            found = _line_search(aug, values, step,
                                 partial(aug.value, mu=mu, rho=rho),
                                 float(np.sum(g * step)), phi)
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


def _sqp(aug: _AugmentedObjective, values: Array, nu: Array, B: Array,
         opts: SolverOptions) -> Optional[SampledSolution]:
    """SQP on the condensed problem from a warm start.

    Each step marches one adjoint with p(T) = -nu, which gives the
    Lagrangian gradient and the costate to certify; solves the QP
    min g_J's + 1/2 s'Bs subject to values + s in U and C s = -(x(T) -
    xT) with `_model_step`, whose multiplier is the next nu; backtracks
    on the l1 merit J + pi ||x(T) - xT||_1 with pi = max(pi, 1.1
    ||nu||_inf); and updates B by damped BFGS on the change of the
    Lagrangian gradient, from the initial B the caller gives.  Gradient,
    C, merit and stopping tests are the RK4 marches', whatever B is, so
    B decides the steps, not the solution.  C is built once on LQ data,
    where x(T) is affine in u, and at every iterate otherwise.
    Returns the packaged solution once the feasibility and stationarity
    tests pass, or None when a QP fails, the merit search finds no step,
    or max_inner steps pass."""
    prob = aug.prob
    traj = aug.forward(values)
    g, costate, defect = aug.gradient(values, traj, nu, 0.0)
    C = _terminal_jacobian(prob, traj, aug.control(values))
    pi = 0.0
    objective_log, feas_log = [], []
    for steps in range(opts.max_inner + 1):
        feas = float(np.linalg.norm(defect))
        stat = _stationarity(prob, values, g)
        if feas <= opts.feas_tol and stat <= opts.stat_tol:
            return _package(prob, aug.partition, values, traj, costate, nu,
                            steps, 0, feas, stat, objective_log, feas_log)
        if steps == opts.max_inner:
            break
        g_cost = g - (C.T @ nu).reshape(g.shape)
        try:
            step, nu_next = _model_step(prob.control_set, values, g_cost, B,
                                        C, -defect)
        except OracleError:
            return None
        pi = max(pi, 1.1 * float(np.max(np.abs(nu_next))))
        found = _line_search(aug, values, step,
                             partial(aug.merit, weight=pi),
                             float(g_cost.ravel() @ step.ravel())
                             - pi * float(np.sum(np.abs(defect))),
                             aug.merit(traj, pi))
        if found is None:
            return None
        cand, traj, merit, _ = found
        g_next, costate, defect = aug.gradient(cand, traj, nu_next, 0.0)
        B = _damped_bfgs(B, (cand - values).ravel(),
                         (g_next - g).ravel() - C.T @ (nu_next - nu))
        if prob.lq is None:
            C = _terminal_jacobian(prob, traj, aug.control(cand))
        values, g, nu = cand, g_next, nu_next
        objective_log.append((0, steps + 1, merit))
        feas_log.append(float(np.linalg.norm(defect)))
    return None


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
    _check_type(u, PiecewiseConstantControl)
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
