"""Residual computation for first-order optimality certificates.

Covers the adjoint-equation residual, the pointwise gradient and
maximization conditions on the control, the interval-averaged gradient
condition for piecewise-constant controls, and the terminal variational
inequality that characterizes extremal lifts.  Residuals are reported,
never silently thresholded; verdict levels are pass <= 1e-6,
warn <= 1e-3, fail otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .control_partition import (Partition, PiecewiseConstantControl,
                                _check_type, uniform_partition)
from .errors import GridAlignmentError
from .integrate import (CostateTrajectory, Linearization, TimeGrid,
                        Trajectory, simpson_on_interval)
from .problem_model import (OcpProblem, _count, grid_spacing,
                            normal_cone_residual, project, require_in_set,
                            sample_grid)

Array = np.ndarray

PASS_THRESHOLD = 1e-6
WARN_THRESHOLD = 1e-3


def hamiltonian(prob: OcpProblem, x: Array, u: Array, p: Array, p0: float,
                t: float) -> float:
    """H(x, u, p, p0, t) = <p, f(x, u, t)> + p0 L(x, u, t)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return float(p @ prob.dynamics(x, u, t) + p0 * prob.cost(x, u, t))


def grad_u_hamiltonian(prob: OcpProblem, x: Array, u: Array, p: Array,
                       p0: float, t: float) -> Array:
    """Control gradient of the Hamiltonian: grad_u f' p + p0 grad_u L."""
    return prob.dynamics_jac_u(x, u, t).T @ p + p0 * prob.cost_grad_u(x, u, t)


@dataclass(frozen=True)
class Extremal:
    """A candidate extremal: state path, control, costate pair.

    p0 is the costate's own, so the pair (p, p0) is nontrivial; the state
    must start at x0 and end within `feas_tol` of the target; state and
    costate share one grid.
    """

    problem: OcpProblem
    x: Trajectory
    u: object
    p: CostateTrajectory
    p0: float
    feas_tol: float = 1e-6

    def __post_init__(self):
        if self.p0 != self.p.p0:
            raise ValueError("p0 disagrees with the costate trajectory")
        if not np.array_equal(self.x.grid.times, self.p.grid.times):
            raise GridAlignmentError("state and costate grids differ")

    @cached_property
    def linearization(self) -> Linearization:
        """The one linearization along (x, u) behind the adjoint residual
        and every lift probe; derivative tables fill on first use."""
        return Linearization(self.problem, self.x, self.u)

    def validate(self) -> None:
        if float(np.linalg.norm(self.x.states[0] - self.problem.x0)) != 0.0:
            raise ValueError("trajectory does not start at x0")
        feas = float(np.linalg.norm(self.x.final_state - self.problem.xT))
        if feas > self.feas_tol:
            raise ValueError(
                f"terminal defect {feas:.3e} exceeds tolerance {self.feas_tol:.1e}")

    @property
    def feasibility(self) -> float:
        return float(np.linalg.norm(self.x.final_state - self.problem.xT))


def classify_normality(e: Extremal) -> str:
    """'normal' iff p0 < 0; with p0 = 0 the costate guarantees p(T) != 0."""
    return "abnormal" if e.p0 == 0.0 else "normal"


# ---------------------------------------------------------------------------
# Residuals


def _nodal_grad_u(e: Extremal):
    """grad_u H at every grid node with the right-continuous control."""
    uu = e.linearization.node_controls
    out = np.array([grad_u_hamiltonian(e.problem, e.x.states[k], uu[k],
                                       e.p.costates[k], e.p0, float(t))
                    for k, t in enumerate(e.x.grid.times)])
    return uu, out


@dataclass(frozen=True)
class ProfileResult:
    sup: float
    times: Array
    per_node: Array


def ae_residual(e: Extremal) -> ProfileResult:
    """Adjoint-equation defect along the stored costate.

    The right-hand side at every node, read from the extremal's
    linearization with the same stage data the costate march uses, is
    compared with the costate's stored derivative on each side of the
    node, which certifies that the stored triple solves the adjoint
    equation (rather than some other trajectory's).  A costate loaded
    from a file carries derivatives differentiated from its nodes
    (`costate_from_nodes`).
    """
    grid = e.p.grid
    p = e.p.costates
    fx = e.linearization.table("dynamics_jac_x")
    lx = e.linearization.table("cost_grad_x")

    def rhs(k, stage, node):
        """Adjoint right-hand side at `node`, stage `stage` of segment k."""
        return -fx[k][stage].T @ p[node] - e.p0 * lx[k][stage]

    res = np.zeros(grid.times.size)
    for k in range(grid.K):
        res[k] = max(res[k], float(np.linalg.norm(
            e.p.deriv_right[k] - rhs(k, 0, k))))
        res[k + 1] = max(res[k + 1], float(np.linalg.norm(
            e.p.deriv_left[k + 1] - rhs(k, 2, k + 1))))
    return ProfileResult(float(np.max(res)), grid.times, res)


def hg_residual(e: Extremal) -> ProfileResult:
    """Pointwise gradient condition: sup over nodes of the normal-cone
    defect of grad_u H at u(t).  Meaningful for permanent controls; a
    sampled optimum leaves an O(partition norm) defect here, so
    `evaluate_extremal` gates piecewise-constant controls on the averaged
    condition (`ahg_residual`) and leaves hg not evaluated."""
    uu, gu = _nodal_grad_u(e)
    per_node = normal_cone_residual(e.problem.control_set, uu, gu)
    return ProfileResult(float(np.max(per_node)), e.x.grid.times, per_node)


@dataclass(frozen=True)
class AhgResult:
    sup: float
    per_interval: Array
    integrals: Array


def interval_grad_integrals(prob: OcpProblem, grid: TimeGrid, states: Array,
                            u: PiecewiseConstantControl, costates: Array,
                            p0: float) -> Array:
    """(N, m) integrals of grad_u H(x(s), u_i, p(s), s) over each sampling
    interval of `u`, by composite Simpson on the grid nodes of that
    interval."""
    bounds = grid.boundaries_of(u.partition)
    integrals = np.empty((u.partition.N, prob.m))
    for i, ui in enumerate(u.values):
        ks = range(bounds[i], bounds[i + 1] + 1)
        vals = np.array([grad_u_hamiltonian(prob, states[k], ui, costates[k],
                                            p0, float(grid.times[k]))
                         for k in ks])
        integrals[i] = simpson_on_interval(
            vals, float(grid.times[ks[1]] - grid.times[ks[0]]))
    return integrals


def ahg_residual(e: Extremal) -> AhgResult:
    """Interval-averaged gradient condition for a PC control.

    For every sampling interval, integrates grad_u H(x(s), u_i, p(s), s)
    with composite Simpson on the grid nodes of that interval and
    measures the normal-cone defect of the integral at u_i.
    """
    if not isinstance(e.u, PiecewiseConstantControl):
        raise TypeError("averaged condition requires a piecewise-constant control")
    integrals = interval_grad_integrals(e.problem, e.x.grid, e.x.states, e.u,
                                        e.p.costates, e.p0)
    residuals = normal_cone_residual(e.problem.control_set, e.u.values,
                                     integrals)
    return AhgResult(float(np.max(residuals)), residuals, integrals)


@dataclass(frozen=True)
class HmResult:
    sup: float
    per_node: Array
    grid_spacing: float
    slack: float


def hm_gap(e: Extremal, density: int = 1001, time_stride: int = 1) -> HmResult:
    """Pointwise maximization gap via exhaustive scan over the control set.

    Reports max over time nodes of (max_w H - H(u(t))) minus a
    Lipschitz-based slack for the scan spacing, clamped at zero.  Each
    node reads H on rows of candidate controls (`_hamiltonian_rows`):
    the point grid of U for control dimension <= 2, and coordinate
    lines through the best point so far above that.
    """
    density = _count("density", density, 2)
    time_stride = _count("time_stride", time_stride, 1)
    prob = e.problem
    U = prob.control_set
    grid = e.x.grid
    omegas = sample_grid(U, density) if prob.m <= 2 else None
    spacing = grid_spacing(U, density)
    node_controls = e.linearization.node_controls
    gaps = []
    worst_slack = 0.0
    for k in range(0, grid.times.size, time_stride):
        H, grad_norm = _hamiltonian_rows(prob, e.x.states[k], e.p.costates[k],
                                         e.p0, float(grid.times[k]))
        u_t = node_controls[k][None, :]
        h_here = float(H(u_t)[0])
        if omegas is None:
            best, lip = _coordinate_scan(U, H, grad_norm, u_t, h_here, density)
        else:
            best = float(np.max(H(omegas)))
            # Lipschitz estimate from a coarse subsample of grad_u H
            lip = float(np.max(grad_norm(omegas[::max(1, len(omegas) // 32)])))
        slack = lip * spacing / 2.0
        worst_slack = max(worst_slack, slack)
        gaps.append(max(0.0, best - h_here - slack))
    per_node = np.asarray(gaps)
    return HmResult(float(np.max(per_node)), per_node, spacing, worst_slack)


def _hamiltonian_rows(prob: OcpProblem, x, p, p0, t):
    """(H, |grad_u H|) at one node as functions of an (rows, m) array.
    With R declared: H(w) = a.w + p0 w'Rw/2 + c, a = f_u'p + p0 L_u and
    c = p.f + p0 L at w = 0, the gradient summed as f_u'p + p0 (R w + L_u)
    like `grad_u_hamiltonian`; otherwise one call of each per row."""
    R = prob.control_hessian
    if R is None:
        def H(w):
            return np.array([hamiltonian(prob, x, v, p, p0, t) for v in w])

        def grad_norm(w):
            return np.array([np.linalg.norm(grad_u_hamiltonian(
                prob, x, v, p, p0, t)) for v in w])
        return H, grad_norm
    zero = np.zeros(prob.m)
    gp = prob.dynamics_jac_u(x, zero, t).T @ p
    lin = prob.cost_grad_u(x, zero, t)
    a = gp + p0 * lin
    c = float(p @ prob.dynamics(x, zero, t) + p0 * prob.cost(x, zero, t))

    def H(w):
        return w @ a + (0.5 * p0) * np.sum((w @ R) * w, axis=1) + c

    def grad_norm(w):
        return np.linalg.norm(gp + p0 * (w @ R.T + lin), axis=1)
    return H, grad_norm


def _coordinate_scan(U, H, grad_norm, u, best, density):
    """Three coordinate-wise sweeps from the (1, m) row u, where H is
    `best`: (best H seen, |grad_u H| at the row that reached it)."""
    lo, up = U.bounding_box()
    for _ in range(3):
        for j in range(u.shape[1]):
            cand = np.repeat(u, density, axis=0)
            cand[:, j] = np.linspace(lo[j], up[j], density)
            cand = project(U, cand)
            vals = H(cand)
            jbest = int(np.argmax(vals))
            u = cand[jbest:jbest + 1]
            best = max(best, float(vals[jbest]))
    return best, float(grad_norm(u)[0])


def lift_inequality(e: Extremal, v) -> float:
    """Terminal variational value z_v(T) = <p(T), w(T)> + p0 w0(T).

    Nonpositive for every admissible probe v exactly when (p, p0) is an
    extremal lift of (x, u).  `v` is one probe or a list or tuple of
    probes, marched together in one variation march; the value is the
    largest z_v(T) among them.  Each probe is read at the stage points of
    every grid segment, where the march reads it, and must take values
    in the control set there; all are checked before the march.
    """
    lin = e.linearization
    reads = [(np.asarray(values), jumps) for values, jumps in map(
        lin.stage_values, v if isinstance(v, (list, tuple)) else [v])]
    for values, _ in reads:
        require_in_set(e.problem.control_set,
                       values.reshape(-1, e.problem.m), "probe")
    u_values = np.asarray(lin.stage_controls)
    final = lin.variations(
        np.stack([values - u_values for values, _ in reads], -1),
        np.concatenate([jumps for _, jumps in reads]))[-1]
    return max(float(e.p.final_costate @ w[:-1] + e.p0 * w[-1])
               for w in final.T)


# ---------------------------------------------------------------------------
# Report assembly


@dataclass
class ResidualReport:
    """Container for all residuals, with pass/warn/fail verdicts.

    Fields left as None were not evaluated.  `gating` lists the sections
    whose pass threshold decides the overall verdict.
    """

    ae_residual: Optional[float] = None
    hg_residual: Optional[float] = None
    hm_gap: Optional[float] = None
    ahg_sup: Optional[float] = None
    ahg_per_interval: Optional[Array] = None
    lift_inequality_worst: Optional[float] = None
    lift_probe_count: int = 0
    feasibility: Optional[float] = None
    normality: Optional[str] = None
    gating: tuple = ("ae", "ahg")

    @staticmethod
    def _verdict(value: Optional[float]) -> str:
        if value is None:
            return "not evaluated"
        if value <= PASS_THRESHOLD:
            return "pass"
        if value <= WARN_THRESHOLD:
            return "warn"
        return "fail"

    def section_values(self) -> dict:
        return {
            "ae": self.ae_residual,
            "hg": self.hg_residual,
            "hm": self.hm_gap,
            "ahg": self.ahg_sup,
            "lift_probes": self.lift_inequality_worst,
        }

    def verdicts(self) -> dict:
        return {name: self._verdict(val)
                for name, val in self.section_values().items()}

    def all_pass(self) -> bool:
        """True iff every gating section was evaluated and passes."""
        verdicts = self.verdicts()
        return all(verdicts.get(name) == "pass" for name in self.gating)

    def to_json(self) -> str:
        values = self.section_values()
        verdicts = self.verdicts()
        doc = {
            "sections": {
                name: {
                    "value": values[name],
                    "verdict": verdicts[name],
                    "gating": name in self.gating,
                }
                for name in ("ae", "hg", "hm", "ahg", "lift_probes")
            },
            "ahg_per_interval": (None if self.ahg_per_interval is None
                                 else [float(r) for r in self.ahg_per_interval]),
            "lift_probe_count": self.lift_probe_count,
            "feasibility": self.feasibility,
            "normality": self.normality,
            "thresholds": {"pass": PASS_THRESHOLD, "warn": WARN_THRESHOLD},
        }
        return json.dumps(doc, indent=2, sort_keys=True)


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int            # inner iterations, SQP steps or oracle solves
    outer_iterations: int      # AL multiplier rounds (SQP and oracles: 0)
    feasibility: float
    stationarity: float
    objective_log: tuple       # (outer, inner, AL objective or SQP merit)
    feasibility_log: tuple = ()  # terminal defect per AL round or SQP step


@dataclass(frozen=True)
class SampledSolution:
    """A solution on one partition from `solve` or the exact oracle."""

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


def evaluate_extremal(e: Extremal, *, with_hm: bool = False,
                      hm_density: int = 1001, hm_time_stride: int = 1,
                      lift_probes: int = 0) -> ResidualReport:
    """Assemble a residual report for an extremal candidate.

    The averaged condition is evaluated when the control is piecewise
    constant, the pointwise gradient condition otherwise; the pointwise
    maximization gap only on request (it scans the whole control set).
    Lift probes draw random piecewise-constant controls valued in U from
    a generator seeded with 0, so a report is reproducible.
    """
    lift_probes = _count("lift_probes", lift_probes, 0)
    e.validate()
    report = ResidualReport()
    report.feasibility = e.feasibility
    report.normality = classify_normality(e)
    report.ae_residual = ae_residual(e).sup
    gating = ["ae"]
    if isinstance(e.u, PiecewiseConstantControl):
        res = ahg_residual(e)
        report.ahg_sup = res.sup
        report.ahg_per_interval = res.per_interval
        gating.append("ahg")
    else:
        report.hg_residual = hg_residual(e).sup
        gating.append("hg")
    if with_hm:
        report.hm_gap = hm_gap(e, density=hm_density,
                               time_stride=hm_time_stride).sup
        gating.append("hm")
    if lift_probes > 0:
        rng = np.random.default_rng(0)
        partition = _probe_partition(e)
        probes = [random_admissible_control(e.problem, partition, rng)
                  for _ in range(lift_probes)]
        report.lift_inequality_worst = lift_inequality(e, probes)
        report.lift_probe_count = lift_probes
        gating.append("lift_probes")
    report.gating = tuple(gating)
    return report


def _probe_partition(e: Extremal):
    if isinstance(e.u, PiecewiseConstantControl):
        return e.u.partition
    return uniform_partition(8, e.problem.horizon)


def random_admissible_control(prob: OcpProblem, partition, rng) -> PiecewiseConstantControl:
    """Random PC control valued in U: uniform in the bounding box, projected."""
    _check_type(partition, Partition)
    lo, up = prob.control_set.bounding_box()
    raw = rng.uniform(lo, up, size=(partition.N, prob.m))
    return PiecewiseConstantControl(partition, project(prob.control_set, raw))
