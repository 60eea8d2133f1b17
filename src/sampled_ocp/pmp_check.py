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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .control_partition import PiecewiseConstantControl
from .errors import GridAlignmentError, MembershipError, TrivialLiftError
from .integrate import (ControlDifference, CostateTrajectory, TimeGrid,
                        Trajectory, integrate_variation, simpson_on_interval)
from .problem_model import (OcpProblem, grid_spacing, normal_cone_residual,
                            project, sample_grid)

Array = np.ndarray

PASS_THRESHOLD = 1e-6
WARN_THRESHOLD = 1e-3
# Gate on a sampled solve's own output (the CLI `solve` exit code and the
# rows a sweep reports): ae at the pass level, ahg looser.
SOLVE_GATE_AE = PASS_THRESHOLD
SOLVE_GATE_AHG = 1e-5


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

    The pair (p, p0) must be nontrivial; the state must start at x0 and
    end within `feas_tol` of the target.
    """

    problem: OcpProblem
    x: Trajectory
    u: object
    p: CostateTrajectory
    p0: float
    feas_tol: float = 1e-6

    def __post_init__(self):
        if self.p0 > 0:
            raise ValueError("p0 must be nonpositive")
        if abs(self.p0 - self.p.p0) > 0:
            raise ValueError("p0 disagrees with the costate trajectory")

    def validate(self) -> None:
        if float(np.linalg.norm(self.p.final_costate)) + abs(self.p0) == 0.0:
            raise TrivialLiftError("trivial pair (p(T), p0)")
        if float(np.linalg.norm(self.x.states[0] - self.problem.x0)) != 0.0:
            raise ValueError("trajectory does not start at x0")
        feas = float(np.linalg.norm(self.x.final_state - self.problem.xT))
        if feas > self.feas_tol:
            raise ValueError(
                f"terminal defect {feas:.3e} exceeds tolerance {self.feas_tol:.1e}")

    @property
    def feasibility(self) -> float:
        return float(np.linalg.norm(self.x.final_state - self.problem.xT))

    def control_value(self, t: float) -> Array:
        if isinstance(self.u, PiecewiseConstantControl):
            return self.u.value(t)
        if callable(self.u):
            return np.atleast_1d(np.asarray(self.u(t), dtype=float))
        return self.u.value(t)


def classify_normality(e: Extremal) -> str:
    """'normal' iff p0 < 0; 'abnormal' requires p(T) != 0."""
    if abs(e.p0) == 0.0:
        if float(np.linalg.norm(e.p.final_costate)) == 0.0:
            raise TrivialLiftError("trivial pair: p0 = 0 and p(T) = 0")
        return "abnormal"
    return "normal"


# ---------------------------------------------------------------------------
# Residuals


def _nodal_grad_u(e: Extremal):
    """grad_u H at every grid node with the right-continuous control."""
    grid = e.x.grid
    out = np.empty((grid.times.size, e.problem.m))
    uu = np.empty_like(out)
    for k, t in enumerate(grid.times):
        u_t = e.control_value(float(t))
        uu[k] = u_t
        out[k] = grad_u_hamiltonian(e.problem, e.x.states[k], u_t,
                                    e.p.costates[k], e.p0, float(t))
    return uu, out


@dataclass(frozen=True)
class ProfileResult:
    sup: float
    times: Array
    per_node: Array


def ae_residual(e: Extremal) -> ProfileResult:
    """Adjoint-equation defect along the stored costate.

    Uses the costate's stored derivatives when available: the right-hand
    side is re-evaluated from (x, u, p) at every node and compared with
    the derivative recorded during integration, which certifies that the
    stored triple solves the adjoint equation (rather than some other
    trajectory's).  Costates loaded from files fall back to high-order
    finite differencing per sampling interval.
    """
    grid = e.p.grid
    prob = e.problem
    have_derivs = bool(np.any(e.p.deriv_right) or np.any(e.p.deriv_left))

    def rhs(t, xk, pk, u_t):
        return (-prob.dynamics_jac_x(xk, u_t, t).T @ pk
                - e.p0 * prob.cost_grad_x(xk, u_t, t))

    res = np.zeros(grid.times.size)
    if have_derivs:
        for k in range(grid.K):
            tL, tR = float(grid.times[k]), float(grid.times[k + 1])
            u_seg = e.control_value(tL)
            rL = rhs(tL, e.x.states[k], e.p.costates[k], u_seg)
            rR = rhs(tR, e.x.states[k + 1], e.p.costates[k + 1], u_seg)
            res[k] = max(res[k], float(np.linalg.norm(e.p.deriv_right[k] - rL)))
            res[k + 1] = max(res[k + 1],
                             float(np.linalg.norm(e.p.deriv_left[k + 1] - rR)))
    else:
        for i in range(grid.n_intervals):
            sl = grid.interval_slice(i)
            block_t = grid.times[sl]
            block_p = e.p.costates[sl]
            h = float(block_t[1] - block_t[0])
            dp = _differentiate_block(block_p, h)
            pc = isinstance(e.u, PiecewiseConstantControl)
            for j, k in enumerate(range(sl.start, sl.stop)):
                t = float(grid.times[k])
                u_node = e.u.values[min(i, e.u.partition.N - 1)] if pc \
                    else e.control_value(t)
                r = rhs(t, e.x.states[k], e.p.costates[k], u_node)
                res[k] = max(res[k], float(np.linalg.norm(dp[j] - r)))
    return ProfileResult(float(np.max(res)), grid.times, res)


def _differentiate_block(values: Array, h: float) -> Array:
    """Differentiate uniformly spaced samples; 4th order when >= 5 nodes."""
    M = values.shape[0]
    out = np.empty_like(values)
    if M >= 5:
        v = values
        out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
        out[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
        out[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
        out[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
        out[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    else:
        out[1:-1] = (values[2:] - values[:-2]) / (2 * h)
        out[0] = (values[1] - values[0]) / h
        out[-1] = (values[-1] - values[-2]) / h
    return out


def hg_residual(e: Extremal) -> ProfileResult:
    """Pointwise gradient condition: sup over nodes of the normal-cone
    defect of grad_u H at u(t).  Meaningful for permanent controls;
    for sampled controls it is informative only (the averaged condition
    is the sampled-data stationarity notion)."""
    grid = e.x.grid
    U = e.problem.control_set
    uu, gu = _nodal_grad_u(e)
    per_node = np.array([normal_cone_residual(U, uu[k], gu[k])
                         for k in range(grid.times.size)])
    return ProfileResult(float(np.max(per_node)), grid.times, per_node)


@dataclass(frozen=True)
class AhgResult:
    sup: float
    per_interval: Array
    integrals: Array


def interval_grad_integrals(prob: OcpProblem, grid: TimeGrid, states: Array,
                            values: Array, costates: Array,
                            p0: float) -> Array:
    """(N, m) integrals of grad_u H(x(s), u_i, p(s), s) over each sampling
    interval, by composite Simpson on the grid nodes; the grid must be
    aligned with the partition of the interval values."""
    integrals = np.empty((values.shape[0], prob.m))
    for i in range(values.shape[0]):
        sl = grid.interval_slice(i)
        ts = grid.times[sl]
        vals = np.empty((ts.size, prob.m))
        for j, k in enumerate(range(sl.start, sl.stop)):
            vals[j] = grad_u_hamiltonian(prob, states[k], values[i],
                                         costates[k], p0, float(ts[j]))
        integrals[i] = simpson_on_interval(vals, float(ts[1] - ts[0]))
    return integrals


def ahg_residual(e: Extremal) -> AhgResult:
    """Interval-averaged gradient condition for a PC control.

    For every sampling interval, integrates grad_u H(x(s), u_i, p(s), s)
    with composite Simpson on the aligned grid and measures the
    normal-cone defect of the integral at u_i.
    """
    if not isinstance(e.u, PiecewiseConstantControl):
        raise TypeError("averaged condition requires a piecewise-constant control")
    grid = e.x.grid
    if grid.partition is None or \
            not np.all(np.isin(e.u.partition.times, grid.times)):
        raise GridAlignmentError("grid is not aligned with the control partition")
    integrals = interval_grad_integrals(e.problem, grid, e.x.states,
                                        e.u.values, e.p.costates, e.p0)
    residuals = np.array([normal_cone_residual(e.problem.control_set, ui, gi)
                          for ui, gi in zip(e.u.values, integrals)])
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
    Lipschitz-based slack for the scan spacing, clamped at zero.  For
    control dimension > 2 the scan degenerates to coordinate-wise
    refinement.
    """
    prob = e.problem
    U = prob.control_set
    grid = e.x.grid
    nodes = range(0, grid.times.size, max(1, int(time_stride)))
    if prob.m <= 2:
        omegas = sample_grid(U, density)
        spacing = grid_spacing(U, density)
    else:
        omegas = None
        spacing = grid_spacing(U, density)
    gaps = []
    times = []
    worst_slack = 0.0
    for k in nodes:
        t = float(grid.times[k])
        xk = e.x.states[k]
        pk = e.p.costates[k]
        u_t = e.control_value(t)
        h_here = hamiltonian(prob, xk, u_t, pk, e.p0, t)
        if omegas is not None:
            values = np.array([hamiltonian(prob, xk, w, pk, e.p0, t)
                               for w in omegas])
            best = float(np.max(values))
            # Lipschitz estimate from a coarse subsample of grad_u H
            sub = omegas[::max(1, len(omegas) // 32)]
            lip = max(float(np.linalg.norm(
                grad_u_hamiltonian(prob, xk, w, pk, e.p0, t))) for w in sub)
        else:
            best, lip = _coordinate_scan(prob, U, xk, pk, e.p0, t, u_t, density)
        slack = lip * spacing / 2.0
        worst_slack = max(worst_slack, slack)
        gaps.append(max(0.0, best - h_here - slack))
        times.append(t)
    per_node = np.asarray(gaps)
    return HmResult(float(np.max(per_node)), per_node, spacing, worst_slack)


def _coordinate_scan(prob, U, x, p, p0, t, u_start, density, sweeps: int = 3):
    """Coordinate-wise refinement for control dimension > 2."""
    lo, up = U.bounding_box()
    u = np.asarray(u_start, dtype=float).copy()
    best = hamiltonian(prob, x, u, p, p0, t)
    for _ in range(sweeps):
        for j in range(u.size):
            cand = np.repeat(u[None, :], density, axis=0)
            cand[:, j] = np.linspace(lo[j], up[j], density)
            vals = [hamiltonian(prob, x, project(U, c), p, p0, t) for c in cand]
            jbest = int(np.argmax(vals))
            u = project(U, cand[jbest])
            best = max(best, float(vals[jbest]))
    lip = float(np.linalg.norm(grad_u_hamiltonian(prob, x, u, p, p0, t)))
    return best, lip


def lift_inequality(e: Extremal, v, tol_set: float = 1e-10) -> float:
    """Terminal variational value z_v(T) = <p(T), w(T)> + p0 w0(T).

    Nonpositive for every admissible probe v exactly when (p, p0) is an
    extremal lift of (x, u); the probe must take values in the control
    set.
    """
    _check_probe_membership(e.problem, v, tol_set)
    var = integrate_variation(e.problem, e.x, e.u, ControlDifference(v, e.u))
    return float(e.p.final_costate @ var.final_w + e.p0 * var.final_w0)


def _check_probe_membership(prob, v, tol_set):
    if isinstance(v, PiecewiseConstantControl):
        d = v.max_set_distance(prob.control_set)
        if d > tol_set:
            raise MembershipError(
                f"probe leaves the control set by {d:.3e}")


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
    notes: list = field(default_factory=list)

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
        values = self.section_values()
        for name in self.gating:
            val = values.get(name)
            if val is None or val > PASS_THRESHOLD:
                return False
        return True

    def certifies_solve(self) -> bool:
        """True iff ae and ahg were evaluated and are within the solve
        gate (SOLVE_GATE_AE, SOLVE_GATE_AHG)."""
        return (self.ae_residual is not None
                and self.ae_residual <= SOLVE_GATE_AE
                and self.ahg_sup is not None
                and self.ahg_sup <= SOLVE_GATE_AHG)

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
            "notes": list(self.notes),
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def evaluate_extremal(e: Extremal, *, with_hm: bool = False,
                      hm_density: int = 1001, hm_time_stride: int = 1,
                      lift_probes: int = 0, probe_seed: int = 0) -> ResidualReport:
    """Assemble a residual report for an extremal candidate.

    The averaged condition is evaluated when the control is piecewise
    constant; the pointwise maximization gap only on request (it scans
    the whole control set).  Lift probes draw random piecewise-constant
    controls valued in U.
    """
    e.validate()
    report = ResidualReport()
    report.feasibility = e.feasibility
    report.normality = classify_normality(e)
    report.ae_residual = ae_residual(e).sup
    report.hg_residual = hg_residual(e).sup
    gating = ["ae"]
    if isinstance(e.u, PiecewiseConstantControl):
        res = ahg_residual(e)
        report.ahg_sup = res.sup
        report.ahg_per_interval = res.per_interval
        gating.append("ahg")
        report.notes.append(
            "hg is informative for sampled controls; the averaged condition gates")
    else:
        gating.append("hg")
    if with_hm:
        report.hm_gap = hm_gap(e, density=hm_density,
                               time_stride=hm_time_stride).sup
        gating.append("hm")
    if lift_probes > 0:
        worst = -np.inf
        rng = np.random.default_rng(probe_seed)
        for _ in range(lift_probes):
            probe = random_admissible_control(e.problem, _probe_partition(e), rng)
            worst = max(worst, lift_inequality(e, probe))
        report.lift_inequality_worst = float(worst)
        report.lift_probe_count = lift_probes
        gating.append("lift_probes")
    report.gating = tuple(gating)
    return report


def _probe_partition(e: Extremal):
    from .control_partition import uniform_partition
    if isinstance(e.u, PiecewiseConstantControl):
        return e.u.partition
    return uniform_partition(8, e.problem.horizon)


def random_admissible_control(prob: OcpProblem, partition, rng) -> PiecewiseConstantControl:
    """Random PC control valued in U: uniform in the bounding box, projected."""
    lo, up = prob.control_set.bounding_box()
    raw = rng.uniform(lo, up, size=(partition.N, prob.m))
    vals = np.array([project(prob.control_set, r) for r in raw])
    return PiecewiseConstantControl(partition, vals)
