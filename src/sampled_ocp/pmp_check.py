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

from .control_partition import PiecewiseConstantControl, uniform_partition
from .errors import GridAlignmentError, MembershipError
from .integrate import (ControlDifference, CostateTrajectory, Linearization,
                        TimeGrid, Trajectory, simpson_on_interval)
from .problem_model import (TOL_SET, OcpProblem, grid_spacing,
                            normal_cone_residual, project, sample_grid)

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

    def control_value(self, t: float) -> Array:
        if callable(self.u):
            return np.atleast_1d(np.asarray(self.u(t), dtype=float))
        return self.u.value(t)


def classify_normality(e: Extremal) -> str:
    """'normal' iff p0 < 0; with p0 = 0 the costate guarantees p(T) != 0."""
    return "abnormal" if e.p0 == 0.0 else "normal"


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
    Lipschitz-based slack for the scan spacing, clamped at zero.  For
    control dimension > 2 the scan degenerates to coordinate-wise
    refinement.  On a problem that declares its `control_hessian`, each
    node's scan is one numpy row built from the problem's evaluators at
    w = 0; other problems call `hamiltonian` once per scan point.
    """
    prob = e.problem
    U = prob.control_set
    grid = e.x.grid
    nodes = range(0, grid.times.size, max(1, int(time_stride)))
    omegas = sample_grid(U, density) if prob.m <= 2 else None
    # Lipschitz estimate from a coarse subsample of grad_u H
    sub = None if omegas is None else omegas[::max(1, len(omegas) // 32)]
    R = None if omegas is None else prob.control_hessian
    spacing = grid_spacing(U, density)
    gaps = []
    worst_slack = 0.0
    for k in nodes:
        t = float(grid.times[k])
        xk = e.x.states[k]
        pk = e.p.costates[k]
        u_t = e.control_value(t)
        if R is not None:
            best, h_here, lip = _structured_scan(prob, R, xk, pk, e.p0, t,
                                                 u_t, omegas, sub)
        elif omegas is not None:
            h_here = hamiltonian(prob, xk, u_t, pk, e.p0, t)
            best = float(np.max([hamiltonian(prob, xk, w, pk, e.p0, t)
                                 for w in omegas]))
            lip = max(float(np.linalg.norm(
                grad_u_hamiltonian(prob, xk, w, pk, e.p0, t))) for w in sub)
        else:
            h_here = hamiltonian(prob, xk, u_t, pk, e.p0, t)
            best, lip = _coordinate_scan(prob, U, xk, pk, e.p0, t, u_t, density)
        slack = lip * spacing / 2.0
        worst_slack = max(worst_slack, slack)
        gaps.append(max(0.0, best - h_here - slack))
    per_node = np.asarray(gaps)
    return HmResult(float(np.max(per_node)), per_node, spacing, worst_slack)


def _structured_scan(prob: OcpProblem, R: Array, x, p, p0, t, u, omegas,
                     sub):
    """(max of H over the rows of `omegas`, H(u), max of |grad_u H| over the
    rows of `sub`) at one node, from H(w) = a.w + p0 w'Rw/2 + c with
    a = f_u'p + p0 L_u and c = p.f + p0 L, all read at w = 0.  The
    gradient is summed as f_u'p + p0 (R w + L_u), the order of
    grad_u f' p + p0 grad_u L (R symmetric)."""
    zero = np.zeros(prob.m)
    gp = prob.dynamics_jac_u(x, zero, t).T @ p
    lin = prob.cost_grad_u(x, zero, t)
    a = gp + p0 * lin
    c = float(p @ prob.dynamics(x, zero, t) + p0 * prob.cost(x, zero, t))

    def h(w):
        return w @ a + (0.5 * p0) * np.sum((w @ R) * w, axis=1) + c

    lip = np.linalg.norm(gp + p0 * (sub @ R.T + lin), axis=1)
    return (float(np.max(h(omegas))), float(h(u[None, :])[0]),
            float(np.max(lip)))


def _coordinate_scan(prob, U, x, p, p0, t, u_start, density):
    """Coordinate-wise refinement for control dimension > 2: three sweeps."""
    lo, up = U.bounding_box()
    u = np.asarray(u_start, dtype=float).copy()
    best = hamiltonian(prob, x, u, p, p0, t)
    for _ in range(3):
        for j in range(u.size):
            cand = np.repeat(u[None, :], density, axis=0)
            cand[:, j] = np.linspace(lo[j], up[j], density)
            cand = project(U, cand)
            vals = [hamiltonian(prob, x, c, p, p0, t) for c in cand]
            jbest = int(np.argmax(vals))
            u = cand[jbest]
            best = max(best, float(vals[jbest]))
    lip = float(np.linalg.norm(grad_u_hamiltonian(prob, x, u, p, p0, t)))
    return best, lip


def lift_inequality(e: Extremal, v) -> float:
    """Terminal variational value z_v(T) = <p(T), w(T)> + p0 w0(T).

    Nonpositive for every admissible probe v exactly when (p, p0) is an
    extremal lift of (x, u); the probe must take values in the control
    set.
    """
    _check_probe_membership(e.problem, v)
    var = e.linearization.variation(ControlDifference(v, e.u))
    return float(e.p.final_costate @ var.final_w + e.p0 * var.final_w0)


def _check_probe_membership(prob, v):
    if isinstance(v, PiecewiseConstantControl):
        d = v.max_set_distance(prob.control_set)
        if d > TOL_SET:
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
        }
        return json.dumps(doc, indent=2, sort_keys=True)


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
        worst = -np.inf
        rng = np.random.default_rng(0)
        for _ in range(lift_probes):
            probe = random_admissible_control(e.problem, _probe_partition(e), rng)
            worst = max(worst, lift_inequality(e, probe))
        report.lift_inequality_worst = float(worst)
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
    lo, up = prob.control_set.bounding_box()
    raw = rng.uniform(lo, up, size=(partition.N, prob.m))
    return PiecewiseConstantControl(partition, project(prob.control_set, raw))
