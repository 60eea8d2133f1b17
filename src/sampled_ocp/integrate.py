"""Deterministic ODE propagation on partition-aligned time grids.

Classical fixed-step RK4 for the state (with the running cost carried as
an augmented quadrature state), the backward adjoint equation, the
linearized variation equations, and the state-transition matrix to T
from every grid node; the last three are linear marches along one
`Linearization` of (f, L) at (x, u).  Grids
contain every sampling time bit-exactly and stages never straddle a
sampling time, so piecewise-constant controls stay piecewise smooth
across steps and results are bitwise reproducible for a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .control_partition import (Partition, PiecewiseConstantControl,
                                _check_type, _read_float_rows,
                                _write_float_rows)
from .errors import (GridAlignmentError, IntegrationDivergedError,
                     TrivialLiftError)
from .problem_model import BLOWUP_NORM, OcpProblem, _frozen

Array = np.ndarray

# Grid default: h <= T / 1024 unless the caller asks otherwise.
DEFAULT_STEP_DIVISOR = 1024
# Most steps a grid may have.  The tests, the demos, the CLI defaults and
# the benchmark build at most 4,096; 2**20 leaves room for fine studies,
# yet one RK4 march over it already takes about a minute on a 2-core
# machine, so a larger count is an h_max slip, refused before the grid
# takes memory.
MAX_GRID_STEPS = 2 ** 20


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing solver nodes from 0 to T.  `boundaries` are the
    node indices of the sampling times the grid was built for; steps are
    uniform within each of those intervals and every interval holds an
    even number of them, so composite Simpson applies directly."""

    times: Array
    boundaries: Array  # indices into times of the partition nodes

    @property
    def K(self) -> int:
        """Number of steps (segments)."""
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_intervals(self) -> int:
        return self.boundaries.size - 1

    def interval_slice(self, i: int) -> slice:
        """Node index range [lo, hi] covering partition interval i."""
        return slice(int(self.boundaries[i]), int(self.boundaries[i + 1]) + 1)

    @cached_property
    def stage_times(self) -> Array:
        """(K, 3) times of the RK4 stage points of every step, t_k,
        t_k + h/2 and t_{k+1}: the one formula for a stage time."""
        t = self.times
        return np.stack([t[:-1], t[:-1] + 0.5 * (t[1:] - t[:-1]), t[1:]], 1)

    def boundaries_of(self, partition: Partition) -> Array:
        """Node index of every sampling time of `partition`, which must
        span the grid: each time is a node (bit-equal), the first node is
        0 and the last one is T."""
        idx = np.searchsorted(self.times, partition.times)
        if idx[0] != 0 or idx[-1] != self.K or \
                not np.array_equal(self.times[idx], partition.times):
            raise GridAlignmentError(
                "grid nodes do not span the partition's sampling times")
        return idx


def build_time_grid(horizon: float, partition: Optional[Partition] = None,
                    h_max: Optional[float] = None) -> TimeGrid:
    """Partition-aligned grid with even, uniform steps per interval.
    Raises `GridAlignmentError`, before allocating any node, when the grid
    that `h_max` asks for has more than `MAX_GRID_STEPS` steps."""
    if partition is not None:
        _check_type(partition, Partition)
    horizon = float(horizon)
    if h_max is None:
        h_max = horizon / DEFAULT_STEP_DIVISOR
    if not h_max > 0:
        raise ValueError("h_max must be positive")
    anchors = partition.times if partition is not None else np.array([0.0, horizon])
    if partition is not None and anchors[-1] != horizon:
        raise GridAlignmentError("partition horizon differs from problem horizon")
    # counted in floats, so an inf count is refused like a large one
    with np.errstate(over="ignore", invalid="ignore"):
        counts = np.ceil(np.diff(anchors) / h_max)
        steps = np.maximum(2.0, counts + counts % 2)
    if not steps.sum() <= MAX_GRID_STEPS:
        raise GridAlignmentError(
            f"h_max = {h_max:.3g} asks for {steps.sum():.3g} grid steps, "
            f"more than the {MAX_GRID_STEPS} a grid may have")
    steps = steps.astype(int)
    times = np.empty(steps.sum() + 1)
    boundaries = np.concatenate([[0], np.cumsum(steps)])
    for i, s in enumerate(steps):
        times[boundaries[i]:boundaries[i + 1] + 1] = np.linspace(
            anchors[i], anchors[i + 1], s + 1)
    return TimeGrid(_frozen(times), _frozen(boundaries).astype(int))


class ControlDifference:
    """Pointwise difference a(t) - b(t) of two control-like objects.

    Used as a variation direction; each piecewise-constant part keeps
    the segment-ownership evaluation rule (so samples at a segment's
    right endpoint stay on the segment's side of a control jump).
    """

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _on_segments(u, grid: TimeGrid):
    """(values, jumps): the (K, 3, m) table of the control-like `u` at
    every stage point, and the nodes where u may jump.  A held control
    keeps segment k's value on the whole segment, its right node included
    (stages never cross a sampling time on aligned grids), and jumps at its
    sampling times; a difference jumps where either part does; a callable
    is evaluated once at every stage time and jumps nowhere."""
    if isinstance(u, PiecewiseConstantControl):
        bounds = grid.boundaries_of(u.partition)
        per_seg = np.repeat(u.values, np.diff(bounds), axis=0)
        return np.repeat(per_seg[:, None], 3, axis=1), bounds
    if isinstance(u, ControlDifference):
        (va, ja), (vb, jb) = _on_segments(u.a, grid), _on_segments(u.b, grid)
        return va - vb, np.union1d(ja, jb)
    if callable(u):
        values = np.array([u(t) for t in grid.stage_times.ravel()], float)
        return values.reshape(grid.K, 3, -1), np.empty(0, dtype=int)
    raise TypeError(f"unsupported control of type {type(u)!r}")


@dataclass(frozen=True)
class HermitePath:
    """Cubic-Hermite dense output over strictly increasing node times
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6).

    `deriv_right[k]` is the derivative at the left node of segment k and
    `deriv_left[k + 1]` the one at its right node; they differ only where
    the vector field jumps.  Times that hit a node return the stored
    value; times outside [t_0, t_K] extrapolate the end segment.
    """

    times: Array        # (K+1,)
    values: Array       # (K+1, n)
    deriv_right: Array  # (K, n)
    deriv_left: Array   # (K+1, n); index 0 unused

    def sample(self, ts) -> Array:
        """Values at every time in `ts`, shape (len(ts), n)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        times = self.times
        k = np.clip(np.searchsorted(times, ts, side="right") - 1,
                    0, times.size - 2)
        t0, t1 = times[k], times[k + 1]
        y0, y1 = self.values[k], self.values[k + 1]
        h = t1 - t0
        s = (ts - t0) / h
        s2 = s * s
        s3 = s2 * s
        out = ((2 * s3 - 3 * s2 + 1)[:, None] * y0
               + ((s3 - 2 * s2 + s) * h)[:, None] * self.deriv_right[k]
               + (-2 * s3 + 3 * s2)[:, None] * y1
               + ((s3 - s2) * h)[:, None] * self.deriv_left[k + 1])
        on_left = ts == t0
        out[on_left] = y0[on_left]
        on_right = ts == t1
        out[on_right] = y1[on_right]
        return out

    def at(self, t: float) -> Array:
        return self.sample([t])[0]

    def stages(self) -> Array:
        """(K, 3, n) values at the stage points of every segment: node k,
        the midpoint in closed form (s = 1/2) and node k+1; the RK4 stage
        tables read these instead of sampling at t_k + h/2."""
        h = (self.times[1:] - self.times[:-1])[:, None]
        mids = (0.5 * (self.values[:-1] + self.values[1:])
                + 0.125 * h * (self.deriv_right - self.deriv_left[1:]))
        return np.stack([self.values[:-1], mids, self.values[1:]], 1)


@dataclass(frozen=True)
class Trajectory:
    """State path on a grid with cubic-Hermite dense output.

    `deriv_right[k]` is the stored derivative at the left node of
    segment k (evaluated with that segment's control); `deriv_left[k+1]`
    at its right node.  They differ only across sampling times.
    """

    grid: TimeGrid
    states: Array        # (K+1, n)
    deriv_right: Array   # (K, n)
    deriv_left: Array    # (K+1, n); index 0 unused
    running_cost: Array  # (K+1,)

    @property
    def cost(self) -> float:
        return float(self.running_cost[-1])

    @property
    def final_state(self) -> Array:
        return self.states[-1]

    @property
    def path(self) -> HermitePath:
        return HermitePath(self.grid.times, self.states, self.deriv_right,
                           self.deriv_left)

    def at(self, t: float) -> Array:
        return self.path.at(t)

    def sample(self, ts) -> Array:
        return self.path.sample(ts)


@dataclass(frozen=True)
class CostateTrajectory:
    """Adjoint path p on a grid, plus the abnormality scalar p0 <= 0."""

    grid: TimeGrid
    costates: Array
    p0: float
    deriv_right: Array
    deriv_left: Array

    def __post_init__(self):
        if not (np.isfinite(self.p0) and self.p0 <= 0):
            raise ValueError(f"p0 must be finite and nonpositive, got {self.p0!r}")
        if float(np.linalg.norm(self.costates[-1])) + abs(self.p0) == 0.0:
            raise TrivialLiftError("p(T) = 0 with p0 = 0 is not a valid lift")

    @property
    def final_costate(self) -> Array:
        return self.costates[-1]

    @property
    def path(self) -> HermitePath:
        return HermitePath(self.grid.times, self.costates, self.deriv_right,
                           self.deriv_left)

    def at(self, t: float) -> Array:
        return self.path.at(t)

    def sample(self, ts) -> Array:
        return self.path.sample(ts)

    def scaled(self, lam: float) -> "CostateTrajectory":
        """Positive rescaling of the whole pair (p, p0)."""
        if lam <= 0:
            raise ValueError("scaling must be positive")
        return CostateTrajectory(self.grid, self.costates * lam, self.p0 * lam,
                                 self.deriv_right * lam, self.deriv_left * lam)


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


def costate_from_nodes(grid: TimeGrid, costates: Array,
                       p0: float) -> CostateTrajectory:
    """A costate known only on the grid nodes (e.g. read from a file), with
    its derivatives differentiated from the nodes of each sampling
    interval separately: at a sampling time `deriv_left` comes from the
    interval ending there and `deriv_right` from the one starting there."""
    costates = _frozen(costates)
    d_right = np.zeros((grid.K, costates.shape[1]))
    d_left = np.zeros_like(costates)
    for i in range(grid.n_intervals):
        sl = grid.interval_slice(i)
        h = float(grid.times[sl.start + 1] - grid.times[sl.start])
        dp = _differentiate_block(costates[sl], h)
        d_right[sl.start:sl.stop - 1] = dp[:-1]
        d_left[sl.start + 1:sl.stop] = dp[1:]
    return CostateTrajectory(grid, costates, float(p0),
                             _frozen(d_right), _frozen(d_left))


# an overflowing stage is left to the blow-up test, without a warning
@np.errstate(over="ignore", invalid="ignore")
def _rk4_march(rhs, grid: TimeGrid, y0: Array, forward: bool, what: str,
               jumps: Array):
    """March RK4 over all segments, on a state `y0` of any shape; stores
    endpoint derivatives.

    rhs(k, y, stage) evaluates the vector field on segment k at column
    `stage` of the segment's stage tables (see `TimeGrid.stage_times`): 0
    at t_k, 1 at the midpoint, 2 at t_{k+1}.  A forward step reads 0, 1,
    1, 2; backward marching runs the same formulas from the terminal node
    with negative steps, so its step reads 2, 1, 1, 0.  A step's end
    derivative is the next step's first stage bit for bit (first same as
    last) unless the shared node is a grid boundary or one of the
    control's `jumps`, where the next segment's field is evaluated afresh.
    """
    K = grid.K
    ys = np.empty((K + 1,) + y0.shape)
    d_right = np.zeros((K,) + y0.shape)
    d_left = np.zeros((K + 1,) + y0.shape)
    order = range(K) if forward else range(K - 1, -1, -1)
    first, last = (0, 2) if forward else (2, 0)
    ys[0 if forward else K] = y0
    fresh = np.isin(np.arange(K + 1), np.union1d(grid.boundaries, jumps))
    kend = None
    for k in order:
        start, end = (k, k + 1) if forward else (k + 1, k)
        y, t1 = ys[start], grid.times[end]
        h = t1 - grid.times[start]
        try:
            k1 = rhs(k, y, first) if fresh[start] else kend
            k2 = rhs(k, y + 0.5 * h * k1, 1)
            k3 = rhs(k, y + 0.5 * h * k2, 1)
            k4 = rhs(k, y + h * k3, last)
        except (ValueError, OverflowError) as exc:
            # an evaluator built on `math` refuses the inf of an
            # overflowing stage, which numpy would pass to the test below
            raise IntegrationDivergedError(
                f"{what} blew up at t = {t1:.6g}: {exc}",
                t_bad=float(t1)) from exc
        ynew = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # single reduction; NaN fails the comparison and is caught too
        if not np.abs(ynew).max() <= BLOWUP_NORM:
            raise IntegrationDivergedError(
                f"{what} blew up at t = {t1:.6g}", t_bad=float(t1))
        kend = rhs(k, ynew, last)
        ys[end] = ynew
        d_right[k], d_left[k + 1] = (k1, kend) if forward else (kend, k1)
    return ys, d_right, d_left


def integrate_state(prob: OcpProblem, u, grid: TimeGrid) -> Trajectory:
    """Forward solve of xdot = f(x, u(t), t), x(0) = x0, plus running cost.

    The running cost integral rides along as one extra RK4 state, so the
    returned `cost` carries the same fourth-order accuracy as the state.
    """
    uu, jumps = _on_segments(u, grid)
    n = prob.n

    def rhs(k, y, stage):
        x, uk, t = y[:n], uu[k, stage], grid.stage_times[k, stage]
        out = np.empty(n + 1)
        out[:n] = prob.dynamics(x, uk, t)
        out[n] = prob.cost(x, uk, t)
        return out

    y0 = np.concatenate([prob.x0, [0.0]])
    ys, dr, dl = _rk4_march(rhs, grid, y0, forward=True, what="state integration",
                            jumps=jumps)
    return Trajectory(grid, _frozen(ys[:, :n]), _frozen(dr[:, :n]),
                      _frozen(dl[:, :n]), _frozen(ys[:, n]))


@dataclass(frozen=True)
class VariationResult:
    """Linearized state/cost response (w, w0) to a control direction."""

    grid: TimeGrid
    w: Array    # (K+1, n)
    w0: Array   # (K+1,)

    @property
    def final_w(self) -> Array:
        return self.w[-1]

    @property
    def final_w0(self) -> float:
        return float(self.w0[-1])


def _at_stages(d, states: Array, controls: Array, times: Array) -> Array:
    """(K, s, ...) array of d(x, u, t) at the s stage points of every
    segment whose states, controls and times are the (K, s, ...) inputs."""
    rows = times.size
    out = np.array([d(*point) for point in zip(
        states.reshape(rows, -1), controls.reshape(rows, -1), times.ravel())])
    return out.reshape(times.shape + out.shape[1:])


def _at_nodes(stages: Array) -> Array:
    """(K+1, ...) right-continuous node values of a (K, 3, ...) stage
    table: segment k's stage 0 at node k, and at T the last segment's
    stage 2."""
    return np.concatenate([stages[:, 0], stages[-1:, 2]])


class Linearization:
    """Derivatives of (f, L) along (x, u) at the RK4 stage points.

    The costate, variation and transition marches are linear ODEs along this
    one linearization.  Each derivative a march asks for is evaluated once,
    on first use, at the three stage points of every segment k and held in
    a (K, 3, ...) table: `[k, 0]` at node k, `[k, 1]` at the Hermite
    midpoint and `[k, 2]` at node k+1, all at `grid.stage_times[k]` and
    under segment k's control, which is `stage_controls[k]`.
    """

    def __init__(self, prob: OcpProblem, x: Trajectory, u):
        self.prob = prob
        self.grid = x.grid
        self.stage_controls, self._jumps = _on_segments(u, self.grid)
        self._stage_states = x.path.stages()
        self._tables: dict = {}

    @cached_property
    def node_controls(self) -> Array:
        """(K+1, m) right-continuous control u(t_k) at every grid node:
        segment k's stage control at its left node, and at T the last
        segment's."""
        return _at_nodes(self.stage_controls)

    def table(self, name: str) -> Array:
        """(K, 3, ...) array of the problem's evaluator `name` at every
        stage point."""
        table = self._tables.get(name)
        if table is None:
            table = self._tables[name] = _at_stages(
                getattr(self.prob, name), self._stage_states,
                self.stage_controls, self.grid.stage_times)
        return table

    def costate(self, p0: float, pT) -> CostateTrajectory:
        """Backward solve of pdot = -grad_x f' p - p0 grad_x L, p(T) = pT;
        the result rejects a positive p0 and the trivial pair, and a pT
        that is not n finite values is refused with `ValueError`."""
        pT = np.atleast_1d(np.asarray(pT, dtype=float))
        if pT.shape != (self.prob.n,) or not np.all(np.isfinite(pT)):
            raise ValueError(f"pT must hold n = {self.prob.n} finite values")
        p0 = float(p0)
        # formed once; exact negation keeps every stage -f_x' p - p0 L_x
        a = -self.table("dynamics_jac_x").swapaxes(2, 3)
        c = -p0 * self.table("cost_grad_x")

        def rhs(k, y, stage):
            return a[k, stage] @ y + c[k, stage]

        ps, dr, dl = _rk4_march(rhs, self.grid, pT, forward=False,
                                what="costate integration", jumps=self._jumps)
        return CostateTrajectory(self.grid, _frozen(ps), p0, _frozen(dr),
                                 _frozen(dl))

    def variations(self, v: Array, jumps) -> Array:
        """(K+1, n+1, P) responses [w; w0] to P directions from one
        forward march, on the (n+1) x P matrix of them, of

        wdot  = grad_x f w + grad_u f v,          w(0) = 0
        w0dot = <grad_x L, w> + <grad_u L, v>,    w0(0) = 0

        `v[k, s]` is the (m, P) matrix of the directions at stage point s
        of segment k (see `_on_segments`), `jumps` the nodes where any of
        them may jump."""
        n = self.prob.n
        fx, fu = self.table("dynamics_jac_x"), self.table("dynamics_jac_u")
        lx, lu = self.table("cost_grad_x"), self.table("cost_grad_u")

        def rhs(k, y, stage):
            w, vv = y[:n], v[k, stage]
            out = np.empty_like(y)
            out[:n] = fx[k, stage] @ w + fu[k, stage] @ vv
            out[n] = lx[k, stage] @ w + lu[k, stage] @ vv
            return out

        return _rk4_march(rhs, self.grid, np.zeros((n + 1, v.shape[-1])),
                          forward=True, what="variation integration",
                          jumps=np.union1d(self._jumps, jumps))[0]

    def at_final(self) -> Array:
        """(K+1, n, n) array of Phi(T, t_k) on the grid nodes, from one
        backward sweep of d/ds Phi(T, s) = -Phi(T, s) A(s)."""
        a = -self.table("dynamics_jac_x")

        def rhs(k, y, stage):
            return y @ a[k, stage]

        return _rk4_march(rhs, self.grid, np.eye(self.prob.n), forward=False,
                          what="transition matrix", jumps=self._jumps)[0]


def integrate_costate(prob: OcpProblem, x: Trajectory, u, p0: float,
                      pT: Array) -> CostateTrajectory:
    """Backward solve of pdot = -grad_x f' p - p0 grad_x L, p(T) = pT."""
    return Linearization(prob, x, u).costate(p0, pT)


def integrate_variation(prob: OcpProblem, x: Trajectory, u,
                        direction) -> VariationResult:
    """Linearized response (w, w0) to the control perturbation
    `direction`, given as a control-like object or callable: the P = 1
    case of `Linearization.variations`."""
    lin = Linearization(prob, x, u)
    values, jumps = _on_segments(direction, lin.grid)
    ys = lin.variations(values[..., None], jumps)[..., 0]
    return VariationResult(lin.grid, _frozen(ys[:, :-1]), _frozen(ys[:, -1]))


def transition_matrix(prob: OcpProblem, x: Trajectory, u) -> Linearization:
    """The linearization along (x, u); `.at_final()` gives Phi(T, t_k) on
    the grid nodes."""
    return Linearization(prob, x, u)


# ---------------------------------------------------------------------------
# Quadrature on aligned grids


def simpson_on_interval(values: Array, h: float) -> Array:
    """Composite Simpson over one uniform block (even segment count)."""
    K = values.shape[0] - 1
    if K % 2 != 0 or K < 2:
        raise ValueError("Simpson needs an even, positive segment count")
    w = np.ones(K + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * np.tensordot(w, values, axes=(0, 0))


# ---------------------------------------------------------------------------
# Trajectory serialization


def write_state_csv(path, traj: Trajectory) -> None:
    """CSV with header t,x_0,...,x_{n-1}."""
    n = traj.states.shape[1]
    _write_float_rows(path, "t," + ",".join(f"x_{j}" for j in range(n)),
                      np.column_stack([traj.grid.times, traj.states]))


def write_costate_csv(path, p: CostateTrajectory) -> None:
    """CSV with header t,p_0,...,p_{n-1},p0."""
    K1, n = p.costates.shape
    _write_float_rows(path,
                      "t," + ",".join(f"p_{j}" for j in range(n)) + ",p0",
                      np.column_stack([p.grid.times, p.costates,
                                       np.full(K1, p.p0)]))


def _read_csv_columns(path, prefix: str):
    """(times, columns, header) of a state or costate CSV."""
    header, data = _read_float_rows(
        path, lambda cols: cols[0] == "t" and all(
            c.startswith(prefix) or c == "p0" for c in cols[1:]))
    return data[:, 0], data[:, 1:], header


def grid_from_times(times: Array, partition: Optional[Partition]) -> TimeGrid:
    """Rebuild a TimeGrid from explicit node times (e.g. a CSV column),
    checking its invariant: even, uniform steps per sampling interval."""
    times = _frozen(times)
    if np.any(np.diff(times) <= 0):
        raise ValueError("grid times must be strictly increasing")
    grid = TimeGrid(times, np.array([0, times.size - 1]))
    if partition is not None:
        grid = TimeGrid(times, grid.boundaries_of(partition))
    for i in range(grid.n_intervals):
        steps = np.diff(times[grid.interval_slice(i)])
        if steps.size % 2 or steps.size < 2:
            raise ValueError(f"sampling interval {i} holds {steps.size} "
                             "steps; the grid needs an even, positive count")
        # far above linspace rounding, far below any dropped node
        if np.ptp(steps) > 1e-6 * steps.mean():
            raise ValueError(f"sampling interval {i} has non-uniform steps")
    return grid


def read_state_csv(path, prob: OcpProblem, u) -> Trajectory:
    """Reload a state CSV; derivatives are re-evaluated from the problem
    so dense output and residual checks work on external bundles, and the
    running cost is rebuilt step by step with Simpson's rule on the nodes
    and Hermite midpoints under each segment's control."""
    t, X, _ = _read_csv_columns(path, "x_")
    if X.shape[1] != prob.n:
        raise ValueError(f"{path}: {X.shape[1]} state columns, the problem "
                         f"has n = {prob.n}")
    partition = u.partition if isinstance(u, PiecewiseConstantControl) else None
    grid = grid_from_times(t, partition)
    uu, _ = _on_segments(u, grid)
    ts = grid.stage_times
    ends = _at_stages(prob.dynamics, np.stack([X[:-1], X[1:]], 1),
                      uu[:, ::2], ts[:, ::2])
    dr, dl = ends[:, 0], np.concatenate([np.zeros((1, prob.n)), ends[:, 1]])
    L = _at_stages(prob.cost, HermitePath(grid.times, X, dr, dl).stages(),
                   uu, ts)
    cost = np.cumsum(np.r_[0.0, (ts[:, 2] - ts[:, 0]) / 6.0
                           * (L[:, 0] + 4.0 * L[:, 1] + L[:, 2])])
    return Trajectory(grid, _frozen(X), _frozen(dr), _frozen(dl), _frozen(cost))


def read_costate_csv(path):
    """Reload a costate CSV.  Returns (times, costates, p0); no stored
    derivatives survive the file (see `costate_from_nodes`)."""
    t, data, header = _read_csv_columns(path, "p_")
    if header[-1] != "p0":
        raise ValueError(f"{path}: last column must be p0")
    P = data[:, :-1]
    p0_col = data[:, -1]
    if np.any(p0_col != p0_col[0]):
        raise ValueError(f"{path}: p0 column must be constant")
    return t, P, float(p0_col[0])
