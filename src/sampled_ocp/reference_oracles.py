"""Exact reference solutions for linear-quadratic problems.

For constant-coefficient linear-quadratic problems two references are
available to machine precision: the permanent-control optimum from the
Hamiltonian two-point boundary system (one matrix exponential plus an
n-by-n solve; the cost follows from the boundary values of <p, x>), and
the sampled-data optimum from exact zero-order-hold discretization
(block matrix exponentials) followed by an equality-constrained QP,
whose hold blocks also give its state, costate and running cost on the
grid.  Nonlinear problems get a fine-partition surrogate instead
(`convergence_harness.fine_surrogate`), solved on the harness's own
refinement cascade.

Everything here is deterministic: matrix exponentials use scipy's
scaling-and-squaring Pade implementation and all solves are direct.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .control_partition import Partition, PiecewiseConstantControl
from .errors import OracleError, UnreachableTargetError
from .integrate import (CostateTrajectory, HermitePath, Trajectory,
                        build_time_grid)
from .pmp_check import SampledSolution, SolveDiagnostics
from .problem_model import Box, ControlSet, LqProblemData, _frozen

Array = np.ndarray

SHOOTING_CONDITION_LIMIT = 1e12
# Rounds of the exact oracle's primal-dual active-set loop before it
# gives up; bounded double-integrator instances up to N=256 settle in
# under ten.
ACTIVE_SET_MAX_ROUNDS = 50
# Steps of the permanent LQ reference's dense paths.
PERMANENT_RESOLUTION = 4096


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) of the thread count of each OpenBLAS build bundled with
    the numpy and scipy wheels; empty where neither bundles one."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    controls = []
    for pattern, suffix in (("numpy.libs/libscipy_openblas64_*.so", "64_"),
                            ("scipy.libs/libscipy_openblas-*.so", "")):
        for path in sorted(glob.glob(os.path.join(site, pattern))):
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
    return tuple(controls)


class _SingleBlasThread(contextlib.ContextDecorator):
    """Runs the dense algebra inside on one OpenBLAS thread.  On the small
    matrices here a thread pool costs more than it saves, and its workers
    keep spinning after a call returns.  Scopes may nest and overlap
    across Python threads; the earlier counts return when the last one
    ends."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                controls = _openblas_thread_controls()
                self._saved = tuple(get() for get, _ in controls)
                for _, put in controls:
                    put(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, put), count in zip(_openblas_thread_controls(),
                                           self._saved):
                    put(count)
        return False


_single_blas_thread = _SingleBlasThread()


@dataclass
class PermanentReference:
    """A trusted permanent-control solution used as sweep baseline."""

    x: object            # HermitePath or Trajectory (.at / .sample)
    u: object            # HermitePath or PC control
    p: object            # HermitePath or CostateTrajectory (.at / .sample)
    p0: float
    cost: float
    provenance: str
    error_bar: Optional[float] = None
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Permanent LQ reference


def _hamiltonian_system_matrix(data: LqProblemData) -> Array:
    n = data.n
    Rinv_Bt = np.linalg.solve(data.R, data.B.T)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = data.A
    M[:n, n:] = data.B @ Rinv_Bt
    M[n:, :n] = data.Q
    M[n:, n:] = -data.A.T
    return M


@_single_blas_thread
def solve_lq_permanent(data: LqProblemData) -> PermanentReference:
    """Permanent LQ optimum via the coupled state-costate linear system.

    With the normal normalization the interior stationarity of the
    Hamiltonian gives u = R^{-1} B' p, closing the linear system
    xdot = A x + B R^{-1} B' p, pdot = Q x - A' p.  A single matrix
    exponential over [0, T] yields the shooting map; p(0) solves an
    n-by-n linear system so that x(T) hits the target.
    """
    n = data.n
    M = _hamiltonian_system_matrix(data)
    ET = expm(M * data.horizon)
    E11, E12 = ET[:n, :n], ET[:n, n:]
    # an overflowed exponential counts as infinitely ill-conditioned
    cond = np.linalg.cond(E12) if np.all(np.isfinite(ET)) else np.inf
    if not np.isfinite(cond) or cond > SHOOTING_CONDITION_LIMIT:
        raise UnreachableTargetError(
            f"shooting matrix condition {cond:.3e} exceeds "
            f"{SHOOTING_CONDITION_LIMIT:.1e}: target unreachable or degenerate")

    times = np.linspace(0.0, data.horizon, PERMANENT_RESOLUTION + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        p0vec = np.linalg.solve(E12, data.xT - E11 @ data.x0)
        # each node from its own exponential: chained step products would
        # compound rounding along the Hamiltonian's unstable modes
        Z = expm(M * times[:, None, None]) @ np.concatenate([data.x0, p0vec])
        dZ = Z @ M.T
        Rinv_Bt = np.linalg.solve(data.R, data.B.T)
        Upath = Z[:, n:] @ Rinv_Bt.T
        dU = dZ[:, n:] @ Rinv_Bt.T
        # d/dt <p, x> = x'Qx + u'Ru along the extremal, so the cost is half
        # the boundary difference of <p, x>, with p(T) from the shooting map.
        pT = ET[n:] @ Z[0]
        cost = 0.5 * (float(pT @ data.xT) - float(p0vec @ data.x0))
    if not (np.isfinite(cost)
            and all(np.all(np.isfinite(a)) for a in (Z, dZ, Upath, dU))):
        raise UnreachableTargetError(
            "permanent optimum overflows: its path or cost is not finite")

    times = _frozen(times)

    def path(values, derivs):
        derivs = _frozen(derivs)
        return HermitePath(times, _frozen(values), derivs[:-1], derivs)

    x_path = path(Z[:, :n], dZ[:, :n])
    p_path = path(Z[:, n:], dZ[:, n:])
    u_path = path(Upath, dU)
    notes = []
    if float(np.linalg.norm(p0vec)) == 0.0 and \
            float(np.linalg.norm(data.xT - E11 @ data.x0)) == 0.0:
        notes.append("zero transfer: the normal lift is (p = 0, p0 = -1), "
                     "nontrivial through p0")
    return PermanentReference(x=x_path, u=u_path, p=p_path, p0=-1.0,
                              cost=cost, provenance="lq_analytic", notes=notes)


# ---------------------------------------------------------------------------
# Exact sampled LQ oracle


def _zoh_blocks(data: LqProblemData, h: float):
    """Exact discretization blocks over one step of length h.

    Returns E = exp(Ah), F = (int_0^h exp(As) ds) B, and the exact
    interval cost matrix S with int_0^h [x;u]' blockdiag(Q, R) [x;u] dt
    = [x_i; u_i]' S [x_i; u_i] for the held control, all obtained from
    one block matrix exponential of the augmented system.
    """
    n, m = data.n, data.m
    q = n + m
    Abar = np.zeros((q, q))
    Abar[:n, :n] = data.A
    Abar[:n, n:] = data.B
    Qbar = np.zeros((q, q))
    Qbar[:n, :n] = data.Q
    Qbar[n:, n:] = data.R
    C = np.zeros((2 * q, 2 * q))
    C[:q, :q] = -Abar.T
    C[:q, q:] = Qbar
    C[q:, q:] = Abar
    Exp = expm(C * h)
    Phi12 = Exp[:q, q:]
    Phi22 = Exp[q:, q:]
    S = Phi22.T @ Phi12
    S = 0.5 * (S + S.T)
    E = Phi22[:n, :n]
    F = Phi22[:n, n:]
    return E, F, S


class _ReducedQp:
    """Condensed QP over stacked controls, min 1/2 u'Hu + g'u subject to
    A_eq u = b_eq, built from the exact discretization of LQ data; a
    quadratic model with no equality rows comes from `model`."""

    def __init__(self, data: LqProblemData, partition: Partition):
        n, m = data.n, data.m
        N = partition.N
        self.data = data
        self.partition = partition
        self.blocks = {}
        E_list, F_list, S_list = zip(*(
            self.step_blocks(float(partition.times[i + 1] - partition.times[i]))
            for i in range(N)))

        D = N * m
        c = np.empty((N + 1, n))
        G = np.zeros((N + 1, n, D))
        c[0] = data.x0
        for i in range(N):
            c[i + 1] = E_list[i] @ c[i]
            G[i + 1] = E_list[i] @ G[i]
            G[i + 1][:, i * m:(i + 1) * m] += F_list[i]
        self.c, self.G = c, G

        H = np.zeros((D, D))
        g = np.zeros(D)
        const = 0.0
        for i in range(N):
            W = np.zeros((n + m, D))
            W[:n] = G[i]
            W[n:, i * m:(i + 1) * m] = np.eye(m)
            b = np.concatenate([c[i], np.zeros(m)])
            SW = S_list[i] @ W
            H += W.T @ SW
            g += W.T @ (S_list[i] @ b)
            const += 0.5 * float(b @ S_list[i] @ b)
        self.H = 0.5 * (H + H.T)
        self.g = g
        self.const = const
        self.A_eq = G[N]
        self.b_eq = data.xT - c[N]

    @classmethod
    def model(cls, H: Array, g: Array) -> "_ReducedQp":
        """The QP min 1/2 u'Hu + g'u with no equality rows and no
        discretization behind it."""
        qp = cls.__new__(cls)
        qp.H, qp.g = H, g
        qp.A_eq, qp.b_eq = np.empty((0, g.size)), np.empty(0)
        return qp

    def step_blocks(self, h: float):
        """`_zoh_blocks` over a step of length h, cached by h to 1e-15."""
        key = round(h, 15)
        if key not in self.blocks:
            self.blocks[key] = _zoh_blocks(self.data, h)
        return self.blocks[key]

    def objective(self, u: Array) -> float:
        return 0.5 * float(u @ self.H @ u) + float(self.g @ u) + self.const

    def kkt_solve(self, fixed_idx, fixed_val):
        """Solve the equality-constrained QP with some entries clamped."""
        D = self.H.shape[0]
        n = self.A_eq.shape[0]
        free = np.setdiff1d(np.arange(D), fixed_idx, assume_unique=False)
        u = np.zeros(D)
        u[fixed_idx] = fixed_val
        Hff = self.H[np.ix_(free, free)]
        Af = self.A_eq[:, free]
        rhs_top = -(self.g[free] + self.H[np.ix_(free, fixed_idx)] @ fixed_val)
        rhs_bot = self.b_eq - self.A_eq[:, fixed_idx] @ fixed_val
        K = np.zeros((free.size + n, free.size + n))
        K[:free.size, :free.size] = Hff
        K[:free.size, free.size:] = Af.T
        K[free.size:, :free.size] = Af
        rhs = np.concatenate([rhs_top, rhs_bot])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError as exc:
            raise UnreachableTargetError(f"singular KKT system: {exc}") from exc
        resid = float(np.linalg.norm(K @ sol - rhs))
        if not np.all(np.isfinite(sol)) or \
                resid > 1e-8 * (1.0 + float(np.linalg.norm(rhs))):
            raise UnreachableTargetError(
                f"KKT system effectively singular (residual {resid:.3e})")
        u[free] = sol[:free.size]
        nu = sol[free.size:]
        return u, nu

    def gradient(self, u: Array, nu: Array) -> Array:
        return self.H @ u + self.g + self.A_eq.T @ nu


def _vertex_multiplier(qp: _ReducedQp, u: Array, side: Array) -> Array:
    """Multiplier nu for a vertex u that clamps every entry (side -1 at
    the lower bound, +1 at the upper): u must meet the terminal equality,
    and nu is any feasible point of the gradient-sign conditions
    side * (H u + g + A_eq' nu) <= 0, found by a small linear program.
    Without equality rows nu is empty and the KKT check alone decides."""
    if qp.A_eq.shape[0] == 0:
        return np.empty(0)
    from scipy.optimize import linprog

    miss = float(np.linalg.norm(qp.A_eq @ u - qp.b_eq))
    if miss > 1e-8 * (1.0 + float(np.linalg.norm(qp.b_eq))):
        raise UnreachableTargetError(
            f"the all-clamped vertex misses the target by {miss:.3e}")
    lp = linprog(np.zeros(qp.A_eq.shape[0]), A_ub=side[:, None] * qp.A_eq.T,
                 b_ub=-side * (qp.H @ u + qp.g), bounds=(None, None),
                 method="highs")
    if lp.status != 0:
        raise OracleError(f"no multiplier certifies the vertex: {lp.message}")
    return lp.x


def _solve_box_qp(qp: _ReducedQp, lo: Array, up: Array):
    """Exact solve of the condensed QP under the bounds lo <= u <= up
    (entries may be infinite), with the primal-dual active-set method
    (Hintermueller, Ito & Kunisch, SIAM J. Optim. 2002) when the
    unconstrained optimum leaves the box.

    Each round predicts the entries clamped at the lower and upper
    bounds from u - grad and re-solves the KKT system with them clamped;
    the loop stops when the prediction repeats, or at a vertex that
    clamps every entry, whose multiplier is not unique and comes from
    `_vertex_multiplier` instead of a KKT solve.  The point is returned
    only if it is a KKT point of the box-constrained QP, which is then
    the optimum when H is positive definite; otherwise `OracleError`.
    """
    u, nu = qp.kkt_solve(np.array([], dtype=int), np.array([]))
    solves = 1
    tol = 1e-9 * (1.0 + float(np.max(np.abs(u))))
    if np.all(u >= lo - tol) and np.all(u <= up + tol):
        return np.clip(u, lo, up), nu, solves

    side = np.zeros(lo.size, dtype=int)  # -1 lower, +1 upper, 0 free
    for _ in range(ACTIVE_SET_MAX_ROUNDS):
        step = u - qp.gradient(u, nu)
        predicted = np.where(step < lo, -1, np.where(step > up, 1, 0))
        if np.array_equal(predicted, side):
            break
        side = predicted
        fixed_idx = np.flatnonzero(side)
        fixed_val = np.where(side < 0, lo, up)[fixed_idx]
        solves += 1
        if fixed_idx.size == side.size:
            u, nu = fixed_val, _vertex_multiplier(qp, fixed_val, side)
            break
        u, nu = qp.kkt_solve(fixed_idx, fixed_val)
    else:
        raise OracleError(f"primal-dual active set did not settle within "
                          f"{ACTIVE_SET_MAX_ROUNDS} rounds")
    grad = qp.gradient(u, nu)
    gtol = 1e-9 * (1.0 + float(np.max(np.abs(grad))))
    btol = 1e-9 * (1.0 + float(np.max(np.abs(u))))
    if np.any(u < lo - btol) or np.any(u > up + btol) or \
            np.any(grad[side < 0] < -gtol) or np.any(grad[side > 0] > gtol):
        raise OracleError("primal-dual active set stopped at a point that "
                          "is not a KKT point of the box-constrained QP")
    return np.clip(u, lo, up), nu, solves


@_single_blas_thread
def solve_lq_sampled_exact(data: LqProblemData, partition: Partition,
                           control_set: Optional[ControlSet] = None,
                           h_max: Optional[float] = None):
    """Exact sampled-data LQ optimum on a partition.

    Discretizes exactly under the hold (block matrix exponentials for
    the step map and the interval cost), condenses to a QP over the
    stacked controls with the terminal equality, and solves its KKT
    system; box bounds are handled by a primal-dual active-set loop.
    The returned bundle carries exact nodal state/costate paths, so the
    averaged-gradient residual of the result is quadrature-level small.
    """
    N, m, n = partition.N, data.m, data.n
    if control_set is None:
        lo, up = np.full(N * m, -np.inf), np.full(N * m, np.inf)
    elif isinstance(control_set, Box):
        lo, up = np.tile(control_set.lower, N), np.tile(control_set.upper, N)
    else:
        raise OracleError("exact sampled oracle supports box control sets only")
    qp = _ReducedQp(data, partition)
    u_vec, nu, solves = _solve_box_qp(qp, lo, up)
    u_values = u_vec.reshape(N, m)
    control = PiecewiseConstantControl(partition, u_values)
    cost = qp.objective(u_vec)

    # The hold blocks are exact on every grid step: the state and the
    # running cost go forward, and the discrete adjoint
    # lambda_k = E' lambda_{k+1} + S_xx x_k + S_xu u from lambda_K = nu is
    # the continuous one (lambdadot = -A' lambda - Q x) at the nodes.
    grid = build_time_grid(data.horizon, partition, h_max)
    blocks = [qp.step_blocks(float(grid.times[k + 1] - grid.times[k]))
              for k in grid.boundaries[:-1]]
    owner = np.repeat(np.arange(N), np.diff(grid.boundaries))
    U = u_values[owner]
    X = np.empty((grid.K + 1, n))
    Lam = np.empty((grid.K + 1, n))
    cost_path = np.zeros(grid.K + 1)
    X[0] = data.x0
    for k, i in enumerate(owner):
        E, F, S = blocks[i]
        z = np.concatenate([X[k], U[k]])
        cost_path[k + 1] = cost_path[k] + 0.5 * float(z @ S @ z)
        X[k + 1] = E @ X[k] + F @ U[k]
    Lam[-1] = nu
    for k in range(grid.K - 1, -1, -1):
        E, _, S = blocks[owner[k]]
        Lam[k] = E.T @ Lam[k + 1] + S[:n, :n] @ X[k] + S[:n, n:] @ U[k]

    # the derivative from the right of node k and from the left of node
    # k+1 both use segment k's control; left derivatives start at node 1
    BU = U @ data.B.T
    dx = X @ data.A.T
    dp = Lam @ data.A + X @ data.Q.T
    unused = np.zeros((1, n))
    traj = Trajectory(grid, _frozen(X), _frozen(dx[:-1] + BU),
                      _frozen(np.vstack([unused, dx[1:] + BU])),
                      _frozen(cost_path))
    costate = CostateTrajectory(grid, _frozen(-Lam), -1.0, _frozen(dp[:-1]),
                                _frozen(np.vstack([unused, dp[1:]])))
    feasibility = float(np.linalg.norm(X[-1] - data.xT))
    diags = SolveDiagnostics(iterations=solves, outer_iterations=0,
                             feasibility=feasibility, stationarity=0.0,
                             objective_log=())
    return SampledSolution(control=control, state=traj, costate=costate,
                           cost=float(cost), multiplier=_frozen(nu),
                           diagnostics=diags, residuals=None)
