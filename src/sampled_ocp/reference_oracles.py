"""Exact and surrogate reference solutions.

For constant-coefficient linear-quadratic problems two references are
available to machine precision: the permanent-control optimum from the
Hamiltonian two-point boundary system (one matrix exponential plus an
n-by-n solve), and the sampled-data optimum from exact zero-order-hold
discretization (block matrix exponentials) followed by an
equality-constrained QP.  Nonlinear problems get a fine-partition
surrogate whose trust is established by a two-resolution self-check.

Everything here is deterministic: matrix exponentials use scipy's
scaling-and-squaring Pade implementation and all solves are direct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .control_partition import (Partition, PiecewiseConstantControl,
                                resample_onto, uniform_partition)
from .errors import OracleError, SurrogateRejectedError, UnreachableTargetError
from .integrate import (CostateTrajectory, HermitePath, Trajectory,
                        build_time_grid)
from .problem_model import (Box, ControlSet, LqProblemData, OcpProblem,
                            _frozen)

Array = np.ndarray

SHOOTING_CONDITION_LIMIT = 1e12
# Rounds of the exact oracle's primal-dual active-set loop before it
# gives up; bounded double-integrator instances up to N=256 settle in
# under ten.
ACTIVE_SET_MAX_ROUNDS = 50


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
    quadrature_error: Optional[float] = None
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


def solve_lq_permanent(data: LqProblemData, resolution: int = 4096,
                       gauss_nodes: int = 96) -> PermanentReference:
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
    cond = np.linalg.cond(E12)
    if not np.isfinite(cond) or cond > SHOOTING_CONDITION_LIMIT:
        raise UnreachableTargetError(
            f"shooting matrix condition {cond:.3e} exceeds "
            f"{SHOOTING_CONDITION_LIMIT:.1e}: target unreachable or degenerate")
    p0vec = np.linalg.solve(E12, data.xT - E11 @ data.x0)

    times = np.linspace(0.0, data.horizon, resolution + 1)
    step = expm(M * (times[1] - times[0]))
    Z = np.empty((times.size, 2 * n))
    Z[0] = np.concatenate([data.x0, p0vec])
    for k in range(times.size - 1):
        Z[k + 1] = step @ Z[k]
    dZ = Z @ M.T

    Rinv_Bt = np.linalg.solve(data.R, data.B.T)
    Upath = Z[:, n:] @ Rinv_Bt.T
    dU = dZ[:, n:] @ Rinv_Bt.T

    times = _frozen(times)

    def path(values, derivs):
        derivs = _frozen(derivs)
        return HermitePath(times, _frozen(values), derivs[:-1], derivs)

    x_path = path(Z[:, :n], dZ[:, :n])
    p_path = path(Z[:, n:], dZ[:, n:])
    u_path = path(Upath, dU)

    cost, quad_err = _lq_cost_quadrature(data, M, Z[0], gauss_nodes)
    notes = []
    if float(np.linalg.norm(p0vec)) == 0.0 and \
            float(np.linalg.norm(data.xT - E11 @ data.x0)) == 0.0:
        notes.append("zero transfer: the normal lift is (p = 0, p0 = -1), "
                     "nontrivial through p0")
    return PermanentReference(x=x_path, u=u_path, p=p_path, p0=-1.0,
                              cost=cost, provenance="lq_analytic",
                              quadrature_error=quad_err, notes=notes)


def _lq_cost_quadrature(data: LqProblemData, M: Array, z0: Array,
                        gauss_nodes: int):
    """Gauss-Legendre quadrature of the quadratic running cost, with the
    node count doubled until two estimates agree to 1e-12."""
    n = data.n
    Rinv_Bt = np.linalg.solve(data.R, data.B.T)
    W = np.zeros((2 * n, 2 * n))
    W[:n, :n] = data.Q
    W[n:, n:] = Rinv_Bt.T @ data.R @ Rinv_Bt

    def estimate(k: int) -> float:
        nodes, weights = np.polynomial.legendre.leggauss(k)
        ts = 0.5 * data.horizon * (nodes + 1.0)
        total = 0.0
        for t, w in zip(ts, weights):
            z = expm(M * t) @ z0
            total += w * 0.5 * float(z @ W @ z)
        return 0.5 * data.horizon * total

    value = estimate(gauss_nodes)
    for k in (2 * gauss_nodes, 4 * gauss_nodes):
        refined = estimate(k)
        err = abs(refined - value)
        value = refined
        if err <= 1e-12 * (1.0 + abs(refined)):
            return refined, err
    raise OracleError(f"cost quadrature did not settle: last change {err:.3e}")


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


def _joint_state_costate_blocks(data: LqProblemData, h: float):
    """Exact propagation of (x, lambda) over a step with held control,
    where lambdadot = -A' lambda - Q x rides along xdot = A x + B u."""
    n, m = data.n, data.m
    N2 = 2 * n
    Nmat = np.zeros((N2, N2))
    Nmat[:n, :n] = data.A
    Nmat[n:, :n] = -data.Q
    Nmat[n:, n:] = -data.A.T
    G = np.zeros((N2, m))
    G[:n, :] = data.B
    big = np.zeros((N2 + m, N2 + m))
    big[:N2, :N2] = Nmat
    big[:N2, N2:] = G
    Exp = expm(big * h)
    return Exp[:N2, :N2], Exp[:N2, N2:]


class _ReducedQp:
    """Condensed QP over stacked controls for the exact discretization."""

    def __init__(self, data: LqProblemData, partition: Partition):
        n, m = data.n, data.m
        N = partition.N
        self.data = data
        self.partition = partition
        self.blocks = {}
        E_list, F_list, S_list = [], [], []
        for i in range(N):
            h = float(partition.times[i + 1] - partition.times[i])
            key = round(h, 15)
            if key not in self.blocks:
                self.blocks[key] = _zoh_blocks(data, h)
            E_list.append(self.blocks[key][0])
            F_list.append(self.blocks[key][1])
            S_list.append(self.blocks[key][2])
        self.E_list, self.F_list, self.S_list = E_list, F_list, S_list

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


def _box_bounds_stacked(U: Box, N: int) -> tuple[Array, Array]:
    return np.tile(U.lower, N), np.tile(U.upper, N)


def _solve_box_qp(qp: _ReducedQp, U: Optional[ControlSet]):
    """Exact solve of the condensed QP, with the primal-dual active-set
    method (Hintermueller, Ito & Kunisch, SIAM J. Optim. 2002) when the
    unconstrained optimum leaves a box control set.

    Each round predicts the entries clamped at the lower and upper
    bounds from u - grad and re-solves the KKT system with them clamped;
    the loop stops when the prediction repeats.  The point is returned
    only if it is a KKT point of the box-constrained QP, which is then
    the optimum (the QP is strictly convex).
    """
    u, nu = qp.kkt_solve(np.array([], dtype=int), np.array([]))
    solves = 1
    if U is None:
        return u, nu, solves
    if not isinstance(U, Box):
        raise OracleError("exact sampled oracle supports box control sets only")
    lo, up = _box_bounds_stacked(U, qp.partition.N)
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
        u, nu = qp.kkt_solve(fixed_idx, np.where(side < 0, lo, up)[fixed_idx])
        solves += 1
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
    from .solver_sampled import SampledSolution, SolveDiagnostics

    qp = _ReducedQp(data, partition)
    u_vec, nu, solves = _solve_box_qp(qp, control_set)
    N, m, n = partition.N, data.m, data.n
    u_values = u_vec.reshape(N, m)
    control = PiecewiseConstantControl(partition, u_values)
    cost = qp.objective(u_vec)

    # discrete nodes and adjoint recursion (exact correspondence with the
    # continuous adjoint under exact discretization)
    x_nodes = np.empty((N + 1, n))
    x_nodes[0] = data.x0
    for i in range(N):
        x_nodes[i + 1] = qp.E_list[i] @ x_nodes[i] + qp.F_list[i] @ u_values[i]
    lam = np.empty((N + 1, n))
    lam[N] = nu
    for i in range(N - 1, -1, -1):
        S = qp.S_list[i]
        lam[i] = qp.E_list[i].T @ lam[i + 1] + S[:n, :n] @ x_nodes[i] \
            + S[:n, n:] @ u_values[i]

    grid = build_time_grid(data.horizon, partition, h_max)
    X = np.empty((grid.times.size, n))
    Lam = np.empty((grid.times.size, n))
    cost_path = np.zeros(grid.times.size)
    dx_r = np.zeros((grid.K, n))
    dx_l = np.zeros((grid.times.size, n))
    dp_r = np.zeros((grid.K, n))
    dp_l = np.zeros((grid.times.size, n))
    joint_cache: dict = {}
    cost_cache: dict = {}
    for i in range(N):
        sl = grid.interval_slice(i)
        segments = range(sl.start, sl.stop - 1)
        h_sub = float(grid.times[sl.start + 1] - grid.times[sl.start])
        key = round(h_sub, 15)
        if key not in joint_cache:
            joint_cache[key] = _joint_state_costate_blocks(data, h_sub)
            cost_cache[key] = _zoh_blocks(data, h_sub)[2]
        E_sub, F_sub = joint_cache[key]
        S_sub = cost_cache[key]
        ui = u_values[i]
        y = np.concatenate([x_nodes[i], lam[i]])
        X[sl.start] = y[:n]
        Lam[sl.start] = y[n:]
        for k in segments:
            z = np.concatenate([y[:n], ui])
            step_cost = 0.5 * float(z @ S_sub @ z)
            y = E_sub @ y + F_sub @ ui
            X[k + 1] = y[:n]
            Lam[k + 1] = y[n:]
            cost_path[k + 1] = cost_path[k] + step_cost
        for k in segments:
            dx_r[k] = data.A @ X[k] + data.B @ ui
            dp_r[k] = data.A.T @ Lam[k] + data.Q @ X[k]
            dx_l[k + 1] = data.A @ X[k + 1] + data.B @ ui
            dp_l[k + 1] = data.A.T @ Lam[k + 1] + data.Q @ X[k + 1]

    P = -Lam
    traj = Trajectory(grid, _frozen(X), _frozen(dx_r), _frozen(dx_l),
                      _frozen(cost_path))
    costate = CostateTrajectory(grid, _frozen(P), -1.0, _frozen(dp_r),
                                _frozen(dp_l))
    feasibility = float(np.linalg.norm(X[-1] - data.xT))
    diags = SolveDiagnostics(iterations=solves, outer_iterations=0,
                             feasibility=feasibility, stationarity=0.0,
                             objective_log=())
    return SampledSolution(control=control, state=traj, costate=costate,
                           cost=float(cost), multiplier=_frozen(nu),
                           diagnostics=diags, residuals=None)


# ---------------------------------------------------------------------------
# Fine-partition surrogate for nonlinear problems

MIN_SURROGATE_N = 256


def fine_surrogate(prob: OcpProblem, n_ref: int, solver_options=None,
                   reject_above: Optional[float] = None,
                   sweep_max_n: Optional[int] = None,
                   comparison_points: int = 2049,
                   cache: Optional[dict] = None) -> PermanentReference:
    """Very fine sampled solution standing in for the permanent optimum.

    Solves at n_ref and 2*n_ref intervals (warm-cascaded) and uses the
    sup distance between the two states as the surrogate's error bar.
    Rejected when the error bar exceeds `reject_above`, or when the
    requesting sweep extends past 20x the surrogate resolution (a
    first-order extrapolation of the error bar would then exceed ten
    times the sweep's smallest expected error).

    A `cache` dict (keyed by interval count) shares chain solutions
    between surrogate calls on the same problem.
    """
    from .solver_sampled import SolverOptions, solve

    if n_ref < MIN_SURROGATE_N:
        raise SurrogateRejectedError(
            f"surrogate resolution {n_ref} below minimum {MIN_SURROGATE_N}")
    if sweep_max_n is not None and sweep_max_n > 20 * n_ref:
        raise SurrogateRejectedError(
            f"sweep partitions up to N={sweep_max_n} would not be resolved by "
            f"a surrogate at N_ref={n_ref}")
    opts = solver_options if solver_options is not None else SolverOptions()

    # halvings of n_ref while the half is an integer >= 16, n_ref, 2 n_ref
    chain = [n_ref, 2 * n_ref]
    while chain[0] % 2 == 0 and chain[0] // 2 >= 16:
        chain.insert(0, chain[0] // 2)
    coarse = sol = None
    for N in chain:
        coarse = sol
        if cache is not None and N in cache:
            sol = cache[N]
        else:
            part = uniform_partition(N, prob.horizon)
            warm = resample_onto(sol.control, part) if sol is not None else None
            warm_mu = sol.multiplier if sol is not None else None
            sol = solve(prob, part, opts, warm_start=warm,
                        warm_multiplier=warm_mu)
            if cache is not None:
                cache[N] = sol
    fine = sol

    ts = np.linspace(0.0, prob.horizon, comparison_points)
    err_bar = float(np.max(np.linalg.norm(
        fine.state.sample(ts) - coarse.state.sample(ts), axis=1)))
    if reject_above is not None and err_bar > reject_above:
        raise SurrogateRejectedError(
            f"surrogate error bar {err_bar:.3e} exceeds limit {reject_above:.3e}")

    return PermanentReference(
        x=fine.state, u=fine.control, p=fine.costate, p0=-1.0,
        cost=fine.cost, provenance=f"fine_surrogate(N_ref={n_ref})",
        error_bar=err_bar,
        notes=[f"error bar = sup state distance between N={n_ref} and N={2 * n_ref}"])
