"""Independent references for checking the program's outputs.

Everything here is written from the problem statements alone, with
numpy and scipy; nothing calls `sampled_ocp`.  The methods differ on
purpose from the package's own oracles:

- sampled LQ: zero-order-hold step maps from one matrix exponential, the
  interval cost by Gauss-Legendre quadrature of the exact flow, and a
  full-space KKT solve over states and controls (the package condenses
  and uses a Van Loan cost block); with active bounds, SLSQP finds the
  active set and a KKT solve with those controls fixed polishes it;
- permanent LQ: shooting on the Hamiltonian system with `solve_ivp`
  (the package uses matrix exponentials);
- nonlinear problems: re-integration of a returned piecewise-constant
  control with `solve_ivp`;
- the cubic counterexample: its maximization gap in closed form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

IVP = dict(method="DOP853", rtol=1e-12, atol=1e-13)


def zoh_blocks(A, B, Q, R, h, nodes=16):
    """Step maps E, F and interval cost matrix S for a control held over h.

    Over one interval, x(h) = E x + F u and the running cost
    int (x'Qx + u'Ru)/2 dt equals [x; u]' S [x; u] / 2.
    """
    A, B, Q, R = (np.asarray(a, float) for a in (A, B, Q, R))
    n, m = B.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A
    aug[:n, n:] = B
    W = np.zeros((n + m, n + m))
    W[:n, :n] = Q
    W[n:, n:] = R
    s, w = np.polynomial.legendre.leggauss(nodes)
    S = np.zeros((n + m, n + m))
    for sk, wk in zip(0.5 * h * (s + 1.0), 0.5 * h * w):
        M = expm(aug * sk)
        S += wk * (M.T @ W @ M)
    Phi = expm(aug * h)
    return Phi[:n, :n], Phi[:n, n:], 0.5 * (S + S.T)


class SampledLq:
    """Sampled-data LQ problem on a uniform partition, discretized exactly."""

    def __init__(self, A, B, Q, R, x0, xT, horizon, N):
        self.A, self.B = np.asarray(A, float), np.asarray(B, float)
        self.n, self.m = self.B.shape
        self.x0, self.xT = np.asarray(x0, float), np.asarray(xT, float)
        self.N = N
        self.E, self.F, self.S = zoh_blocks(A, B, Q, R, horizon / N)

    def _full_space(self):
        """Quadratic form and constraints over v = (x_0..x_N, u_0..u_N-1)."""
        n, m, N = self.n, self.m, self.N
        nx = (N + 1) * n
        dim = nx + N * m
        H = np.zeros((dim, dim))
        for i in range(N):
            idx = np.r_[i * n:(i + 1) * n, nx + i * m:nx + (i + 1) * m]
            H[np.ix_(idx, idx)] += self.S
        C = np.zeros(((N + 2) * n, dim))
        d = np.zeros((N + 2) * n)
        C[:n, :n] = np.eye(n)
        d[:n] = self.x0
        for i in range(N):
            r = (i + 1) * n
            C[r:r + n, (i + 1) * n:(i + 2) * n] = np.eye(n)
            C[r:r + n, i * n:(i + 1) * n] = -self.E
            C[r:r + n, nx + i * m:nx + (i + 1) * m] = -self.F
        C[(N + 1) * n:, N * n:nx] = np.eye(n)
        d[(N + 1) * n:] = self.xT
        return H, C, d

    def solve(self, fixed=None):
        """Exact optimum; `fixed` maps control entries to clamped values.

        Returns (controls of shape (N, m), cost).
        """
        H, C, d = self._full_space()
        nx = (self.N + 1) * self.n
        if fixed:
            rows = np.zeros((len(fixed), H.shape[0]))
            for r, j in enumerate(sorted(fixed)):
                rows[r, nx + j] = 1.0
            C = np.vstack([C, rows])
            d = np.concatenate([d, [fixed[j] for j in sorted(fixed)]])
        k = C.shape[0]
        K = np.block([[H, C.T], [C, np.zeros((k, k))]])
        sol = np.linalg.solve(K, np.concatenate([np.zeros(H.shape[0]), d]))
        v = sol[:H.shape[0]]
        return v[nx:].reshape(self.N, self.m), 0.5 * float(v @ H @ v)

    def solve_bounded(self, lower, upper):
        """Optimum with lower <= u <= upper, entrywise."""
        from scipy.optimize import minimize

        N, m = self.N, self.m
        H = self._full_space()[0]
        nx = (N + 1) * self.n
        # condense: v = v0 + T u satisfies every constraint but the terminal one
        T = np.zeros((H.shape[0], N * m))
        v0 = np.zeros(H.shape[0])
        v0[:self.n] = self.x0
        for i in range(N):
            v0[(i + 1) * self.n:(i + 2) * self.n] = self.E @ v0[i * self.n:(i + 1) * self.n]
            T[(i + 1) * self.n:(i + 2) * self.n] = self.E @ T[i * self.n:(i + 1) * self.n]
            T[(i + 1) * self.n:(i + 2) * self.n, i * m:(i + 1) * m] += self.F
        T[nx:] = np.eye(N * m)
        Hu = T.T @ H @ T
        gu = T.T @ H @ v0
        Aeq = T[N * self.n:nx]
        beq = self.xT - v0[N * self.n:nx]
        res = minimize(lambda u: 0.5 * u @ Hu @ u + gu @ u, np.zeros(N * m),
                       jac=lambda u: Hu @ u + gu, method="SLSQP",
                       bounds=[(lower, upper)] * (N * m),
                       constraints=[{"type": "eq", "fun": lambda u: Aeq @ u - beq,
                                     "jac": lambda u: Aeq}],
                       options={"ftol": 1e-15, "maxiter": 1000})
        if not res.success:
            raise RuntimeError(f"reference bounded QP failed: {res.message}")
        u = res.x
        width = upper - lower
        fixed = {j: (lower if u[j] < lower + 1e-6 * width else upper)
                 for j in range(N * m)
                 if u[j] < lower + 1e-6 * width or u[j] > upper - 1e-6 * width}
        if len(fixed) + self.n > N * m:
            # every control pinned: the polish system is overdetermined
            v = v0 + T @ u
            return u.reshape(N, m), 0.5 * float(v @ H @ v)
        return self.solve(fixed)


def permanent_lq(A, B, Q, R, x0, xT, horizon):
    """Permanent-control LQ optimum by shooting on the Hamiltonian system.

    With u = R^-1 B' p the extremals solve xdot = A x + B R^-1 B' p,
    pdot = Q x - A' p; the map from p(0) to x(T) is affine, so n + 1
    integrations give p(0) exactly and a last one carries the cost.
    Returns (cost, dense solution of (x, p, cost)).
    """
    from scipy.integrate import solve_ivp

    A, B, Q, R = (np.asarray(a, float) for a in (A, B, Q, R))
    x0, xT = np.asarray(x0, float), np.asarray(xT, float)
    n = A.shape[0]
    G = B @ np.linalg.solve(R, B.T)
    Rinv_Bt = np.linalg.solve(R, B.T)

    def rhs(t, z):
        x, p = z[:n], z[n:2 * n]
        u = Rinv_Bt @ p
        out = np.empty_like(z)
        out[:n] = A @ x + G @ p
        out[n:2 * n] = Q @ x - A.T @ p
        if z.size > 2 * n:
            out[2 * n] = 0.5 * (x @ Q @ x + u @ R @ u)
        return out

    def x_final(z0):
        return solve_ivp(rhs, (0.0, horizon), z0, **IVP).y[:n, -1]

    base = x_final(np.concatenate([x0, np.zeros(n)]))
    cols = [x_final(np.concatenate([np.zeros(n), e])) for e in np.eye(n)]
    p0 = np.linalg.solve(np.column_stack(cols), xT - base)
    sol = solve_ivp(rhs, (0.0, horizon), np.concatenate([x0, p0, [0.0]]),
                    dense_output=True, **IVP)
    return float(sol.y[2 * n, -1]), sol


def affine_quadratic_rhs(coupling=0.3, cross_weight=0.1, r_value=1.0):
    """State-plus-cost vector field of the catalog's `affine_quadratic`:
    x1dot = x2, x2dot = -sin x1 + (1 + c cos x1) u,
    L = r u^2/2 + w x2 u + (x1^2 + x2^2)/2."""
    def rhs(t, y, u):
        x1, x2 = y[0], y[1]
        return [x2, -math.sin(x1) + (1.0 + coupling * math.cos(x1)) * u,
                0.5 * r_value * u * u + cross_weight * x2 * u
                + 0.5 * (x1 * x1 + x2 * x2)]
    return rhs


def reintegrate(rhs, x0, times, values):
    """Integrate a scalar piecewise-constant control interval by interval.

    Returns (x(T), cost)."""
    from scipy.integrate import solve_ivp

    y = np.concatenate([np.asarray(x0, float), [0.0]])
    for t0, t1, u in zip(times[:-1], times[1:], values):
        y = solve_ivp(lambda t, z: rhs(t, z, float(u)), (t0, t1), y,
                      **IVP).y[:, -1]
    return y[:-1], float(y[-1])


def cubic_gap(density=1001):
    """Maximization gap of the zero control with unit costate on
    xdot = u^3, u in [-1, 1], scanned on `density` points.

    max_w H - H(0) = max_w w^3 = 1 at the scan's end point, less the
    scan slack Lipschitz * spacing / 2 with Lipschitz = max 3 w^2 = 3.
    """
    spacing = 2.0 / (density - 1)
    return 1.0 - 3.0 * spacing / 2.0
