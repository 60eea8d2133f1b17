"""Optimal control problem instances and convex control sets.

A problem bundles the dynamics f(x, u, t), the running cost L(x, u, t),
their first partial derivatives, the horizon and endpoint states, and a
compact convex control set with closed-form Euclidean projection.  All
types here are immutable after construction and every operation is pure,
so problems can be shared freely across concurrent evaluations.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigFormatError, MembershipError, ProblemLookupError

# Tolerance for "u in U" preconditions; absorbs projection round-off.
TOL_SET = 1e-10
# Largest magnitude a marched or stored value may have: every march of
# `integrate` stops past it, so no solve writes a CSV entry beyond it,
# and no problem starts or ends past it.
BLOWUP_NORM = 1e12

Array = np.ndarray
Dynamics = Callable[[Array, Array, float], Array]
Scalar = Callable[[Array, Array, float], float]


def _frozen(a) -> Array:
    """Read-only float copy of `a`."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _count(name: str, value, least: int) -> int:
    """`value` as an int; `ValueError` unless it is an int or numpy
    integer, not a bool, and at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_endpoints(x0: Array, xT: Array) -> None:
    """`ValueError` unless every entry of x0 and xT is finite and at most
    BLOWUP_NORM in magnitude, where every march would stop."""
    if not (np.all(np.abs(x0) <= BLOWUP_NORM)
            and np.all(np.abs(xT) <= BLOWUP_NORM)):
        raise ValueError(f"endpoint states must be finite and at most "
                         f"{BLOWUP_NORM:g} in magnitude")


# Float format of every CSV the package writes: 17 significant digits
# round-trip a double exactly.
_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Control sets


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {v : lower <= v <= upper}, componentwise."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lo = _frozen(np.atleast_1d(self.lower))
        up = _frozen(np.atleast_1d(self.upper))
        if lo.shape != up.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
            raise ValueError("box bounds must be finite (compact set)")
        if np.any(lo > up):
            raise ValueError("box is empty: lower > upper somewhere")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.size

    def project(self, v: Array) -> Array:
        return np.clip(np.asarray(v, dtype=float), self.lower, self.upper)

    def bounding_box(self):
        return self.lower, self.upper


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball {v : ||v - center|| <= radius}."""

    center: Array
    radius: float

    def __post_init__(self):
        c = _frozen(np.atleast_1d(self.center))
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0):
            raise ValueError("ball radius must be finite and positive")
        if not np.all(np.isfinite(c)):
            raise ValueError("ball center must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size

    def project(self, v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        d = v - self.center
        nd = np.linalg.norm(d, axis=-1, keepdims=True)
        # interior rows come back unchanged; the floor keeps 0/0 out of them
        scale = self.radius / np.maximum(nd, self.radius)
        return np.where(nd <= self.radius, v, self.center + d * scale)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True)
class ProductSet:
    """Cartesian product of boxes and balls; projection is per factor."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("product of zero factors")
        for f in factors:
            if not isinstance(f, (Box, Ball)):
                raise ValueError("product factors must be Box or Ball")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def _slices(self):
        off = 0
        for f in self.factors:
            yield f, slice(off, off + f.dim)
            off += f.dim

    def project(self, v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        for f, sl in self._slices():
            out[..., sl] = f.project(v[..., sl])
        return out

    def bounding_box(self):
        los, ups = [], []
        for f in self.factors:
            lo, up = f.bounding_box()
            los.append(lo)
            ups.append(up)
        return np.concatenate(los), np.concatenate(ups)


ControlSet = Union[Box, Ball, ProductSet]


def project(control_set: ControlSet, v: Array) -> Array:
    """Euclidean projection onto the control set (closed form) of each
    row of an (..., m) array."""
    return control_set.project(v)


def distance_to(control_set: ControlSet, v: Array):
    """Euclidean distance from each row of v to the control set."""
    v = np.asarray(v, dtype=float)
    return np.linalg.norm(v - control_set.project(v), axis=-1)


def require_in_set(control_set: ControlSet, values: Array, what: str) -> None:
    """`MembershipError` naming `what` unless every row of `values` lies
    within TOL_SET of the control set; a NaN row is refused too."""
    d = float(np.max(distance_to(control_set, values)))
    if not d <= TOL_SET:
        raise MembershipError(f"{what} leaves the control set by {d:.3e}")


def normal_cone_residual(control_set: ControlSet, u: Array, g: Array):
    """Distance-based test of g belonging to the normal cone at u, one
    value per row of u and g.

    Returns ||project(U, u + g) - u||.  The value is zero (in exact
    arithmetic) exactly when g is normal to U at u.  Requires every row
    of u to lie in U (`require_in_set`).
    """
    u = np.asarray(u, dtype=float)
    require_in_set(control_set, u, "point")
    moved = control_set.project(u + np.asarray(g, dtype=float))
    return np.linalg.norm(moved - u, axis=-1)


def sample_grid(control_set: ControlSet, density: int) -> Array:
    """Deterministic point grid covering the set, used for scans over U.

    Boxes and balls get the tensor grid of their bounding box with
    `density` points per dimension.  A ball keeps its interior points
    and then projects the exterior ones onto the sphere, which covers
    both interior and boundary densely.  Only intended for dim <= 2;
    higher dimensions use coordinate scans.
    """
    if isinstance(control_set, ProductSet):
        grids = [sample_grid(f, density) for f in control_set.factors]
        out = grids[0]
        for g in grids[1:]:
            out = np.hstack([np.repeat(out, len(g), axis=0),
                             np.tile(g, (len(out), 1))])
        return out
    if not isinstance(control_set, (Box, Ball)):
        raise TypeError(f"unsupported control set {type(control_set)!r}")
    lo, up = control_set.bounding_box()
    axes = [np.linspace(lo[j], up[j], density) for j in range(control_set.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    if isinstance(control_set, Box):
        return pts
    inside = np.linalg.norm(pts - control_set.center, axis=1) <= control_set.radius
    return np.vstack([pts[inside], control_set.project(pts[~inside])])


def grid_spacing(control_set: ControlSet, density: int) -> float:
    """Largest spacing of the grid produced by :func:`sample_grid`, whose
    `density` >= 2 points per dimension include both ends."""
    lo, up = control_set.bounding_box()
    widths = (up - lo) / (density - 1)
    return float(np.max(widths)) if widths.size else 0.0


# ---------------------------------------------------------------------------
# Problem container


@dataclass(frozen=True)
class LqProblemData:
    """Matrices of a constant-coefficient linear-quadratic problem.

    Dynamics xdot = A x + B u with running cost (x'Qx + u'Ru)/2.
    R must be symmetric positive definite, Q symmetric positive
    semidefinite.
    """

    A: Array
    B: Array
    Q: Array
    R: Array
    horizon: float
    x0: Array
    xT: Array

    def __post_init__(self):
        A = _frozen(np.atleast_2d(self.A))
        B = _frozen(np.atleast_2d(self.B))
        Q = _frozen(np.atleast_2d(self.Q))
        R = _frozen(np.atleast_2d(self.R))
        x0 = _frozen(np.atleast_1d(self.x0))
        xT = _frozen(np.atleast_1d(self.xT))
        if not all(np.all(np.isfinite(a)) for a in (A, B, Q, R)):
            raise ValueError("LQ matrices must be finite")
        _check_endpoints(x0, xT)
        n = A.shape[0]
        if A.shape != (n, n) or B.shape[0] != n or Q.shape != (n, n):
            raise ValueError("inconsistent LQ matrix shapes")
        m = B.shape[1]
        if R.shape != (m, m):
            raise ValueError("R must be m x m")
        if not np.allclose(R, R.T):
            raise ValueError("R must be symmetric")
        if np.any(np.linalg.eigvalsh(R) <= 0):
            raise ValueError("R must be positive definite")
        if not np.allclose(Q, Q.T):
            raise ValueError("Q must be symmetric")
        if np.any(np.linalg.eigvalsh(Q) < -1e-12):
            raise ValueError("Q must be positive semidefinite")
        if x0.shape != (n,) or xT.shape != (n,):
            raise ValueError("endpoint states must have length n")
        horizon = float(self.horizon)
        if not (np.isfinite(horizon) and horizon > 0):
            raise ValueError("horizon must be finite and positive")
        for name, val in (("A", A), ("B", B), ("Q", Q), ("R", R),
                          ("x0", x0), ("xT", xT), ("horizon", horizon)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class OcpProblem:
    """A fixed-endpoint optimal control problem on [0, horizon].

    Evaluators must be deterministic and side-effect free; they receive
    plain float arrays of shapes (n,) and (m,) plus a float time.

    `control_hessian`, when given, declares the Hamiltonian quadratic in
    u: f is affine in u and L is u'Ru/2 plus terms at most linear in u,
    with R = control_hessian a constant (m, m) array.  `lq`, when given,
    must have the problem's n and m, and takes the problem's horizon and
    endpoint states.
    """

    n: int
    m: int
    horizon: float
    x0: Array
    xT: Array
    dynamics: Dynamics
    dynamics_jac_x: Callable[[Array, Array, float], Array]
    dynamics_jac_u: Callable[[Array, Array, float], Array]
    cost: Scalar
    cost_grad_x: Callable[[Array, Array, float], Array]
    cost_grad_u: Callable[[Array, Array, float], Array]
    control_set: ControlSet
    name: str = ""
    lq: Optional[LqProblemData] = None
    control_hessian: Optional[Array] = None

    def __post_init__(self):
        if self.n <= 0 or self.m <= 0:
            raise ValueError("state and control dimensions must be positive")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and positive")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "x0", _frozen(np.atleast_1d(self.x0)))
        object.__setattr__(self, "xT", _frozen(np.atleast_1d(self.xT)))
        if self.x0.shape != (self.n,) or self.xT.shape != (self.n,):
            raise ValueError("endpoint states must have length n")
        _check_endpoints(self.x0, self.xT)
        if self.control_set.dim != self.m:
            raise ValueError("control set dimension must equal m")
        if self.control_hessian is not None:
            R = _frozen(self.control_hessian)
            if R.shape != (self.m, self.m) or not np.all(np.isfinite(R)):
                raise ValueError("control_hessian must be a finite (m, m) array")
            object.__setattr__(self, "control_hessian", R)
        if self.lq is not None:
            if (self.lq.n, self.lq.m) != (self.n, self.m):
                raise ValueError("LQ data must have the problem's n and m")
            object.__setattr__(self, "lq", dataclasses.replace(
                self.lq, horizon=self.horizon, x0=self.x0, xT=self.xT))

    def __repr__(self):
        return (f"OcpProblem(name={self.name!r}, n={self.n}, m={self.m}, "
                f"T={self.horizon})")


def finite_difference_derivatives(f: Dynamics, L: Scalar, n: int, m: int):
    """Central-difference Jacobians/gradients for user-supplied f and L.

    Step is 1e-6 * (1 + ||argument||), which balances truncation and
    round-off for double precision.  Returns the four derivative
    evaluators (jac_x, jac_u, grad_x, grad_u).
    """

    def central(g, v, shape):
        """Central differences of g at v; index j of the last axis of
        `shape` is the difference along coordinate j of v."""
        v = np.asarray(v, dtype=float)
        h = 1e-6 * (1.0 + float(np.linalg.norm(v)))
        out = np.empty(shape)
        for j in range(shape[-1]):
            e = np.zeros(shape[-1])
            e[j] = h
            out[..., j] = (np.asarray(g(v + e)) - np.asarray(g(v - e))) / (2 * h)
        return out

    def jac_x(x, u, t):
        return central(lambda y: f(y, u, t), x, (n, n))

    def jac_u(x, u, t):
        return central(lambda y: f(x, y, t), u, (n, m))

    def grad_x(x, u, t):
        return central(lambda y: L(y, u, t), x, (n,))

    def grad_u(x, u, t):
        return central(lambda y: L(x, y, t), u, (m,))

    return jac_x, jac_u, grad_x, grad_u


def problem_from_callables(f: Dynamics, L: Scalar, n: int, m: int,
                           horizon: float, x0, xT, control_set: ControlSet,
                           name: str = "user") -> OcpProblem:
    """Build a problem from f and L alone, with FD-backed derivatives."""
    jac_x, jac_u, grad_x, grad_u = finite_difference_derivatives(f, L, n, m)
    return OcpProblem(n=n, m=m, horizon=horizon, x0=x0, xT=xT,
                      dynamics=f, dynamics_jac_x=jac_x, dynamics_jac_u=jac_u,
                      cost=L, cost_grad_x=grad_x, cost_grad_u=grad_u,
                      control_set=control_set, name=name)


# ---------------------------------------------------------------------------
# Built-in problem catalog


@dataclass(frozen=True)
class ProblemCatalogEntry:
    name: str
    builder: Callable[..., OcpProblem]
    summary: str = ""


def _as_matrix(value, rows: int, cols: int, what: str) -> Array:
    """Accept a nested list, a flat row-major list, or a scalar.

    A scalar for a square slot means that multiple of the identity.
    """
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        if rows != cols:
            raise ConfigFormatError(f"{what}: scalar given for non-square slot")
        a = float(a) * np.eye(rows)
    if a.ndim == 1:
        if a.size != rows * cols:
            raise ConfigFormatError(
                f"{what}: expected {rows * cols} row-major entries, got {a.size}")
        a = a.reshape(rows, cols)
    if a.shape != (rows, cols):
        raise ConfigFormatError(f"{what}: expected shape {(rows, cols)}, got {a.shape}")
    return a


def build_cubic_counterexample(horizon: float = 1.0,
                               control_set: Optional[ControlSet] = None) -> OcpProblem:
    """Scalar problem with dynamics u**3, zero cost, zero endpoints.

    The zero control with unit costate is first-order stationary but not
    a pointwise Hamiltonian maximizer, so it separates the gradient-type
    certificate from the maximization-type one.
    """
    U = control_set if control_set is not None else Box([-1.0], [1.0])

    def f(x, u, t):
        return np.array([u[0] ** 3])

    def jac_x(x, u, t):
        return np.zeros((1, 1))

    def jac_u(x, u, t):
        return np.array([[3.0 * u[0] ** 2]])

    def L(x, u, t):
        return 0.0

    def grad_x(x, u, t):
        return np.zeros(1)

    def grad_u(x, u, t):
        return np.zeros(1)

    return OcpProblem(n=1, m=1, horizon=horizon, x0=[0.0], xT=[0.0],
                      dynamics=f, dynamics_jac_x=jac_x, dynamics_jac_u=jac_u,
                      cost=L, cost_grad_x=grad_x, cost_grad_u=grad_u,
                      control_set=U, name="cubic_counterexample")


def build_lq_generic(A=0.0, B=None, Q=None, R=None, horizon: float = 1.0,
                     x0=None, xT=None,
                     control_set: Optional[ControlSet] = None) -> OcpProblem:
    """Generic LQ problem xdot = A x + B u, L = (x'Qx + u'Ru)/2."""
    if x0 is None:
        x0 = np.zeros(2)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    A = _as_matrix(A, n, n, "A")
    if B is None:
        B = np.eye(n)
    B = np.asarray(B, dtype=float)
    if B.ndim == 0:
        B = float(B) * np.eye(n)
    if B.ndim == 1:
        if B.size % n != 0:
            raise ConfigFormatError(f"B: length {B.size} not a multiple of n={n}")
        B = B.reshape(n, B.size // n)
    m = B.shape[1]
    B = _as_matrix(B, n, m, "B")
    Q = _as_matrix(np.eye(n) if Q is None else Q, n, n, "Q")
    R = _as_matrix(np.eye(m) if R is None else R, m, m, "R")
    xT = np.zeros(n) if xT is None else np.atleast_1d(np.asarray(xT, dtype=float))
    U = control_set if control_set is not None else Box(-10.0 * np.ones(m),
                                                        10.0 * np.ones(m))
    return _lq_problem(LqProblemData(A, B, Q, R, float(horizon), x0, xT), U,
                       name="lq_generic")


def build_lq_double_integrator(Q=None, R=1.0, horizon: float = 1.0,
                               x0=(1.0, 0.0), xT=(0.0, 0.0), u_bound: float = 20.0,
                               control_set: Optional[ControlSet] = None) -> OcpProblem:
    """Double integrator x1dot = x2, x2dot = u with quadratic cost."""
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    Q = _as_matrix(np.eye(2) if Q is None else Q, 2, 2, "Q")
    R = _as_matrix(R, 1, 1, "R")
    U = control_set if control_set is not None else Box([-float(u_bound)],
                                                        [float(u_bound)])
    return _lq_problem(LqProblemData(A, B, Q, R, float(horizon),
                                     np.asarray(x0, dtype=float),
                                     np.asarray(xT, dtype=float)),
                       U, name="lq_double_integrator")


def _lq_problem(data: LqProblemData, control_set: ControlSet, name: str) -> OcpProblem:
    A, B, Q, R = data.A, data.B, data.Q, data.R
    n, m = data.n, data.m

    def f(x, u, t):
        return A @ x + B @ u

    def jac_x(x, u, t):
        return A

    def jac_u(x, u, t):
        return B

    def L(x, u, t):
        return 0.5 * (x @ Q @ x + u @ R @ u)

    def grad_x(x, u, t):
        return Q @ x

    def grad_u(x, u, t):
        return R @ u

    return OcpProblem(n=n, m=m, horizon=data.horizon, x0=data.x0, xT=data.xT,
                      dynamics=f, dynamics_jac_x=jac_x, dynamics_jac_u=jac_u,
                      cost=L, cost_grad_x=grad_x, cost_grad_u=grad_u,
                      control_set=control_set, name=name, lq=data,
                      control_hessian=R)


def build_affine_quadratic(coupling: float = 0.3, cross_weight: float = 0.1,
                           r_value: float = 1.0, horizon: float = 1.0,
                           x0=(0.5, 0.0), xT=(0.0, 0.0), u_bound: float = 8.0,
                           control_set: Optional[ControlSet] = None) -> OcpProblem:
    """Nonlinear control-affine pendulum-like system with quadratic cost.

    Dynamics:  x1dot = x2,  x2dot = -sin(x1) + (1 + coupling*cos(x1)) u.
    Cost:      L = r_value*u^2/2 + cross_weight*x2*u + (x1^2 + x2^2)/2.
    """
    c = float(coupling)
    w = float(cross_weight)
    r = float(r_value)
    if r <= 0:
        raise ValueError("r_value must be positive")
    U = control_set if control_set is not None else Box([-float(u_bound)],
                                                        [float(u_bound)])

    def gain(x):
        return 1.0 + c * math.cos(x[0])

    def f(x, u, t):
        return np.array([x[1], -math.sin(x[0]) + gain(x) * u[0]])

    def jac_x(x, u, t):
        return np.array([[0.0, 1.0],
                         [-math.cos(x[0]) - c * math.sin(x[0]) * u[0], 0.0]])

    def jac_u(x, u, t):
        return np.array([[0.0], [gain(x)]])

    def L(x, u, t):
        return 0.5 * r * u[0] ** 2 + w * x[1] * u[0] + 0.5 * (x[0] ** 2 + x[1] ** 2)

    def grad_x(x, u, t):
        return np.array([x[0], x[1] + w * u[0]])

    def grad_u(x, u, t):
        return np.array([r * u[0] + w * x[1]])

    return OcpProblem(n=2, m=1, horizon=horizon, x0=x0, xT=xT,
                      dynamics=f, dynamics_jac_x=jac_x, dynamics_jac_u=jac_u,
                      cost=L, cost_grad_x=grad_x, cost_grad_u=grad_u,
                      control_set=U, name="affine_quadratic",
                      control_hessian=[[r]])


_CATALOG = (
    ProblemCatalogEntry(
        "cubic_counterexample", build_cubic_counterexample,
        "scalar cubic-in-u dynamics, zero cost, zero endpoints; separates "
        "gradient-type from maximization-type stationarity"),
    ProblemCatalogEntry(
        "lq_double_integrator", build_lq_double_integrator,
        "double integrator with quadratic cost; analytic and exact sampled "
        "references available"),
    ProblemCatalogEntry(
        "lq_generic", build_lq_generic,
        "user-supplied constant matrices A, B, Q, R"),
    ProblemCatalogEntry(
        "affine_quadratic", build_affine_quadratic,
        "nonlinear control-affine pendulum-like system with quadratic cost"),
)


def catalog() -> list[ProblemCatalogEntry]:
    """All built-in problem entries, fixed order."""
    return list(_CATALOG)


def catalog_entry(name: str) -> ProblemCatalogEntry:
    for entry in _CATALOG:
        if entry.name == name:
            return entry
    raise ProblemLookupError(
        f"unknown catalog problem {name!r}; known: "
        + ", ".join(e.name for e in _CATALOG))


def build_problem(name: str, **params) -> OcpProblem:
    """Instantiate a catalog problem by name."""
    entry = catalog_entry(name)
    return entry.builder(**params)


# ---------------------------------------------------------------------------
# Problem configuration files (JSON)


def _control_set_from_dict(d: dict) -> ControlSet:
    try:
        kind = d["kind"]
    except (TypeError, KeyError):
        raise ConfigFormatError("control_set: missing 'kind'")
    try:
        if kind == "box":
            if "bounds" in d:
                lo, up = d["bounds"]
                return Box(np.atleast_1d(lo), np.atleast_1d(up))
            return Box(np.atleast_1d(d["lower"]), np.atleast_1d(d["upper"]))
        if kind == "ball":
            return Ball(np.atleast_1d(d["center"]), float(d["radius"]))
        if kind == "product":
            return ProductSet(tuple(_control_set_from_dict(f)
                                    for f in d["factors"]))
    except ConfigFormatError:
        raise
    except KeyError as exc:
        raise ConfigFormatError(f"control_set: {kind} needs key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigFormatError(f"control_set: {kind}: {exc}") from exc
    raise ConfigFormatError(f"control_set: unknown kind {kind!r}")


# the top-level keys of a problem configuration file
_CONFIG_KEYS = ("problem", "params", "horizon", "x0", "xT", "control_set")


def load_problem_config(path: str) -> OcpProblem:
    """Load a problem from a JSON configuration file.

    Recognized fields: `problem` (catalog name), `params` (builder
    keyword arguments; matrices as row-major lists), and optional
    overrides `horizon`, `x0`, `xT`, `control_set`.  Any other key is
    refused (`ConfigFormatError`): a builder argument such as `u_bound`
    belongs under `params`, and ignoring it would solve another problem.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigFormatError(f"{path}: top level must be an object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigFormatError(
            f"{path}: unknown key {unknown[0]!r}; the keys are "
            f"{', '.join(_CONFIG_KEYS)}")
    try:
        name = raw["problem"]
    except KeyError:
        raise ConfigFormatError(f"{path}: missing required key 'problem'")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigFormatError(f"{path}: 'params' must be an object")
    params = dict(params)
    for key in ("horizon", "x0", "xT"):
        if key in raw:
            params[key] = raw[key]
    if "control_set" in raw:
        params["control_set"] = _control_set_from_dict(raw["control_set"])
    try:
        return build_problem(name, **params)
    except ProblemLookupError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigFormatError(f"{path}: key 'problem'/'params': {exc}") from exc
