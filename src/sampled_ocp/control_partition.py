"""Partitions of [0, T], piecewise-constant controls, and averaging.

Controls live on explicit grids with a declared interpolation rule, and
every integral here (interval averages, L1 distances) is evaluated in
closed form per segment rather than by sampling, so the averaging and
membership properties can be tested without quadrature noise.

All types are immutable and all operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .problem_model import _FLOAT_FMT, ControlSet, _frozen, distance_to

Array = np.ndarray

PIECEWISE_CONSTANT = "piecewise_constant"
PIECEWISE_LINEAR = "piecewise_linear"


@dataclass(frozen=True)
class Partition:
    """Sampling times 0 = t_0 < t_1 < ... < t_N = T."""

    times: Array

    def __post_init__(self):
        t = _frozen(np.atleast_1d(self.times))
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a partition needs at least two times")
        if not np.all(np.isfinite(t)):
            raise ValueError("partition times must be finite")
        if t[0] != 0.0:
            raise ValueError("partition must start exactly at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("partition times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def N(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def norm(self) -> float:
        """Largest gap between consecutive sampling times."""
        return float(np.max(np.diff(self.times)))

    def interval_of(self, t):
        """Index i with t in [t_i, t_{i+1}), elementwise on an array of
        times; the last interval owns T.  i counts the interior sampling
        times at or before t, so times outside [0, T] land in the first
        or last interval."""
        return np.searchsorted(self.times[1:-1], t, side="right")


def uniform_partition(N: int, horizon: float) -> Partition:
    """Uniform partition with N intervals, endpoints exact."""
    if N < 1:
        raise ValueError("N must be at least 1")
    return Partition(np.linspace(0.0, float(horizon), N + 1))


def partition_norm(p: Partition) -> float:
    return p.norm


@dataclass(frozen=True)
class PiecewiseConstantControl:
    """Right-continuous piecewise-constant control on a partition.

    u(t) = values[i] for t in [t_i, t_{i+1}); u(T) takes the last
    interval's value (a measure-zero convention).
    """

    partition: Partition
    values: Array  # (N, m)

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.partition.N:
            raise ValueError(
                f"need {self.partition.N} control values, got {v.shape[0]}")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return self.partition.horizon

    def value(self, t) -> Array:
        """u(t) for a time, or one row per time of an array of times."""
        return self.values[self.partition.interval_of(t)]

    def max_set_distance(self, control_set: ControlSet) -> float:
        return float(np.max(distance_to(control_set, self.values)))

    def as_signal(self) -> "SampledControlSignal":
        grid = self.partition.times
        vals = np.vstack([self.values, self.values[-1]])
        return SampledControlSignal(grid, vals, PIECEWISE_CONSTANT)


@dataclass(frozen=True)
class SampledControlSignal:
    """A general control recorded on a grid with an interpolation tag."""

    times: Array   # (K,), increasing, covering the interval of interest
    values: Array  # (K, m)
    interpolation: str = PIECEWISE_LINEAR

    def __post_init__(self):
        t = _frozen(np.atleast_1d(self.times))
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim == 1:
            v = v[:, None]
        if t.size != v.shape[0]:
            raise ValueError("times and values lengths differ")
        if np.any(np.diff(t) <= 0):
            raise ValueError("signal times must be strictly increasing")
        if self.interpolation not in (PIECEWISE_CONSTANT, PIECEWISE_LINEAR):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", _frozen(v))

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def covers(self, t0: float, t1: float) -> bool:
        return self.times[0] <= t0 and self.times[-1] >= t1

    def value(self, t: float) -> Array:
        t = float(t)
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(max(k, 0), self.times.size - 2)
        if self.interpolation == PIECEWISE_CONSTANT:
            if t >= self.times[-1]:
                return self.values[-1]
            return self.values[k]
        t0, t1 = self.times[k], self.times[k + 1]
        s = (t - t0) / (t1 - t0)
        s = min(max(s, 0.0), 1.0)
        return (1.0 - s) * self.values[k] + s * self.values[k + 1]


def _as_signal(u) -> SampledControlSignal:
    if isinstance(u, SampledControlSignal):
        return u
    if isinstance(u, PiecewiseConstantControl):
        return u.as_signal()
    raise TypeError(f"expected a control signal, got {type(u)!r}")


def average_onto(u, partition: Partition) -> PiecewiseConstantControl:
    """Project a control onto the partition by exact interval averages.

    Each output value is the mean of u over [t_i, t_{i+1}], computed
    segment-exactly from the interpolant (constants integrate as
    rectangles, linear pieces as trapezoids).  Averaging preserves
    membership in any convex set containing the input values.
    """
    sig = _as_signal(u)
    T = partition.horizon
    if not sig.covers(0.0, T):
        raise CoverageError(
            f"signal on [{sig.times[0]}, {sig.times[-1]}] does not cover [0, {T}]")
    out = np.empty((partition.N, sig.m))
    for i in range(partition.N):
        a, b = partition.times[i], partition.times[i + 1]
        out[i] = _integrate_signal(sig, a, b) / (b - a)
    return PiecewiseConstantControl(partition, out)


def _integrate_signal(sig: SampledControlSignal, a: float, b: float) -> Array:
    """Exact integral of the interpolant over [a, b]."""
    cuts = sig.times[(sig.times > a) & (sig.times < b)]
    pts = np.concatenate(([a], cuts, [b]))
    total = np.zeros(sig.m)
    for lo, hi in zip(pts[:-1], pts[1:]):
        dt = hi - lo
        if sig.interpolation == PIECEWISE_CONSTANT:
            total += sig.value(lo) * dt
        else:
            total += 0.5 * (sig.value(lo) + sig.value(hi)) * dt
    return total


def l1_distance(u, v) -> float:
    """Exact L1 distance of two piecewise-constant/linear controls.

    int_0^T ||u(t) - v(t)|| dt with the Euclidean norm pointwise.  The
    difference is affine on every segment of the merged breakpoint grid,
    and the integral of the norm of an affine function has a closed
    form, so no quadrature is involved.
    """
    su, sv = _as_signal(u), _as_signal(v)
    if su.m != sv.m:
        raise ValueError("control dimensions differ")
    lo = max(su.times[0], sv.times[0])
    hi = min(su.times[-1], sv.times[-1])
    if hi <= lo:
        raise CoverageError("controls do not share a time interval")
    cuts = np.unique(np.concatenate([su.times, sv.times]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]
    total = 0.0
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        d0 = su.value(t0) - sv.value(t0)
        if su.interpolation == PIECEWISE_CONSTANT and \
                sv.interpolation == PIECEWISE_CONSTANT:
            total += float(np.linalg.norm(d0)) * (t1 - t0)
            continue
        # evaluate the left limit at t1 to stay inside this segment
        tm = 0.5 * (t0 + t1)
        dm = su.value(tm) - sv.value(tm)
        d1 = 2.0 * dm - d0  # affine on the segment: endpoint from midpoint
        total += _l1_affine_segment(d0, d1, t1 - t0)
    return total


def _l1_affine_segment(a: Array, b: Array, h: float) -> float:
    """int_0^h ||a + (s/h)(b - a)|| ds in closed form."""
    if h <= 0.0:
        return 0.0
    e = (b - a) / h
    alpha = float(e @ e)
    beta = float(a @ e)
    gamma = float(a @ a)
    if alpha * h * h <= 1e-30 * max(gamma, 1e-300):
        return h * float(np.linalg.norm(0.5 * (a + b)))
    disc = alpha * gamma - beta * beta
    if disc <= 1e-14 * alpha * gamma or disc <= 0.0:
        # a and e collinear: the norm is sqrt(alpha)|s - r|
        r = -beta / alpha
        if r <= 0.0:
            ramp = 0.5 * h * h - r * h
        elif r >= h:
            ramp = r * h - 0.5 * h * h
        else:
            ramp = 0.5 * (r * r + (h - r) * (h - r))
        return math.sqrt(alpha) * ramp

    def antideriv(s):
        g = math.sqrt(alpha * s * s + 2.0 * beta * s + gamma)
        lin = alpha * s + beta
        return (lin * g / (2.0 * alpha)
                + disc / (2.0 * alpha ** 1.5) * math.log(lin + math.sqrt(alpha) * g))

    return antideriv(h) - antideriv(0.0)


def resample_onto(u: PiecewiseConstantControl,
                  partition: Partition) -> PiecewiseConstantControl:
    """Re-express a PC control on another partition by midpoint lookup.

    Exact when the new partition refines the old one; used to seed
    warm starts when a partition is split.
    """
    mids = 0.5 * (partition.times[:-1] + partition.times[1:])
    return PiecewiseConstantControl(partition, u.value(mids))


# ---------------------------------------------------------------------------
# Serialization


def write_control_csv(path, u: PiecewiseConstantControl) -> None:
    """CSV with header t_start,t_end,u_0,...,u_{m-1}, one row per interval."""
    header = "t_start,t_end," + ",".join(f"u_{j}" for j in range(u.m))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(u.partition.N):
            row = [u.partition.times[i], u.partition.times[i + 1], *u.values[i]]
            fh.write(",".join(_FLOAT_FMT % x for x in row) + "\n")


def read_control_csv(path) -> PiecewiseConstantControl:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols[:2] != ["t_start", "t_end"] or len(cols) < 3:
            raise ValueError(f"{path}: bad control CSV header {header!r}")
        rows = []
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty control CSV")
    if any(len(row) != len(cols) for row in rows):
        raise ValueError(f"{path}: a row does not have the header's "
                         f"{len(cols)} columns")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite entry")
    starts, ends, values = data[:, 0], data[:, 1], data[:, 2:]
    if not np.all(starts[1:] == ends[:-1]):
        raise ValueError(f"{path}: intervals are not contiguous")
    times = np.concatenate([starts, ends[-1:]])
    return PiecewiseConstantControl(Partition(times), values)
