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
from .problem_model import _FLOAT_FMT, BLOWUP_NORM, _count, _frozen

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


def _check_type(value, kind) -> None:
    """`TypeError` unless `value` is a `kind` (`Partition` or
    `PiecewiseConstantControl`): a bare list or array is refused here."""
    if not isinstance(value, kind):
        raise TypeError(f"expected a {kind.__name__}, got "
                        f"{type(value).__name__}")


def uniform_partition(N: int, horizon: float) -> Partition:
    """Uniform partition with N intervals, endpoints exact."""
    N = _count("N", N, 1)
    return Partition(np.linspace(0.0, float(horizon), N + 1))


def partition_norm(p: Partition) -> float:
    _check_type(p, Partition)
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
        _check_type(self.partition, Partition)
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

    def limits(self, cuts) -> tuple:
        """(start, end), each (len(cuts) - 1, m): the interpolant's one-sided
        limits at both ends of every piece [cuts[j], cuts[j+1]], for
        increasing `cuts` whose pieces straddle no signal time.  A held
        value is the linear case with equal ends."""
        cuts = np.asarray(cuts, dtype=float)
        k = np.clip(np.searchsorted(self.times, cuts[:-1], side="right") - 1,
                    0, self.times.size - 2)
        v0 = self.values[k]
        if self.interpolation == PIECEWISE_CONSTANT:
            return v0, v0
        t0, t1, v1 = self.times[k], self.times[k + 1], self.values[k + 1]
        s0, s1 = (np.clip((t - t0) / (t1 - t0), 0.0, 1.0)[:, None]
                  for t in (cuts[:-1], cuts[1:]))
        return (1.0 - s0) * v0 + s0 * v1, (1.0 - s1) * v0 + s1 * v1


def _as_signal(u) -> SampledControlSignal:
    if isinstance(u, SampledControlSignal):
        return u
    if isinstance(u, PiecewiseConstantControl):
        return u.as_signal()
    raise TypeError(f"expected a control signal, got {type(u)!r}")


def average_onto(u, partition: Partition) -> PiecewiseConstantControl:
    """Project a control onto the partition by exact interval averages.

    Each output value is the mean of u over [t_i, t_{i+1}], computed
    segment-exactly from the interpolant: every piece between the
    partition's and the signal's times integrates as a trapezoid of its
    one-sided limits.  Averaging preserves membership in any convex set
    containing the input values.
    """
    _check_type(partition, Partition)
    sig = _as_signal(u)
    T = partition.horizon
    if not sig.covers(0.0, T):
        raise CoverageError(
            f"signal on [{sig.times[0]}, {sig.times[-1]}] does not cover [0, {T}]")
    cuts = np.union1d(partition.times, sig.times[(sig.times > 0.0)
                                                 & (sig.times < T)])
    start, end = sig.limits(cuts)
    pieces = 0.5 * (start + end) * np.diff(cuts)[:, None]
    # each interval's pieces, summed in time order
    first = np.searchsorted(cuts, partition.times)
    sums = np.array([sum(pieces[lo:hi]) for lo, hi in zip(first, first[1:])])
    return PiecewiseConstantControl(
        partition, sums / np.diff(partition.times)[:, None])


def l1_distance(u, v) -> float:
    """Exact L1 distance of two piecewise-constant/linear controls.

    int_0^T ||u(t) - v(t)|| dt with the Euclidean norm pointwise.  The
    difference is affine on every piece of the merged breakpoint grid,
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
    (u0, u1), (v0, v1) = su.limits(cuts), sv.limits(cuts)
    return sum(_l1_affine_segment(a, b, h)
               for a, b, h in zip(u0 - v0, u1 - v1, np.diff(cuts)))


def _l1_affine_segment(a: Array, b: Array, h: float) -> float:
    """int_0^h ||a + (s/h)(b - a)|| ds in closed form: the norm is
    g = sqrt(x^2 + C^2) in the coordinate x along b - a, C the line's
    distance from 0, with antiderivative (x g + C^2 asinh(x/C)) / 2.  Its
    differences are taken in product form, so a difference that barely
    changes over the piece loses no digits to cancellation."""
    if h <= 0.0:
        return 0.0
    d = b - a
    ld = float(np.linalg.norm(d))
    g0, g1 = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if ld == 0.0:
        return h * g0
    e = d / ld
    x0, x1 = float(a @ e), float(b @ e)
    c2 = float(np.sum((a - x0 * e) ** 2))
    body = 0.5 * (g0 + g1) + 0.5 * (x0 + x1) ** 2 / (g0 + g1)
    if c2 == 0.0:
        tail = 0.0
    elif x0 * x1 > 0.0:
        tail = c2 * math.asinh(ld * (x0 + x1) / (x1 * g0 + x0 * g1)) / ld
    else:
        c = math.sqrt(c2)
        tail = c2 * (math.asinh(x1 / c) - math.asinh(x0 / c)) / ld
    return 0.5 * h * (body + tail)


def resample_onto(u: PiecewiseConstantControl,
                  partition: Partition) -> PiecewiseConstantControl:
    """Re-express a PC control on another partition by midpoint lookup.

    Exact when the new partition refines the old one; used to seed
    warm starts when a partition is split.  `CoverageError` when the
    partition spans another horizon.
    """
    _check_type(u, PiecewiseConstantControl)
    _check_type(partition, Partition)
    if partition.horizon != u.horizon:
        raise CoverageError(f"control on [0, {u.horizon}] cannot be "
                            f"resampled onto [0, {partition.horizon}]")
    mids = 0.5 * (partition.times[:-1] + partition.times[1:])
    return PiecewiseConstantControl(partition, u.value(mids))


# ---------------------------------------------------------------------------
# Serialization


def _write_float_rows(path, header: str, rows) -> None:
    """CSV of a header line and one line per row of floats, each at 17
    significant digits, so that it reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_FLOAT_FMT % x for x in row) + "\n")


def _read_float_rows(path, header_ok):
    """(header, data) of a CSV of float rows under a header line whose
    column names `header_ok` accepts; data is a (rows, columns) array,
    refused when it is empty, ragged or holds an entry that is not finite
    or exceeds BLOWUP_NORM in magnitude."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header_ok(header):
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = [[float(tok) for tok in line.split(",")]
                for line in map(str.strip, fh) if line]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: a row does not have the header's "
                         f"{len(header)} columns")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite entry")
    if np.abs(data).max() > BLOWUP_NORM:
        raise ValueError(f"{path}: an entry exceeds {BLOWUP_NORM:g} in "
                         "magnitude")
    return header, data


def write_control_csv(path, u: PiecewiseConstantControl) -> None:
    """CSV with header t_start,t_end,u_0,...,u_{m-1}, one row per interval."""
    t = u.partition.times
    header = "t_start,t_end," + ",".join(f"u_{j}" for j in range(u.m))
    _write_float_rows(path, header, np.column_stack([t[:-1], t[1:], u.values]))


def read_control_csv(path) -> PiecewiseConstantControl:
    _, data = _read_float_rows(
        path, lambda cols: cols[:2] == ["t_start", "t_end"] and len(cols) >= 3)
    starts, ends, values = data[:, 0], data[:, 1], data[:, 2:]
    if not np.all(starts[1:] == ends[:-1]):
        raise ValueError(f"{path}: intervals are not contiguous")
    times = np.concatenate([starts, ends[-1:]])
    return PiecewiseConstantControl(Partition(times), values)
