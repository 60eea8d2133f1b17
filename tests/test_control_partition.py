"""Partitions, piecewise-constant controls, averaging, L1 distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_ocp import (Box, Ball, Partition, ProductSet, PiecewiseConstantControl,
                         SampledControlSignal, average_onto, l1_distance,
                         partition_norm, uniform_partition)
from sampled_ocp.control_partition import (read_control_csv, resample_onto,
                                           write_control_csv)
from sampled_ocp.errors import CoverageError
from sampled_ocp.problem_model import distance_to, project


class TestPartition:
    def test_uniform_single(self):
        p = uniform_partition(1, 1.0)
        np.testing.assert_array_equal(p.times, [0.0, 1.0])

    def test_uniform_endpoints_exact(self):
        p = uniform_partition(4, 2.0)
        np.testing.assert_array_equal(p.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert p.times[0] == 0.0 and p.times[-1] == 2.0

    def test_uniform_norm(self):
        assert uniform_partition(3, 1.0).norm == pytest.approx(1.0 / 3.0)

    def test_norm_nonuniform(self):
        assert partition_norm(Partition([0.0, 0.25, 1.0])) == pytest.approx(0.75)
        assert partition_norm(uniform_partition(8, 1.0)) == pytest.approx(0.125)
        assert partition_norm(Partition([0.0, 0.1, 0.2, 1.0])) == pytest.approx(0.8)

    def test_zero_intervals_rejected(self):
        with pytest.raises(ValueError):
            uniform_partition(0, 1.0)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Partition([0.1, 1.0])

    def test_monotone_required(self):
        with pytest.raises(ValueError):
            Partition([0.0, 0.5, 0.5, 1.0])

    @pytest.mark.parametrize("times", [[0.0, float("nan"), 1.0],
                                       [0.0, 0.5, float("inf")]],
                             ids=["nan", "inf"])
    def test_finite_required(self, times):
        with pytest.raises(ValueError):
            Partition(times)


class TestPiecewiseConstant:
    def test_right_continuity(self):
        u = PiecewiseConstantControl(uniform_partition(2, 1.0),
                                     np.array([[1.0], [2.0]]))
        assert u.value(0.0)[0] == 1.0
        assert u.value(0.5)[0] == 2.0   # new interval owns its left endpoint
        assert u.value(0.49999)[0] == 1.0
        assert u.value(1.0)[0] == 2.0   # terminal time takes the last value
        np.testing.assert_array_equal(u.value([0.0, 0.5, 0.49999, 1.0]),
                                      [[1.0], [2.0], [1.0], [2.0]])

    def test_value_count_mismatch(self):
        with pytest.raises(ValueError):
            PiecewiseConstantControl(uniform_partition(3, 1.0),
                                     np.array([[1.0], [2.0]]))


class TestLimits:
    CUTS = [0.0, 0.1, 0.3, 0.5, 0.7, 1.0]

    def test_held_signal_has_equal_ends(self):
        """A held value is the linear case with equal ends, bit for bit."""
        rng = np.random.default_rng(5)
        sig = SampledControlSignal([0.0, 0.3, 0.7, 1.0],
                                   rng.normal(size=(4, 2)),
                                   "piecewise_constant")
        start, end = sig.limits(self.CUTS)
        assert start.shape == (5, 2)
        np.testing.assert_array_equal(start, end)
        np.testing.assert_array_equal(start,
                                      [sig.value(t) for t in self.CUTS[:-1]])

    def test_linear_signal_ends_are_one_sided_values(self):
        """Each piece starts at the interpolant's value at its left cut and
        ends at its value at its right cut, a signal time included."""
        rng = np.random.default_rng(6)
        sig = SampledControlSignal([0.0, 0.3, 0.7, 1.0],
                                   rng.normal(size=(4, 2)))
        start, end = sig.limits(self.CUTS)
        np.testing.assert_array_equal(start,
                                      [sig.value(t) for t in self.CUTS[:-1]])
        np.testing.assert_array_equal(end,
                                      [sig.value(t) for t in self.CUTS[1:]])
        np.testing.assert_array_equal(end[[1, 3, 4]], sig.values[1:])


class TestAveraging:
    @pytest.mark.parametrize("operator", [average_onto, resample_onto])
    def test_list_of_times_refused(self, operator):
        """The target must be a `Partition`, not its list of times."""
        u = PiecewiseConstantControl(uniform_partition(2, 1.0),
                                     [[1.0], [2.0]])
        with pytest.raises(TypeError, match="Partition"):
            operator(u, [0.0, 1.0])

    def test_constant_stays_constant(self):
        sig = SampledControlSignal([0.0, 0.3, 1.0], [[2.5], [2.5], [2.5]],
                                   "piecewise_linear")
        for P in (uniform_partition(1, 1.0), uniform_partition(5, 1.0),
                  Partition([0.0, 0.17, 0.62, 1.0])):
            out = average_onto(sig, P)
            np.testing.assert_allclose(out.values, 2.5, atol=1e-15)

    def test_linear_ramp_exact_means(self):
        ts = np.linspace(0.0, 1.0, 101)
        sig = SampledControlSignal(ts, ts[:, None], "piecewise_linear")
        out = average_onto(sig, uniform_partition(2, 1.0))
        np.testing.assert_allclose(out.values.ravel(), [0.25, 0.75], atol=1e-15)

    def test_sign_function_averages_to_zero(self):
        sig = SampledControlSignal([0.0, 0.5, 1.0], [[-1.0], [1.0], [1.0]],
                                   "piecewise_constant")
        U = Box([-1.0], [1.0])
        out = average_onto(sig, uniform_partition(1, 1.0))
        assert out.values[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert distance_to(U, out.values[0]) == 0.0

    def test_coverage_required(self):
        sig = SampledControlSignal([0.0, 0.5], [[1.0], [1.0]],
                                   "piecewise_constant")
        with pytest.raises(CoverageError):
            average_onto(sig, uniform_partition(2, 1.0))

    @pytest.mark.parametrize("U", [Box([-1.0], [1.0]),
                                   Ball([0.0, 0.5], 1.3)])
    def test_membership_preserved_randomized(self, U, rng):
        """Averaging a U-valued signal lands in U (convexity), 1000 cases."""
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            ts = np.sort(np.concatenate([[0.0, 1.0],
                                         rng.uniform(0, 1, size=k)]))
            ts = np.unique(ts)
            vals = np.array([project(U, rng.normal(scale=2.0, size=U.dim))
                             for _ in ts])
            interp = "piecewise_linear" if rng.random() < 0.5 \
                else "piecewise_constant"
            sig = SampledControlSignal(ts, vals, interp)
            ncut = int(rng.integers(1, 7))
            cuts = np.sort(rng.uniform(0, 1, size=ncut))
            part = Partition(np.unique(np.concatenate([[0.0, 1.0], cuts])))
            out = average_onto(sig, part)
            for v in out.values:
                assert distance_to(U, v) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           interpolation=st.sampled_from(["piecewise_linear",
                                          "piecewise_constant"]))
    def test_membership_preserved_property(self, seed, interpolation):
        """Averaging a signal valued in a product of a box and a ball onto
        any partition lands in the product."""
        U = ProductSet((Box([-1.0], [2.0]), Ball([0.0, 0.5], 1.3)))
        rng = np.random.default_rng(seed)
        ts = np.unique(np.concatenate([[0.0, 1.0],
                                       rng.uniform(0, 1, size=6)]))
        vals = np.array([project(U, rng.normal(scale=3.0, size=U.dim))
                         for _ in ts])
        sig = SampledControlSignal(ts, vals, interpolation)
        cuts = rng.uniform(0, 1, size=int(rng.integers(1, 7)))
        part = Partition(np.unique(np.concatenate([[0.0, 1.0], cuts])))
        for v in average_onto(sig, part).values:
            assert distance_to(U, v) <= 1e-12

    def test_refinement_consistency(self, rng):
        """Averaging a PC control onto a refinement, then back to the
        coarse partition, reproduces direct coarse averaging."""
        coarse = Partition([0.0, 0.4, 1.0])
        fine = Partition([0.0, 0.2, 0.4, 0.7, 1.0])
        vals = rng.normal(size=(4, 2))
        u_fine = PiecewiseConstantControl(fine, vals)
        direct = average_onto(u_fine, coarse)
        via = average_onto(average_onto(u_fine, fine), coarse)
        np.testing.assert_allclose(direct.values, via.values, atol=1e-12)


class TestL1Distance:
    def test_identical(self):
        u = PiecewiseConstantControl(uniform_partition(3, 1.0),
                                     np.array([[1.0], [-2.0], [0.5]]))
        assert l1_distance(u, u) == 0.0

    def test_constant_offset(self):
        a = SampledControlSignal([0.0, 2.0], [[1.0], [1.0]], "piecewise_constant")
        b = SampledControlSignal([0.0, 2.0], [[0.0], [0.0]], "piecewise_constant")
        assert l1_distance(a, b) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_ramp_vs_average_exact_value(self, N):
        """For u(t) = t on [0,1], the distance to its interval average is
        1/(4N): per interval of width h the average is the midpoint value
        and int |t - mid| dt = h^2/4; summing N intervals of h = 1/N
        gives N * (1/N^2)/4.  Closed form derived by hand, frozen here."""
        ts = np.linspace(0.0, 1.0, 201)
        sig = SampledControlSignal(ts, ts[:, None], "piecewise_linear")
        avg = average_onto(sig, uniform_partition(N, 1.0))
        assert l1_distance(sig, avg) == pytest.approx(1.0 / (4.0 * N), abs=1e-12)

    def test_ramp_distance_halves(self):
        ts = np.linspace(0.0, 1.0, 201)
        sig = SampledControlSignal(ts, ts[:, None], "piecewise_linear")
        d = [l1_distance(sig, average_onto(sig, uniform_partition(N, 1.0)))
             for N in (2, 4, 8, 16, 32)]
        for a, b in zip(d, d[1:]):
            assert b == pytest.approx(a / 2.0, rel=1e-10)

    def test_nonincreasing_under_dyadic_refinement_lipschitz(self, rng):
        """Averaging error shrinks to zero along dyadic refinement for a
        Lipschitz signal."""
        ts = np.linspace(0.0, 1.0, 257)
        vals = np.sin(3.0 * ts) + 0.5 * ts
        sig = SampledControlSignal(ts, vals[:, None], "piecewise_linear")
        dists = [l1_distance(sig, average_onto(sig, uniform_partition(N, 1.0)))
                 for N in (1, 2, 4, 8, 16, 32)]
        assert all(b <= a + 1e-14 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.1 * dists[0]

    def test_vector_valued_crossing(self):
        """Two-component signals whose difference changes sign mid-segment
        exercise the affine-norm closed form."""
        a = SampledControlSignal([0.0, 1.0], [[-1.0, 0.5], [1.0, -0.5]],
                                 "piecewise_linear")
        b = SampledControlSignal([0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]],
                                 "piecewise_constant")
        # ||(2t-1, 0.5-t)|| integrated on [0,1]; compare against dense
        # trapezoid quadrature as an independent oracle
        tt = np.linspace(0, 1, 200001)
        f = np.sqrt((2 * tt - 1) ** 2 + (0.5 - tt) ** 2)
        oracle = np.trapezoid(f, tt)
        assert l1_distance(a, b) == pytest.approx(oracle, abs=1e-9)

    def test_nearly_constant_difference_keeps_its_digits(self):
        """A difference that changes by 2e-6 of itself over the piece: the
        closed form must not cancel (a log form lost 2.3e-10 here).  The
        oracle, 8-point Gauss-Legendre, is exact to rounding for so
        smooth an integrand."""
        u = PiecewiseConstantControl(uniform_partition(1, 1.0), [[3.0, 4.0]])
        v = SampledControlSignal([0.0, 1.0], [[0.0, 0.0], [1e-5, 0.0]])
        x, w = np.polynomial.legendre.leggauss(8)
        oracle = 0.5 * np.sum(w * np.hypot(3.0 - 0.5e-5 * (x + 1.0), 4.0))
        assert l1_distance(u, v) == pytest.approx(oracle, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 2),
           kinds=st.tuples(*[st.sampled_from(["control", "piecewise_linear",
                                              "piecewise_constant"])] * 2))
    def test_matches_adaptive_quadrature_property(self, seed, m, kinds):
        """The closed form equals adaptive quadrature of ||u(t) - v(t)||,
        for every pairing of held controls and constant or linear signals
        on random grids."""
        from scipy.integrate import quad
        rng = np.random.default_rng(seed)

        def draw(kind):
            times = np.unique(np.concatenate(
                [[0.0, 1.0], rng.uniform(0, 1, size=int(rng.integers(0, 6)))]))
            if kind == "control":
                return times, PiecewiseConstantControl(
                    Partition(times), rng.normal(size=(times.size - 1, m)))
            return times, SampledControlSignal(
                times, rng.normal(size=(times.size, m)), kind)

        (tu, u), (tv, v) = draw(kinds[0]), draw(kinds[1])

        def gap(t):
            return u.value(t) - v.value(t)

        cuts = np.union1d(tu, tv)
        points = list(cuts[1:-1])
        for a, b in zip(cuts[:-1], cuts[1:]):
            # the gap is affine inside (a, b), so its norm bends sharply
            # only where the gap comes closest to zero; quadrature that
            # straddles that point loses about 1e-8 (m = 1)
            ta, tb = a + 0.25 * (b - a), a + 0.75 * (b - a)
            slope = (gap(tb) - gap(ta)) / (tb - ta)
            if slope @ slope > 0:
                t_min = ta - (gap(ta) @ slope) / (slope @ slope)
                if a < t_min < b:
                    points.append(t_min)
        oracle, _ = quad(lambda t: np.linalg.norm(gap(t)), 0.0, 1.0,
                         points=points, limit=500, epsabs=1e-13,
                         epsrel=1e-12)
        assert l1_distance(u, v) == pytest.approx(oracle, rel=1e-9, abs=1e-12)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        part = Partition([0.0, 0.125, 0.5, 1.0])
        u = PiecewiseConstantControl(part, rng.normal(size=(3, 2)))
        path = tmp_path / "control.csv"
        write_control_csv(path, u)
        header = path.read_text().splitlines()[0]
        assert header == "t_start,t_end,u_0,u_1"
        back = read_control_csv(path)
        np.testing.assert_array_equal(back.partition.times, part.times)
        np.testing.assert_array_equal(back.values, u.values)

    def test_resample_onto_refinement(self):
        u = PiecewiseConstantControl(uniform_partition(2, 1.0),
                                     np.array([[1.0], [3.0]]))
        fine = resample_onto(u, uniform_partition(4, 1.0))
        np.testing.assert_array_equal(fine.values.ravel(), [1.0, 1.0, 3.0, 3.0])
