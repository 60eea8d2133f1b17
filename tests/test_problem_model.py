"""Control sets, projections, normal cones, catalog, config loading."""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_ocp import (Ball, Box, PiecewiseConstantControl, ProductSet,
                         SolverOptions, SweepConfig, build_problem, catalog,
                         gradient_check, load_problem_config,
                         normal_cone_residual, partition_norm, project,
                         resample_onto, solve, solve_lq_sampled_exact,
                         uniform_partition)
from sampled_ocp.convergence_harness import (checked_resolutions,
                                             surrogate_chain)
from sampled_ocp.errors import (ConfigFormatError, MembershipError,
                                ProblemLookupError)
from sampled_ocp.pmp_check import Extremal, hm_gap, random_admissible_control
from sampled_ocp.problem_model import (distance_to, finite_difference_derivatives,
                                       problem_from_callables)

# check bundles stored with the benchmark; tests only read them
BUNDLES = Path(__file__).resolve().parents[1] / "perfbench" / "bundles"

class TestProjection:
    def test_box_clamp(self):
        U = Box([-1.0], [1.0])
        assert project(U, np.array([2.0])) == pytest.approx(1.0)

    def test_box_interior_fixed_point(self):
        U = Box([-1.0], [1.0])
        assert project(U, np.array([0.5])) == pytest.approx(0.5)

    def test_ball_radial_scaling(self):
        U = Ball([0.0, 0.0], 1.0)
        np.testing.assert_allclose(project(U, np.array([3.0, 4.0])),
                                   [0.6, 0.8], atol=1e-15)

    def test_product_per_factor(self):
        U = ProductSet((Box([-1.0], [1.0]), Ball([0.0, 0.0], 2.0)))
        v = np.array([5.0, 3.0, 4.0])
        out = project(U, v)
        np.testing.assert_allclose(out, [1.0, 1.2, 1.6], atol=1e-15)

    def test_idempotent(self, rng):
        # boxes clip bit-exactly; ball rescaling can slip by one ulp
        for U in (Box([-1.0, -2.0], [1.0, 3.0]), Ball([0.5, -0.5], 1.5),
                  ProductSet((Box([-1.0], [1.0]), Ball([0.0], 2.0)))):
            for _ in range(200):
                v = rng.normal(scale=5.0, size=U.dim)
                once = project(U, v)
                np.testing.assert_allclose(project(U, once), once,
                                           rtol=0, atol=5e-16)

    def test_nonexpansive(self, rng):
        for U in (Box([-1.0, -2.0], [1.0, 3.0]), Ball([0.5, -0.5], 1.5)):
            for _ in range(200):
                a = rng.normal(scale=4.0, size=U.dim)
                b = rng.normal(scale=4.0, size=U.dim)
                da = project(U, a) - project(U, b)
                assert np.linalg.norm(da) <= np.linalg.norm(a - b) + 1e-14

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_idempotent_and_nonexpansive_property(self, data):
        """On a box, a ball and their product, projecting twice moves a
        point by at most a few ulp, and projection never lengthens the
        distance between two points."""
        for U in (Box([-1.0, -2.0], [1.0, 3.0]), Ball([0.5, -0.5], 1.5),
                  ProductSet((Box([-1.0], [1.0]), Ball([0.0, 2.0], 2.0)))):
            point = st.lists(st.floats(-1e3, 1e3), min_size=U.dim,
                             max_size=U.dim).map(np.array)
            a, b = data.draw(point), data.draw(point)
            once = project(U, a)
            np.testing.assert_allclose(project(U, once), once, rtol=0,
                                       atol=1e-15 * (1.0 + np.abs(once).max()))
            assert np.linalg.norm(once - project(U, b)) <= \
                np.linalg.norm(a - b) * (1.0 + 1e-15) + 1e-13

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_batched_rows_equal_row_by_row_property(self, data):
        """`project`, `distance_to` and `normal_cone_residual` on an
        (N, m) array give each row's own result: bit for bit on a box,
        within 1e-15 relative on a ball and a product, whose norms may
        sum in another order."""
        for U, rtol in ((Box([-1.0, -2.0], [1.0, 3.0]), 0.0),
                        (Ball([0.5, -0.5], 1.5), 1e-15),
                        (ProductSet((Box([-1.0], [1.0]),
                                     Ball([0.0, 2.0], 2.0))), 1e-15)):
            n = data.draw(st.integers(1, 8))
            rows = st.lists(st.floats(-1e3, 1e3), min_size=n * U.dim,
                            max_size=n * U.dim).map(
                lambda a: np.reshape(a, (n, U.dim)))
            v, g = data.draw(rows), data.draw(rows)
            u = project(U, v)
            batched = (u, distance_to(U, v), normal_cone_residual(U, u, g))
            by_row = (np.array([project(U, r) for r in v]),
                      np.array([distance_to(U, r) for r in v]),
                      np.array([normal_cone_residual(U, a, b)
                                for a, b in zip(u, g)]))
            for got, want in zip(batched, by_row):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box([1.0], [-1.0])

    def test_unbounded_box_rejected(self):
        with pytest.raises(ValueError):
            Box([-np.inf], [1.0])

    @pytest.mark.parametrize("build", [
        lambda: Box([1e308], [1e308]), lambda: Box([0.0], [2e12]),
        lambda: Ball([1e308], 1e308), lambda: Ball([0.0], 2e12),
        lambda: Ball([-2e12], 1.0), lambda: Ball([np.nan], 1.0),
        lambda: Ball([0.0], np.inf)],
        ids=["box_1e308", "box_2e12", "ball_1e308", "ball_radius_2e12",
             "ball_center_2e12", "ball_nan", "ball_inf"])
    def test_oversized_set_data_rejected(self, build):
        """Set data past BLOWUP_NORM, where every march stops, is refused
        as an endpoint is; at 1e308 a ball's projection overflowed."""
        with pytest.raises(ValueError, match="at most 1e\\+12 in magnitude"):
            build()

    def test_set_data_at_blowup_norm_accepted(self):
        assert Box([-1e12], [1e12]).dim == Ball([1e12], 1e12).dim == 1


class TestNormalCone:
    def test_boundary_outward_normal(self):
        U = Box([-1.0], [1.0])
        assert normal_cone_residual(U, np.array([1.0]), np.array([5.0])) == 0.0

    def test_interior_cone_is_origin(self):
        U = Box([-1.0], [1.0])
        r = normal_cone_residual(U, np.array([0.0]), np.array([0.3]))
        assert r == pytest.approx(0.3, abs=1e-15)

    def test_ball_radial_direction(self):
        U = Ball([0.0, 0.0], 1.0)
        r = normal_cone_residual(U, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert r == 0.0

    def test_outside_point_rejected(self):
        U = Box([-1.0], [1.0])
        with pytest.raises(MembershipError):
            normal_cone_residual(U, np.array([1.5]), np.array([0.0]))
        with pytest.raises(MembershipError, match="by 5.000e-01"):
            normal_cone_residual(U, np.array([[0.0], [1.5], [1.2]]),
                                 np.zeros((3, 1)))
        # a NaN row used to come back as a NaN residual
        with pytest.raises(MembershipError, match="by nan"):
            normal_cone_residual(U, [[np.nan]], [[0.0]])

    @pytest.mark.parametrize("U", [Box([-1.0], [1.0]),
                                   Box([-1.0, 0.0], [2.0, 1.0]),
                                   Ball([0.0, 0.0], 1.0)])
    def test_inner_product_characterization(self, U, rng):
        """Residual zero exactly when <g, v-u> <= 0 on a dense sample of U."""
        from sampled_ocp.problem_model import sample_grid
        vs = sample_grid(U, 41)
        for _ in range(60):
            u = project(U, rng.normal(scale=1.5, size=U.dim))
            g = rng.normal(scale=2.0, size=U.dim)
            residual = normal_cone_residual(U, u, g)
            in_cone = bool(np.max(vs @ g - float(u @ g)) <= 1e-9)
            assert (residual <= 1e-9) == in_cone


# One row per argument each rule refuses where it enters: counts
# (`_count`), partitions and held controls (`_check_type`); `ctx` holds
# the exact oracle's DI extremal on 8 intervals, its partition and the
# permanent reference.
_REFUSED = {
    "hm_density_float": (ValueError,
                         lambda c: hm_gap(c.e, density=11.5)),
    "hm_stride_float": (ValueError, lambda c: hm_gap(c.e, time_stride=1.9)),
    "hm_stride_bool": (ValueError, lambda c: hm_gap(c.e, time_stride=True)),
    "comparison_points_float": (ValueError, lambda c: SweepConfig(
        problem=c.prob, reference=c.ref, comparison_points=2.5)),
    "resolutions_float": (ValueError, lambda c: SweepConfig(
        problem=c.prob, reference=c.ref, resolutions=(2.5, 4))),
    "resolutions_bool": (ValueError,
                         lambda c: checked_resolutions([True, 2])),
    "uniform_bool": (ValueError, lambda c: uniform_partition(True, 1.0)),
    "uniform_float": (ValueError, lambda c: uniform_partition(2.5, 1.0)),
    "surrogate_chain_float": (ValueError, lambda c: surrogate_chain(256.5)),
    "partition_norm_of_list": (TypeError,
                               lambda c: partition_norm([0.0, 1.0])),
    "held_control_on_list": (TypeError, lambda c: PiecewiseConstantControl(
        [0.0, 0.5, 1.0], [[0.0], [0.0]])),
    "exact_oracle_on_list": (TypeError, lambda c: solve_lq_sampled_exact(
        c.prob.lq, [0.0, 0.5, 1.0], c.prob.control_set)),
    "random_control_on_list": (TypeError, lambda c: random_admissible_control(
        c.prob, [0.0, 0.5, 1.0], np.random.default_rng(0))),
    "warm_start_array": (TypeError, lambda c: solve(
        c.prob, c.part, warm_start=np.zeros((8, 1)))),
    "resample_array": (TypeError,
                       lambda c: resample_onto(np.zeros((8, 1)), c.part)),
    "gradient_check_array": (TypeError, lambda c: gradient_check(
        c.prob, c.part, np.zeros((8, 1)), np.zeros(2), 1.0)),
}


class TestArgumentRules:
    @pytest.fixture(scope="class")
    def ctx(self, di_problem, di_reference):
        part = uniform_partition(8, 1.0)
        sol = solve_lq_sampled_exact(di_problem.lq, part,
                                     di_problem.control_set)
        e = Extremal(di_problem, sol.state, sol.control, sol.costate, -1.0)
        return SimpleNamespace(prob=di_problem, ref=di_reference, part=part,
                               e=e)

    @pytest.mark.parametrize("name", sorted(_REFUSED))
    def test_refused_where_it_enters(self, ctx, name):
        """Each used to run silently on a truncated value, or fail late
        with a numpy `TypeError` or an `AttributeError`."""
        error, call = _REFUSED[name]
        with pytest.raises(error):
            call(ctx)

    def test_numpy_integers_are_counts(self, ctx):
        """A numpy integer is a count, and gives what the int gives."""
        np.testing.assert_array_equal(
            uniform_partition(np.int64(4), 1.0).times,
            uniform_partition(4, 1.0).times)
        assert checked_resolutions(np.array([2, 4])) == (2, 4)
        assert all(type(n) is int for n in checked_resolutions(
            np.array([2, 4])))
        a = hm_gap(ctx.e, density=np.int32(51), time_stride=np.int64(4))
        b = hm_gap(ctx.e, density=51, time_stride=4)
        assert a.sup == b.sup
        np.testing.assert_array_equal(a.per_node, b.per_node)
        assert SolverOptions(max_outer=np.int64(3)).max_outer == 3


class TestCatalog:
    def test_names_present(self):
        names = {e.name for e in catalog()}
        assert {"cubic_counterexample", "lq_double_integrator", "lq_generic",
                "affine_quadratic"} <= names

    def test_unknown_name(self):
        with pytest.raises(ProblemLookupError):
            build_problem("does_not_exist")

    @pytest.mark.parametrize("name", ["affine_quadratic",
                                      "lq_double_integrator"])
    @pytest.mark.parametrize("params", [
        {"horizon": np.inf}, {"horizon": np.nan}, {"x0": [np.nan, 0.0]},
        {"xT": [0.0, -np.inf]}, {"x0": [[0.5, 0.0]]}, {"x0": [0.0, 1e308]},
        {"xT": [-1e13, 0.0]}],
        ids=["horizon_inf", "horizon_nan", "x0_nan", "xT_inf", "x0_2d",
             "x0_1e308", "xT_neg_1e13"])
    def test_non_finite_or_misshapen_endpoints_refused(self, name, params):
        """`OcpProblem` and `LqProblemData` refuse what no march can
        start from, or what every march stops at (past BLOWUP_NORM); a
        config loader turns the ValueError into a `ConfigFormatError`."""
        with pytest.raises(ValueError):
            build_problem(name, **params)

    def test_lq_data_takes_the_problem_endpoints(self):
        """The problem owns its horizon and endpoint states: replacing
        them on the problem moves its LQ data along."""
        q = dataclasses.replace(build_problem("lq_double_integrator"),
                                x0=[2.0, 0.0], xT=[0.0, 0.5], horizon=2.0)
        np.testing.assert_array_equal(q.lq.x0, [2.0, 0.0])
        np.testing.assert_array_equal(q.lq.xT, [0.0, 0.5])
        assert q.lq.horizon == 2.0

    def test_lq_data_of_other_dimensions_refused(self):
        prob = build_problem("lq_double_integrator")
        with pytest.raises(ValueError, match="n and m"):
            dataclasses.replace(prob, lq=build_problem("lq_generic").lq)

    def test_cubic_dynamics_value(self):
        prob = build_problem("cubic_counterexample")
        out = prob.dynamics(np.array([0.0]), np.array([0.5]), 0.3)
        assert out[0] == pytest.approx(0.125, abs=1e-15)

    def test_double_integrator_dynamics(self):
        prob = build_problem("lq_double_integrator")
        out = prob.dynamics(np.array([0.0, 0.0]), np.array([1.0]), 0.0)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_lq_generic_identity_cost(self):
        prob = build_problem("lq_generic", A=0.0, B=1.0, Q=1.0, R=1.0)
        x = np.array([1.0, 2.0])
        u = np.array([3.0, 0.0])
        expected = 0.5 * (np.dot(x, x) + np.dot(u, u))
        assert prob.cost(x, u, 0.0) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("name", ["cubic_counterexample",
                                      "lq_double_integrator", "lq_generic",
                                      "affine_quadratic"])
    def test_jacobians_match_finite_differences(self, name, rng):
        """Analytic derivatives agree with central FD, and the FD error
        decays at second order as the step halves."""
        prob = build_problem(name)
        for _ in range(100):
            x = rng.normal(size=prob.n)
            u = rng.normal(size=prob.m)
            t = float(rng.uniform(0, prob.horizon))
            for step in (1e-5,):
                jx = _fd_jac(lambda xx: prob.dynamics(xx, u, t), x, step)
                np.testing.assert_allclose(prob.dynamics_jac_x(x, u, t), jx,
                                           atol=1e-7, rtol=1e-5)
                ju = _fd_jac(lambda uu: prob.dynamics(x, uu, t), u, step)
                np.testing.assert_allclose(prob.dynamics_jac_u(x, u, t), ju,
                                           atol=1e-7, rtol=1e-5)
        # order check on one stressed sample
        x = np.array([0.7, -0.4])[:prob.n]
        u = np.full(prob.m, 0.9)
        errs = []
        for step in (1e-3, 5e-4):
            jx = _fd_jac(lambda xx: prob.dynamics(xx, u, 0.2), x, step)
            errs.append(np.max(np.abs(prob.dynamics_jac_x(x, u, 0.2) - jx)))
        if errs[0] > 1e-12:  # skip exactly-linear dynamics
            assert errs[1] <= errs[0] / 2.5

    def test_fd_backed_problem(self):
        """User problems without analytic derivatives get FD Jacobians."""
        prob = problem_from_callables(
            f=lambda x, u, t: np.array([np.sin(x[0]) + u[0] ** 2]),
            L=lambda x, u, t: float(x[0] ** 2 + u[0] ** 2) / 2,
            n=1, m=1, horizon=1.0, x0=[0.1], xT=[0.0],
            control_set=Box([-1.0], [1.0]))
        x, u, t = np.array([0.3]), np.array([0.4]), 0.0
        assert prob.dynamics_jac_x(x, u, t)[0, 0] == pytest.approx(
            np.cos(0.3), abs=1e-8)
        assert prob.dynamics_jac_u(x, u, t)[0, 0] == pytest.approx(0.8, abs=1e-8)
        assert prob.cost_grad_u(x, u, t)[0] == pytest.approx(0.4, abs=1e-8)


def _fd_jac(f, v, step):
    out = []
    for j in range(v.size):
        e = np.zeros_like(v)
        e[j] = step
        out.append((np.atleast_1d(f(v + e)) - np.atleast_1d(f(v - e))) / (2 * step))
    return np.stack(out, axis=-1)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = {
            "problem": "lq_generic",
            "params": {"A": [0.0, 1.0, 0.0, 0.0], "B": [0.0, 1.0],
                       "Q": [1.0, 0.0, 0.0, 1.0], "R": [1.0]},
            "horizon": 1.0,
            "x0": [1.0, 0.0],
            "xT": [0.0, 0.0],
            "control_set": {"kind": "box", "lower": [-20.0], "upper": [20.0]},
        }
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(cfg))
        prob = load_problem_config(str(path))
        assert prob.n == 2 and prob.m == 1
        np.testing.assert_allclose(prob.lq.B, [[0.0], [1.0]])
        np.testing.assert_allclose(prob.control_set.upper, [20.0])

    def test_parse_error_is_anchored(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "lq_generic",\n  "params": }')
        with pytest.raises(ConfigFormatError) as exc:
            load_problem_config(str(path))
        assert ":2:" in str(exc.value)

    def test_missing_problem_key(self, tmp_path):
        path = tmp_path / "nokey.json"
        path.write_text('{"params": {}}')
        with pytest.raises(ConfigFormatError):
            load_problem_config(str(path))

    def test_ball_control_set(self, tmp_path):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({
            "problem": "lq_generic",
            "params": {"A": 0.0, "B": [1.0, 0.0, 0.0, 1.0]},
            "x0": [0.0, 0.0],
            "control_set": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
        }))
        prob = load_problem_config(str(path))
        assert distance_to(prob.control_set, np.array([3.0, 0.0])) == pytest.approx(1.0)

    def test_product_control_set(self, tmp_path):
        path = tmp_path / "product.json"
        path.write_text(json.dumps({
            "problem": "lq_generic",
            "params": {"A": 0.0, "B": [1.0, 0.0, 0.0, 1.0]},
            "x0": [0.0, 0.0],
            "control_set": {"kind": "product", "factors": [
                {"kind": "box", "lower": [-1.0], "upper": [1.0]},
                {"kind": "ball", "center": [0.0], "radius": 3.0},
            ]},
        }))
        prob = load_problem_config(str(path))
        out = prob.control_set.project(np.array([5.0, -4.0]))
        np.testing.assert_allclose(out, [1.0, -3.0])

    def test_unknown_key_refused(self, tmp_path):
        """A builder argument at the top level is refused, naming the key
        and the allowed ones; ignored, it would solve the u_bound=20
        problem."""
        path = tmp_path / "stray.json"
        path.write_text(json.dumps({"problem": "lq_double_integrator",
                                    "u_bound": 4.0, "x0": [0.9, 0.0]}))
        with pytest.raises(ConfigFormatError,
                           match="unknown key 'u_bound'.*problem, params, "
                                 "horizon, x0, xT, control_set"):
            load_problem_config(str(path))

    @pytest.mark.parametrize(
        "path", sorted(BUNDLES.glob("**/problem.json")),
        ids=lambda p: str(p.relative_to(BUNDLES)))
    def test_benchmark_bundle_configs_load(self, path):
        """Every stored benchmark bundle's config uses only known keys."""
        name = json.loads(path.read_text())["problem"]
        assert load_problem_config(str(path)).name == name

    @pytest.mark.parametrize("extra", [
        {"params": [1, 2]},
        {"control_set": {"kind": "ball", "center": [0.0]}},
        {"control_set": {"kind": "box", "lower": [-1.0]}},
        {"control_set": {"kind": "box", "lower": [1.0], "upper": [-1.0]}},
        {"control_set": {"kind": "product"}},
        {"control_set": {"kind": "product", "factors": 5}},
    ], ids=["params_list", "ball_without_radius", "box_without_upper",
            "empty_box", "product_without_factors", "product_factors_int"])
    def test_malformed_entries_are_config_errors(self, tmp_path, extra):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": "lq_double_integrator",
                                    **extra}))
        with pytest.raises(ConfigFormatError):
            load_problem_config(str(path))


class TestFiniteDifferenceHelpers:
    def test_second_order_decay(self):
        f = lambda x, u, t: np.array([x[0] ** 3 + u[0] * x[0]])
        L = lambda x, u, t: float(np.cos(x[0]) * u[0])
        jac_x, jac_u, grad_x, grad_u = finite_difference_derivatives(f, L, 1, 1)
        x, u, t = np.array([0.8]), np.array([0.5]), 0.0
        exact = 3 * 0.8 ** 2 + 0.5
        assert jac_x(x, u, t)[0, 0] == pytest.approx(exact, abs=1e-6)
        assert grad_x(x, u, t)[0] == pytest.approx(-np.sin(0.8) * 0.5, abs=1e-6)
