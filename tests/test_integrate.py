"""State/costate/variation propagation and the transition matrix."""

import collections
import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from sampled_ocp import (Box, Partition, PiecewiseConstantControl,
                         build_problem, build_time_grid, integrate,
                         integrate_costate,
                         integrate_state, integrate_variation,
                         transition_matrix, uniform_partition)
from sampled_ocp.errors import (GridAlignmentError, IntegrationDivergedError,
                                 TrivialLiftError)
from sampled_ocp.control_partition import read_control_csv, write_control_csv
from sampled_ocp.integrate import (costate_from_nodes, read_costate_csv,
                                   read_state_csv, write_costate_csv,
                                   write_state_csv)
from sampled_ocp.problem_model import problem_from_callables


def _scalar_problem(f, L=None, x0=0.0, horizon=1.0):
    L = L if L is not None else (lambda x, u, t: 0.0)
    return problem_from_callables(f, L, n=1, m=1, horizon=horizon,
                                  x0=[x0], xT=[0.0],
                                  control_set=Box([-10.0], [10.0]))


class TestTimeGrid:
    def test_partition_nodes_bit_exact(self):
        part = uniform_partition(3, 1.0)
        grid = build_time_grid(1.0, part, h_max=0.01)
        for t in part.times:
            assert t in grid.times

    def test_even_steps_per_interval(self):
        part = uniform_partition(3, 1.0)
        grid = build_time_grid(1.0, part, h_max=0.05)
        for i in range(grid.n_intervals):
            sl = grid.interval_slice(i)
            assert (sl.stop - sl.start - 1) % 2 == 0

    def test_h_max_respected(self):
        grid = build_time_grid(2.0, h_max=0.3)
        assert np.max(np.diff(grid.times)) <= 0.3 + 1e-15

    def test_boundaries_of_finer_partition(self):
        """A grid built for N = 8 also spans the N = 4 partition."""
        grid = build_time_grid(1.0, uniform_partition(8, 1.0), h_max=1 / 64)
        np.testing.assert_array_equal(
            grid.boundaries_of(uniform_partition(4, 1.0)), grid.boundaries[::2])

    def test_boundaries_of_short_partition_rejected(self):
        """A partition that ends before the grid does cannot own every
        segment."""
        grid = build_time_grid(1.0, uniform_partition(4, 1.0), h_max=1 / 64)
        with pytest.raises(GridAlignmentError):
            grid.boundaries_of(Partition([0.0, 0.25, 0.5, 0.75]))


    def test_step_count_is_bounded(self, monkeypatch):
        """A grid of more than `MAX_GRID_STEPS` steps is refused on its
        count; one of exactly that many is built.  The bound is lowered
        here so that no large grid is ever allocated."""
        monkeypatch.setattr(integrate, "MAX_GRID_STEPS", 64)
        assert build_time_grid(1.0, uniform_partition(2, 1.0),
                               h_max=1 / 64).K == 64
        # 33 steps per interval round up to 34: 68 in all
        with pytest.raises(GridAlignmentError, match="68 grid steps"):
            build_time_grid(1.0, uniform_partition(2, 1.0), h_max=1 / 65)

    def test_unbuildable_grid_is_a_package_error(self):
        """A step bound no grid can meet fails before any node is filled."""
        for h_max in (1e-300, 5e-324):
            with pytest.raises(GridAlignmentError):
                build_time_grid(1.0, uniform_partition(2, 1.0), h_max=h_max)


class TestFirstSameAsLast:
    @pytest.mark.parametrize("name", ["lq_double_integrator",
                                      "affine_quadratic"])
    def test_state_march_reuses_end_derivative(self, name):
        """Inside a sampling interval a step's end derivative is the next
        step's first stage: 4K + N calls of f and of L, not 5K."""
        calls = collections.Counter()

        def counting(field):
            fn = getattr(build_problem(name), field)

            def wrapped(*args):
                calls[field] += 1
                return fn(*args)
            return wrapped

        prob = dataclasses.replace(build_problem(name),
                                   dynamics=counting("dynamics"),
                                   cost=counting("cost"))
        part = uniform_partition(8, 1.0)
        grid = build_time_grid(1.0, part, h_max=1.0 / 256.0)
        rng = np.random.default_rng(1)
        u = PiecewiseConstantControl(part, rng.uniform(-1, 1, size=(8, 1)))
        x = integrate_state(prob, u, grid)
        assert grid.K == 256
        assert calls == {"dynamics": 1032, "cost": 1032}
        p = integrate_costate(prob, x, u, p0=-1.0, pT=[1.0, -0.5])
        interior = np.setdiff1d(np.arange(1, grid.K), grid.boundaries)
        for path in (x, p):
            np.testing.assert_array_equal(path.deriv_left[interior],
                                          path.deriv_right[interior])

    def test_control_jumps_off_grid_boundaries_restart_the_stage(self):
        """A control sampled more finely than the grid's own partition
        jumps at nodes that are not grid boundaries; the marches evaluate
        afresh there, so they equal, bit for bit, the marches on the same
        nodes with the control's partition as boundaries."""
        prob = build_problem("affine_quadratic")
        coarse = build_time_grid(1.0, uniform_partition(2, 1.0),
                                 h_max=1.0 / 64.0)
        part = uniform_partition(8, 1.0)
        fine = dataclasses.replace(coarse,
                                   boundaries=coarse.boundaries_of(part))
        rng = np.random.default_rng(2)
        u = PiecewiseConstantControl(part, rng.uniform(-2, 2, size=(8, 1)))
        x_coarse = integrate_state(prob, u, coarse)
        x_fine = integrate_state(prob, u, fine)
        np.testing.assert_array_equal(x_coarse.states, x_fine.states)
        p_coarse = integrate_costate(prob, x_coarse, u, -1.0, [1.0, 0.5])
        p_fine = integrate_costate(prob, x_fine, u, -1.0, [1.0, 0.5])
        np.testing.assert_array_equal(p_coarse.costates, p_fine.costates)


class TestStateIntegration:
    def test_constant_control_exact(self):
        prob = _scalar_problem(lambda x, u, t: np.array([u[0]]))
        grid = build_time_grid(1.0, h_max=0.25)
        u = lambda t: np.array([1.0])
        traj = integrate_state(prob, u, grid)
        assert traj.final_state[0] == pytest.approx(1.0, abs=1e-14)

    def test_exponential_growth(self):
        prob = _scalar_problem(lambda x, u, t: np.array([x[0]]), x0=1.0)
        grid = build_time_grid(1.0, h_max=1.0 / 64.0)
        traj = integrate_state(prob, lambda t: np.array([0.0]), grid)
        assert traj.final_state[0] == pytest.approx(np.e, abs=1e-8)

    def test_zoh_oracle_cross_check(self):
        """PC control on the double integrator: RK4 endpoint agrees with
        the exact zero-order-hold discretization."""
        prob = build_problem("lq_double_integrator")
        part = uniform_partition(4, 1.0)
        rng = np.random.default_rng(3)
        u = PiecewiseConstantControl(part, rng.uniform(-2, 2, size=(4, 1)))
        grid = build_time_grid(1.0, part, h_max=1.0 / 256.0)
        traj = integrate_state(prob, u, grid)
        # independent endpoint via matrix exponentials
        A, B = prob.lq.A, prob.lq.B
        big = np.zeros((3, 3))
        big[:2, :2] = A
        big[:2, 2:] = B
        Phi = expm(big * 0.25)
        E, F = Phi[:2, :2], Phi[:2, 2]
        x = prob.x0.copy()
        for i in range(4):
            x = E @ x + F * u.values[i, 0]
        np.testing.assert_allclose(traj.final_state, x, atol=1e-10)

    def test_running_cost_accumulates(self):
        prob = problem_from_callables(
            f=lambda x, u, t: np.array([0.0]),
            L=lambda x, u, t: float(t), n=1, m=1, horizon=2.0,
            x0=[0.0], xT=[0.0], control_set=Box([-1.0], [1.0]))
        grid = build_time_grid(2.0, h_max=0.125)
        traj = integrate_state(prob, lambda t: np.array([0.0]), grid)
        assert traj.cost == pytest.approx(2.0, abs=1e-12)

    def test_blowup_detected(self):
        prob = _scalar_problem(lambda x, u, t: np.array([x[0] ** 2]), x0=2.0)
        grid = build_time_grid(1.0, h_max=1.0 / 128.0)
        with pytest.raises(IntegrationDivergedError) as exc:
            integrate_state(prob, lambda t: np.array([0.0]), grid)
        assert exc.value.t_bad is not None

    def test_blowup_through_math_functions_detected(self):
        """Over a horizon of 1e308 the RK4 stages overflow to inf before
        the end-of-step test sees them, and `math.cos` refuses inf with
        a ValueError; the march reports that as divergence."""
        prob = build_problem("affine_quadratic", horizon=1e308)
        part = uniform_partition(2, prob.horizon)
        u = PiecewiseConstantControl(part, np.zeros((2, 1)))
        with pytest.raises(IntegrationDivergedError):
            integrate_state(prob, u, build_time_grid(prob.horizon, part))

    def test_signal_is_not_a_control(self):
        """A recorded signal carries no partition for the grid to align
        with; a march refuses it rather than let RK4 stages at an
        interval's end read the next interval's value."""
        prob = build_problem("affine_quadratic")
        part = uniform_partition(4, prob.horizon)
        u = PiecewiseConstantControl(part, np.zeros((4, 1)))
        grid = build_time_grid(prob.horizon, part)
        with pytest.raises(TypeError):
            integrate_state(prob, u.as_signal(), grid)

    def test_dense_output_matches_nodes(self):
        prob = _scalar_problem(lambda x, u, t: np.array([x[0]]), x0=1.0)
        grid = build_time_grid(1.0, h_max=1.0 / 32.0)
        traj = integrate_state(prob, lambda t: np.array([0.0]), grid)
        mid = 0.5 * (grid.times[3] + grid.times[4])
        assert traj.at(float(grid.times[3]))[0] == traj.states[3, 0]
        # Hermite interpolation error ~ h^4/384 * |y''''| ~ 3e-9 at h = 1/32
        assert traj.at(float(mid))[0] == pytest.approx(np.exp(mid), abs=1e-8)


class TestRk4Order:
    def test_fourth_order_endpoint_decay(self):
        """Endpoint error against a much finer solve shrinks ~16x per
        halving; the ratio window [12, 20] brackets h^4 behavior."""
        prob = build_problem("affine_quadratic")
        u = lambda t: np.array([np.sin(2.0 * t)])
        ref = integrate_state(prob, u, build_time_grid(1.0, h_max=1.0 / 640.0))
        errs = []
        for div in (16, 32, 64):
            traj = integrate_state(prob, u, build_time_grid(1.0, h_max=1.0 / div))
            errs.append(np.linalg.norm(traj.final_state - ref.final_state))
        for a, b in zip(errs, errs[1:]):
            assert 12.0 <= a / b <= 20.0

    def test_refinement_alignment_kink_free(self):
        """Doubling the grid under a PC control only moves the endpoint at
        the h^4 scale: sampling times are never crossed mid-step."""
        prob = build_problem("affine_quadratic")
        part = uniform_partition(3, 1.0)
        u = PiecewiseConstantControl(part, np.array([[2.0], [-1.0], [0.5]]))
        x1 = integrate_state(prob, u, build_time_grid(1.0, part, 1.0 / 96))
        x2 = integrate_state(prob, u, build_time_grid(1.0, part, 1.0 / 192))
        assert np.linalg.norm(x1.final_state - x2.final_state) < 1e-9


class TestCostateIntegration:
    def test_constant_costate(self):
        prob = _scalar_problem(lambda x, u, t: np.array([u[0]]))
        grid = build_time_grid(1.0, h_max=0.125)
        traj = integrate_state(prob, lambda t: np.array([0.0]), grid)
        p = integrate_costate(prob, traj, lambda t: np.array([0.0]),
                              p0=-1.0, pT=np.array([2.5]))
        np.testing.assert_allclose(p.costates, 2.5, atol=1e-14)

    def test_abnormal_linear_adjoint(self):
        a = 0.7
        prob = _scalar_problem(lambda x, u, t: np.array([a * x[0]]), x0=1.0)
        grid = build_time_grid(1.0, h_max=1.0 / 64.0)
        traj = integrate_state(prob, lambda t: np.array([0.0]), grid)
        p = integrate_costate(prob, traj, lambda t: np.array([0.0]),
                              p0=0.0, pT=np.array([1.0]))
        ts = grid.times
        expected = np.exp(a * (1.0 - ts))
        np.testing.assert_allclose(p.costates[:, 0], expected, atol=1e-8)

    def test_lq_oracle_backward_reproduction(self, di_problem, di_reference):
        """Backward solve from the analytic terminal costate lands on the
        analytic initial costate."""
        ref = di_reference
        grid = build_time_grid(1.0, h_max=1.0 / 256.0)
        traj = integrate_state(di_problem, lambda t: ref.u.at(t), grid)
        pT = ref.p.at(1.0)
        p = integrate_costate(di_problem, traj, lambda t: ref.u.at(t),
                              p0=-1.0, pT=pT)
        np.testing.assert_allclose(p.costates[0], ref.p.at(0.0), atol=1e-6)

    def test_trivial_pair_rejected(self):
        prob = _scalar_problem(lambda x, u, t: np.array([u[0]]))
        grid = build_time_grid(1.0, h_max=0.25)
        traj = integrate_state(prob, lambda t: np.array([0.0]), grid)
        with pytest.raises(TrivialLiftError):
            integrate_costate(prob, traj, lambda t: np.array([0.0]),
                              p0=0.0, pT=np.array([0.0]))

    @pytest.mark.parametrize("pT", [np.zeros(3), [np.nan, 0.0],
                                    [np.inf, 0.0], np.zeros((2, 1))],
                             ids=["length_3", "nan", "inf", "column"])
    def test_malformed_terminal_costate_refused(self, di_problem, pT):
        """A pT that is not n finite values is a `ValueError` where it
        enters; the march used to report it as a blow-up at its first
        step."""
        grid = build_time_grid(1.0, h_max=0.25)
        u = lambda t: np.array([1.0])
        traj = integrate_state(di_problem, u, grid)
        with pytest.raises(ValueError, match="pT must hold n = 2 finite"):
            integrate_costate(di_problem, traj, u, p0=-1.0, pT=pT)

    def test_valid_terminal_costate_kept_bit_for_bit(self, di_problem):
        """A list, a tuple and an array give one costate, which ends at
        pT exactly."""
        grid = build_time_grid(1.0, h_max=0.25)
        u = lambda t: np.array([1.0])
        traj = integrate_state(di_problem, u, grid)
        pT = [0.1, -2.0 / 3.0]
        runs = [integrate_costate(di_problem, traj, u, -1.0, form(pT))
                for form in (list, tuple, np.array)]
        for p in runs:
            np.testing.assert_array_equal(p.final_costate, pT)
            np.testing.assert_array_equal(p.costates, runs[0].costates)


def _hermite_point_by_point(times, values, d_right, d_left, ts):
    """Reference dense output: one segment lookup and one scalar cubic
    Hermite formula per time, node hits returning the stored value."""
    out = []
    for t in np.atleast_1d(ts):
        t = float(t)
        k = int(np.searchsorted(times, t, side="right")) - 1
        k = min(max(k, 0), times.size - 2)
        t0, t1 = times[k], times[k + 1]
        if t == t0:
            out.append(values[k])
            continue
        if t == t1:
            out.append(values[k + 1])
            continue
        h = t1 - t0
        s = (t - t0) / h
        s2 = s * s
        s3 = s2 * s
        out.append((2 * s3 - 3 * s2 + 1) * values[k]
                   + (s3 - 2 * s2 + s) * h * d_right[k]
                   + (-2 * s3 + 3 * s2) * values[k + 1]
                   + (s3 - s2) * h * d_left[k + 1])
    return np.array(out)


class TestHermiteDenseOutput:
    def test_bitwise_equal_to_point_by_point(self, di_problem, di_reference):
        """The vectorized evaluator reproduces the scalar formula bit for
        bit on a state, a costate (derivatives jump at sampling times) and
        the permanent reference's x, p and u."""
        part = uniform_partition(5, 1.0)
        u = PiecewiseConstantControl(part, [[-3.0], [1.5], [0.25], [2.0], [-1.0]])
        grid = build_time_grid(1.0, part, h_max=1.0 / 200.0)
        x = integrate_state(di_problem, u, grid)
        p = integrate_costate(di_problem, x, u, p0=-1.0, pT=[0.7, -1.3])
        ref = di_reference
        cases = [(grid.times, x.states, x.deriv_right, x.deriv_left, x),
                 (grid.times, p.costates, p.deriv_right, p.deriv_left, p)]
        for path in (ref.x, ref.p, ref.u):
            cases.append((path.times, path.values, path.deriv_right,
                          path.deriv_left, path))
        rng = np.random.default_rng(7)
        for times, values, d_right, d_left, dense in cases:
            T = times[-1]
            ts = np.concatenate([times, 0.5 * (times[:-1] + times[1:]), [T],
                                 rng.uniform(0.0, T, 1000)])
            expected = _hermite_point_by_point(times, values, d_right, d_left,
                                               ts)
            got = dense.sample(ts)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            for t, row in zip(ts[::97], expected[::97]):
                assert dense.at(t).tobytes() == row.tobytes()


class TestVariation:
    def test_zero_direction(self, di_problem):
        grid = build_time_grid(1.0, h_max=1.0 / 64.0)
        u = lambda t: np.array([1.0])
        traj = integrate_state(di_problem, u, grid)
        var = integrate_variation(di_problem, traj, u, lambda t: np.array([0.0]))
        assert np.all(var.w == 0.0) and np.all(var.w0 == 0.0)

    def test_pure_integrator_response(self):
        prob = _scalar_problem(lambda x, u, t: np.array([u[0]]))
        grid = build_time_grid(1.0, h_max=1.0 / 64.0)
        u = lambda t: np.array([0.0])
        traj = integrate_state(prob, u, grid)
        var = integrate_variation(prob, traj, u, lambda t: np.array([1.0]))
        np.testing.assert_allclose(var.w[:, 0], grid.times, atol=1e-12)

    def test_directional_fd_second_order(self, aq_problem):
        """|E(u + eps v) - E(u) - eps w| = O(eps^2) on a genuinely
        nonlinear problem, with the ratio ~4 when eps halves."""
        grid = build_time_grid(1.0, h_max=1.0 / 128.0)
        u = lambda t: np.array([0.8 * np.cos(t)])
        v = lambda t: np.array([np.sin(3.0 * t) + 0.2])
        base = integrate_state(aq_problem, u, grid)
        var = integrate_variation(aq_problem, base, u, v)
        errs = []
        for eps in (1e-3, 5e-4):
            pert = integrate_state(
                aq_problem, lambda t: u(t) + eps * v(t), grid)
            errs.append(np.max(np.abs(pert.states - base.states
                                      - eps * var.w)))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_linear_problem_fd_is_exact(self, di_problem):
        """On linear dynamics the discrete variational response equals the
        finite difference to round-off: both are the same linear map."""
        grid = build_time_grid(1.0, h_max=1.0 / 64.0)
        u = lambda t: np.array([np.sin(t)])
        v = lambda t: np.array([np.cos(2 * t)])
        base = integrate_state(di_problem, u, grid)
        var = integrate_variation(di_problem, base, u, v)
        eps = 1e-3
        pert = integrate_state(di_problem, lambda t: u(t) + eps * v(t), grid)
        assert np.max(np.abs(pert.states - base.states - eps * var.w)) < 1e-12


class TestLinearization:
    def test_derivatives_evaluated_once_per_stage_point(self, aq_problem):
        """The costate march evaluates grad_x f and grad_x L, and the
        variation march all four derivatives, at the three stage points
        of each of the K segments (3K calls each), not at every one of
        the five RK4 stage evaluations."""
        names = ("dynamics_jac_x", "dynamics_jac_u", "cost_grad_x",
                 "cost_grad_u")
        calls = collections.Counter()

        def counting(name):
            evaluator = getattr(aq_problem, name)

            def wrapped(*args):
                calls[name] += 1
                return evaluator(*args)
            return wrapped

        prob = dataclasses.replace(aq_problem,
                                   **{name: counting(name) for name in names})
        part = uniform_partition(4, 1.0)
        grid = build_time_grid(1.0, part, h_max=1.0 / 64.0)
        rng = np.random.default_rng(3)
        u = PiecewiseConstantControl(part, rng.uniform(-1, 1, size=(4, 1)))
        v = PiecewiseConstantControl(part, rng.uniform(-1, 1, size=(4, 1)))
        x = integrate_state(prob, u, grid)
        calls.clear()
        integrate_costate(prob, x, u, p0=-1.0, pT=[1.0, -0.5])
        assert calls == {"dynamics_jac_x": 3 * grid.K,
                         "cost_grad_x": 3 * grid.K}
        calls.clear()
        integrate_variation(prob, x, u, v)
        assert calls == {name: 3 * grid.K for name in names}

    def test_node_controls_are_right_continuous(self, aq_problem):
        """u(t_k) at every node of a grid finer than the held control's
        partition, sampling times and T included, read from the stage
        controls; for a callable, u(t_k).  A march leaves them unbuilt."""
        part = Partition([0.0, 0.25, 0.625, 1.0])
        grid = build_time_grid(1.0, part, h_max=1.0 / 16.0)
        u = PiecewiseConstantControl(part, [[1.0], [-2.0], [0.5]])
        lin = integrate.Linearization(aq_problem,
                                      integrate_state(aq_problem, u, grid), u)
        lin.costate(-1.0, [1.0, 0.5])
        assert "node_controls" not in vars(lin)
        assert grid.K > part.N
        np.testing.assert_array_equal(lin.node_controls, u.value(grid.times))
        np.testing.assert_array_equal(lin.node_controls[grid.boundaries],
                                      [[1.0], [-2.0], [0.5], [0.5]])

        def w(t):
            return np.array([np.cos(2.0 * t)])
        lin = integrate.Linearization(aq_problem,
                                      integrate_state(aq_problem, w, grid), w)
        np.testing.assert_array_equal(lin.node_controls,
                                      [w(t) for t in grid.times])


class TestStateCsv:
    @pytest.mark.parametrize("name,N", [("affine_quadratic", 32),
                                        ("lq_double_integrator", 8)])
    def test_reload_rebuilds_running_cost(self, name, N, tmp_path):
        """A reloaded trajectory reports the running cost it was written
        with, rebuilt by Simpson's rule on the stored nodes."""
        prob = build_problem(name)
        part = uniform_partition(N, prob.horizon)
        grid = build_time_grid(prob.horizon, part, h_max=prob.horizon / 256)
        rng = np.random.default_rng(N)
        lo, up = prob.control_set.bounding_box()
        u = PiecewiseConstantControl(part, rng.uniform(lo, up, (N, prob.m)))
        traj = integrate_state(prob, u, grid)
        path = tmp_path / "state.csv"
        write_state_csv(path, traj)
        back = read_state_csv(path, prob, u)
        assert back.cost == pytest.approx(traj.cost, rel=1e-9)
        np.testing.assert_allclose(back.running_cost, traj.running_cost,
                                   rtol=1e-9, atol=1e-9 * abs(traj.cost))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_csv_round_trip_is_bitwise(aq_problem, data):
    """Control, state and costate files reload to the last bit: control
    values and times, the grid's times and boundaries, the states with
    their re-evaluated derivatives, the costates and p0, on uniform and
    non-uniform partitions."""
    prob = aq_problem
    T = prob.horizon
    N = data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):
        part = uniform_partition(N, T)
    else:
        gaps = np.cumsum(data.draw(st.lists(st.floats(0.05, 1.0),
                                            min_size=N, max_size=N)))
        part = Partition(np.concatenate([[0.0], T * gaps[:-1] / gaps[-1], [T]]))
    lo, up = prob.control_set.bounding_box()
    frac = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=N * prob.m,
                                       max_size=N * prob.m)))
    u = PiecewiseConstantControl(part, lo + frac.reshape(N, prob.m) * (up - lo))
    pT = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=prob.n,
                            max_size=prob.n))
    grid = build_time_grid(T, part, h_max=T / 64)
    x = integrate_state(prob, u, grid)
    p = integrate_costate(prob, x, u, p0=-1.0, pT=pT)
    with tempfile.TemporaryDirectory() as tmp:
        write_control_csv(os.path.join(tmp, "control.csv"), u)
        write_state_csv(os.path.join(tmp, "state.csv"), x)
        write_costate_csv(os.path.join(tmp, "costate.csv"), p)
        u_back = read_control_csv(os.path.join(tmp, "control.csv"))
        x_back = read_state_csv(os.path.join(tmp, "state.csv"), prob, u_back)
        t_back, p_back, p0_back = read_costate_csv(
            os.path.join(tmp, "costate.csv"))
    np.testing.assert_array_equal(u_back.partition.times, part.times)
    np.testing.assert_array_equal(u_back.values, u.values)
    np.testing.assert_array_equal(x_back.grid.times, grid.times)
    np.testing.assert_array_equal(x_back.grid.boundaries, grid.boundaries)
    np.testing.assert_array_equal(x_back.states, x.states)
    np.testing.assert_array_equal(x_back.deriv_right, x.deriv_right)
    np.testing.assert_array_equal(x_back.deriv_left[1:], x.deriv_left[1:])
    np.testing.assert_array_equal(t_back, grid.times)
    np.testing.assert_array_equal(p_back, p.costates)
    assert p0_back == p.p0


class TestCostateFromNodes:
    def test_midpoint_samples_match_marched_costate(self, aq_problem):
        """Derivatives differentiated from the nodes, one sampling
        interval at a time, give dense output as good as the march's."""
        T = aq_problem.horizon
        part = uniform_partition(32, T)
        grid = build_time_grid(T, part, h_max=T / 256)
        rng = np.random.default_rng(1)
        u = PiecewiseConstantControl(part, rng.uniform(-1, 1, size=(32, 1)))
        x = integrate_state(aq_problem, u, grid)
        p = integrate_costate(aq_problem, x, u, p0=-1.0, pT=[1.0, -0.5])
        mids = 0.5 * (grid.times[:-1] + grid.times[1:])
        q = costate_from_nodes(grid, p.costates, -1.0)
        np.testing.assert_allclose(q.sample(mids), p.sample(mids),
                                   rtol=0, atol=1e-11)


class TestTransitionMatrix:
    def test_constant_coefficient_matches_expm(self):
        A = np.array([[0.0, 1.0], [-2.0, -0.3]])
        prob = problem_from_callables(
            f=lambda x, u, t: A @ x, L=lambda x, u, t: 0.0,
            n=2, m=1, horizon=1.0, x0=[1.0, 0.0], xT=[0.0, 0.0],
            control_set=Box([-1.0], [1.0]))
        grid = build_time_grid(1.0, h_max=1.0 / 64.0)
        traj = integrate_state(prob, lambda t: np.array([0.0]), grid)
        Phi = transition_matrix(prob, traj, lambda t: np.array([0.0]))
        finals = Phi.at_final()
        np.testing.assert_allclose(finals[0], expm(A * 1.0), atol=1e-8)

    def test_duhamel_identity(self, aq_problem):
        """w(T) equals the transition-matrix integral of the control
        injection, quadrature on the grid."""
        part = uniform_partition(4, 1.0)
        grid = build_time_grid(1.0, part, h_max=1.0 / 128.0)
        rng = np.random.default_rng(11)
        u = PiecewiseConstantControl(part, rng.uniform(-1, 1, size=(4, 1)))
        v = PiecewiseConstantControl(part, rng.uniform(-1, 1, size=(4, 1)))
        traj = integrate_state(aq_problem, u, grid)
        var = integrate_variation(aq_problem, traj, u, v)
        Phi = transition_matrix(aq_problem, traj, u)
        finals = Phi.at_final()
        # integrand jumps at sampling times: quadrature interval by
        # interval with that interval's held control values
        from sampled_ocp.integrate import simpson_on_interval
        integral = np.zeros(aq_problem.n)
        for i in range(part.N):
            sl = grid.interval_slice(i)
            vals = np.empty((sl.stop - sl.start, aq_problem.n))
            for j, k in enumerate(range(sl.start, sl.stop)):
                ju = aq_problem.dynamics_jac_u(traj.states[k], u.values[i],
                                               float(grid.times[k]))
                vals[j] = finals[k] @ (ju @ v.values[i])
            h = float(grid.times[sl.start + 1] - grid.times[sl.start])
            integral += simpson_on_interval(vals, h)
        np.testing.assert_allclose(var.final_w, integral, atol=1e-6)


class TestLinearOdePerturbationStability:
    def test_shrinking_smooth_noise(self):
        """Solutions of a linear system with smoothly perturbed
        coefficients converge uniformly as the perturbation amplitude
        shrinks (fixed regression family)."""
        A0 = np.array([[0.0, 1.0], [-1.0, -0.2]])
        dA = np.array([[0.1, -0.3], [0.2, 0.4]])
        grid = build_time_grid(1.0, h_max=1.0 / 128.0)

        def solve_with(eps):
            prob = problem_from_callables(
                f=lambda x, u, t: (A0 + eps * np.sin(7.0 * t) * dA) @ x
                + np.array([0.0, np.cos(t)]),
                L=lambda x, u, t: 0.0, n=2, m=1, horizon=1.0,
                x0=[1.0, 0.5], xT=[0.0, 0.0], control_set=Box([-1.0], [1.0]))
            return integrate_state(prob, lambda t: np.array([0.0]), grid)

        base = solve_with(0.0)
        sups = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            pert = solve_with(eps)
            sups.append(np.max(np.abs(pert.states - base.states)))
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 0.2 * sups[0]


class TestZvIdentity:
    def test_terminal_pairing_equals_gradient_integral(self, di_problem):
        """<p(T), w(T)> + p0 w0(T) = int <grad_u H, v - u> dt whenever p
        solves the adjoint equation along (x, u)."""
        from sampled_ocp import grad_u_hamiltonian
        part = uniform_partition(4, 1.0)
        grid = build_time_grid(1.0, part, h_max=1.0 / 128.0)
        rng = np.random.default_rng(7)
        u = PiecewiseConstantControl(part, rng.uniform(-2, 2, size=(4, 1)))
        v = PiecewiseConstantControl(part, rng.uniform(-2, 2, size=(4, 1)))
        traj = integrate_state(di_problem, u, grid)
        p0 = -1.0
        p = integrate_costate(di_problem, traj, u, p0=p0,
                              pT=rng.normal(size=2))
        from sampled_ocp.integrate import ControlDifference
        var = integrate_variation(di_problem, traj, u, ControlDifference(v, u))
        lhs = float(p.final_costate @ var.final_w + p0 * var.final_w0)
        from sampled_ocp.integrate import simpson_on_interval
        rhs = 0.0
        for i in range(part.N):
            sl = grid.interval_slice(i)
            vals = np.empty((sl.stop - sl.start, 1))
            for j, k in enumerate(range(sl.start, sl.stop)):
                gu = grad_u_hamiltonian(di_problem, traj.states[k],
                                        u.values[i], p.costates[k], p0,
                                        float(grid.times[k]))
                vals[j, 0] = float(gu @ (v.values[i] - u.values[i]))
            h = float(grid.times[sl.start + 1] - grid.times[sl.start])
            rhs += float(simpson_on_interval(vals, h)[0])
        assert lhs == pytest.approx(rhs, abs=1e-6)


def _stage_case(kind):
    """(grid, control) on a grid of non-dyadic steps: a held control, a
    callable or the difference of two held controls."""
    part = Partition([0.0, 0.3, 0.7, 1.0])
    grid = build_time_grid(1.0, part, h_max=0.1)
    held = PiecewiseConstantControl(part, [[1.0], [-2.0], [0.5]])
    if kind == "held":
        return grid, held
    if kind == "callable":
        return grid, (lambda t: np.array([np.cos(3.0 * t)]))
    coarse = PiecewiseConstantControl(Partition([0.0, 0.7, 1.0]),
                                      [[0.25], [-1.5]])
    return grid, integrate.ControlDifference(held, coarse)


def _per_point_read(u, grid, k, t):
    """`u` on segment k at time t by the per-call rule the stage tables
    replace: a held control is its interval's value on the whole segment,
    a difference the difference of its parts, a callable its value."""
    if isinstance(u, integrate.ControlDifference):
        return _per_point_read(u.a, grid, k, t) - _per_point_read(u.b, grid,
                                                                  k, t)
    if isinstance(u, PiecewiseConstantControl):
        bounds = grid.boundaries_of(u.partition)
        return u.values[np.searchsorted(bounds, k, side="right") - 1]
    return np.atleast_1d(np.asarray(u(t), dtype=float))


class TestStageTables:
    """Every stage point of a path is read from one (K, 3, ...) table."""

    @pytest.mark.parametrize("kind", ["held", "callable", "difference"])
    def test_stage_times_are_the_forward_march_times(self, kind):
        """Without repeats, the times a forward march hands the dynamics
        are t_0, t_0 + h/2, t_1, ..., t_K: `stage_times`, bit for bit."""
        grid, u = _stage_case(kind)
        seen = []

        def f(x, v, t):
            seen.append(t)
            return np.zeros(1)
        integrate_state(_scalar_problem(f), u, grid)
        seen = np.array(seen)
        distinct = seen[np.r_[True, seen[1:] != seen[:-1]]]
        ts = grid.stage_times
        assert ts.shape == (grid.K, 3)
        np.testing.assert_array_equal(ts[:, 0], grid.times[:-1])
        np.testing.assert_array_equal(ts[:, 2], grid.times[1:])
        np.testing.assert_array_equal(distinct,
                                      np.append(ts[:, :2].ravel(), ts[-1, 2]))

    @pytest.mark.parametrize("kind", ["held", "callable", "difference"])
    def test_on_segments_is_the_per_point_rule(self, kind):
        """The (K, 3, m) table holds the per-call read at every stage
        point; a held control jumps only at its sampling times."""
        grid, u = _stage_case(kind)
        values, jumps = integrate._on_segments(u, grid)
        assert values.shape == (grid.K, 3, 1)
        np.testing.assert_array_equal(values, [
            [_per_point_read(u, grid, k, t) for t in grid.stage_times[k]]
            for k in range(grid.K)])
        if kind == "callable":
            assert jumps.size == 0
        else:
            assert set(jumps) >= set(grid.boundaries[1:-1])

    def test_held_control_keeps_its_segment_value_at_the_right_node(self):
        """On the segment that ends at a sampling time, stage 2 holds that
        segment's value, not the next interval's value at the node."""
        grid, u = _stage_case("held")
        values, _ = integrate._on_segments(u, grid)
        k = grid.boundaries[1] - 1
        np.testing.assert_array_equal(values[k, 2], u.values[0])
        np.testing.assert_array_equal(u.value(grid.times[k + 1:k + 2])[0],
                                      u.values[1])

    @pytest.mark.parametrize("name", ["dynamics_jac_x", "dynamics_jac_u",
                                      "cost_grad_x", "cost_grad_u"])
    @pytest.mark.parametrize("kind", ["held", "callable"])
    def test_table_is_the_evaluator_at_every_stage_point(self, aq_problem,
                                                         name, kind):
        """`table(name)` is a (K, 3, ...) array of the evaluator at node
        k, the closed-form Hermite midpoint and node k+1 of every segment,
        under that segment's control and at `stage_times`."""
        grid, u = _stage_case(kind)
        x = integrate_state(aq_problem, u, grid)
        lin = integrate.Linearization(aq_problem, x, u)
        table = lin.table(name)
        d = getattr(aq_problem, name)
        stages = x.path.stages()
        np.testing.assert_array_equal(stages[:, 0], x.states[:-1])
        np.testing.assert_array_equal(stages[:, 2], x.states[1:])
        np.testing.assert_allclose(stages[:, 1],
                                   x.sample(grid.stage_times[:, 1]),
                                   rtol=0, atol=1e-14)
        controls, _ = integrate._on_segments(u, grid)
        np.testing.assert_array_equal(lin.stage_controls, controls)
        expected = np.array([[d(stages[k, j], controls[k, j],
                                grid.stage_times[k, j]) for j in range(3)]
                             for k in range(grid.K)])
        assert table.shape == (grid.K, 3) + np.shape(expected[0, 0])
        np.testing.assert_array_equal(table, expected)
        assert lin.table(name) is table
