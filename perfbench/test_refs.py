"""Fast tests of the benchmark's references on cases solvable by hand.

    python3 -m pytest -q perfbench/test_refs.py
"""

import numpy as np
import pytest

import refs


def test_zoh_blocks_integrator():
    # x' = u, L = (x^2 + u^2)/2 over h: x(s) = x + s u, so
    # int (x + s u)^2 ds = h x^2 + h^2 x u + h^3 u^2 / 3.
    h = 0.3
    E, F, S = refs.zoh_blocks([[0.0]], [[1.0]], [[1.0]], [[1.0]], h)
    np.testing.assert_allclose(E, [[1.0]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(F, [[h]], rtol=0, atol=1e-15)
    want = [[h, h * h / 2], [h * h / 2, h ** 3 / 3 + h]]
    np.testing.assert_allclose(S, want, rtol=0, atol=1e-14)


def test_sampled_lq_minimum_energy():
    # x' = u from 1 to 0 in unit time at least energy: u = -1, cost 1/2.
    q = refs.SampledLq([[0.0]], [[1.0]], [[0.0]], [[1.0]], [1.0], [0.0],
                       1.0, 4)
    u, cost = q.solve()
    assert u == pytest.approx(-np.ones((4, 1)), abs=1e-12)
    assert cost == pytest.approx(0.5, abs=1e-12)


def test_sampled_lq_active_bound():
    # A heavy state weight front-loads the control; clamping the first
    # interval at -1.5 leaves u_1 = -2 - u_0 = -0.5 by the endpoint.
    q = refs.SampledLq([[0.0]], [[1.0]], [[10.0]], [[1.0]], [1.0], [0.0],
                       1.0, 2)
    assert q.solve()[0][0, 0] < -1.5
    u, _ = q.solve_bounded(-1.5, 1.5)
    assert u == pytest.approx(np.array([[-1.5], [-0.5]]), abs=1e-10)


def test_permanent_rest_to_rest_double_integrator():
    # x'' = u from (1, 0) to (0, 0) in unit time: x = 1 - 3t^2 + 2t^3,
    # u = -6 + 12t, cost int u^2 / 2 = 6.
    cost, sol = refs.permanent_lq([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                                  np.zeros((2, 2)), [[1.0]], [1.0, 0.0],
                                  [0.0, 0.0], 1.0)
    assert cost == pytest.approx(6.0, abs=1e-9)
    t = 0.3
    assert sol.sol(t)[0] == pytest.approx(1 - 3 * t * t + 2 * t ** 3,
                                          abs=1e-9)


def test_reintegrate_piecewise_constant():
    # x'' = u with u = +1 then -1 from rest: x(1) = 1/4, v(1) = 0, and the
    # energy int u^2 / 2 = 1/2.
    def rhs(t, y, u):
        return [y[1], u, 0.5 * u * u]
    xT, cost = refs.reintegrate(rhs, [0.0, 0.0], [0.0, 0.5, 1.0], [1.0, -1.0])
    assert xT == pytest.approx([0.25, 0.0], abs=1e-11)
    assert cost == pytest.approx(0.5, abs=1e-11)


def test_affine_quadratic_rhs_at_rest():
    rhs = refs.affine_quadratic_rhs()
    assert rhs(0.0, [0.0, 0.0], 2.0) == pytest.approx([0.0, 2.6, 2.0])


def test_cubic_gap():
    assert refs.cubic_gap(1001) == pytest.approx(0.997, abs=1e-15)
    assert refs.cubic_gap(101) == pytest.approx(0.97, abs=1e-15)
