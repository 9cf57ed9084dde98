import re

import numpy as np
import pytest
from scipy.integrate import quad

from impulsegame import (
    CoefficientPath,
    DegenerateParameterError,
    NonFiniteStateError,
    RiccatiConstants,
    a_x,
    constants,
    p1_closed_form,
    p2_closed_form,
    solve_backward,
)
from impulsegame.verify import difference_slopes

from conftest import BASELINE, defining_rates, n1_reference, q1_reference, variant


def rk4_terminal_value(rhs, y_terminal, t_grid):
    """Independent RK4 oracle: integrate dy/dt = rhs(t, y) backward from t_grid[-1].

    The library integrates no ODE, so the closed forms are checked
    through a second, independent route.
    """
    out = np.empty(len(t_grid))
    y = float(y_terminal)
    out[-1] = y
    for i in range(len(t_grid) - 1, 0, -1):
        h = t_grid[i] - t_grid[i - 1]
        t = t_grid[i]
        k1 = rhs(t, y)
        k2 = rhs(t - h / 2, y - h / 2 * k1)
        k3 = rhs(t - h / 2, y - h / 2 * k2)
        k4 = rhs(t - h, y - h * k3)
        y = y - h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i - 1] = y
    return out


def seed_backward_rk4(params, q1, n_steps=4096):
    """The original backward solve of q2 and n2, kept as a reference: one RK4
    step of the two-component system per loop pass, stages evaluated
    numerically, with q1 taken from the function ``q1`` at every stage."""
    consts = constants(params)
    ts = np.linspace(0.0, params.T, n_steps + 1)
    h = params.T / n_steps
    w2, rho2 = params.w2, params.rho2
    b_x = consts.b_x
    q1_nodes, q1_mids = q1(ts), q1(ts[1:] - 0.5 * h)

    def rhs(t, y, q1v):
        q2v, n2v = y
        axv = a_x(consts, t)
        p2v = p2_closed_form(consts, params, t)
        return np.array([
            -axv * q2v - b_x * p2v * q1v + w2 * rho2,
            -b_x * q1v * q2v - 0.5 * w2 * rho2 ** 2,
        ])

    y = np.array([-params.s2 * rho2, 0.5 * params.s2 * rho2 ** 2])
    out = np.empty((n_steps + 1, 2))
    out[n_steps] = y
    for i in range(n_steps, 0, -1):
        t = ts[i]
        k1 = rhs(t, y, q1_nodes[i])
        k2 = rhs(t - 0.5 * h, y - 0.5 * h * k1, q1_mids[i - 1])
        k3 = rhs(t - 0.5 * h, y - 0.5 * h * k2, q1_mids[i - 1])
        k4 = rhs(t - h, y - h * k3, q1_nodes[i - 1])
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i - 1] = y
    return out


@pytest.mark.parametrize("params", [BASELINE, variant(w2=1.0)], ids=["table1", "table1_w2_1"])
def test_affine_solve_matches_stagewise_reference(params):
    # q1 against DOP853 and n1 against quad of its rate; q2 and n2, forced
    # by that q1, against the stage-wise RK4 reference, which is as
    # accurate as the quadrature at T=1 (tests/test_closed_forms.py checks
    # q2 and n2 at long horizons)
    path = solve_backward(params)
    q1 = q1_reference(params)
    np.testing.assert_allclose(path.q1, q1(path.time_grid), rtol=1e-12, atol=0.0, err_msg="q1")
    for k in (0, 2048, 4095):
        np.testing.assert_allclose(path.n1[k], n1_reference(params, float(path.time_grid[k])),
                                   rtol=1e-12, atol=0.0, err_msg=f"n1 at node {k}")
    ref = seed_backward_rk4(params, q1)
    for j, name in enumerate(("q2", "n2")):
        np.testing.assert_allclose(getattr(path, name), ref[:, j], rtol=1e-12, atol=0.0,
                                   err_msg=name)


def test_overflowing_p2_reported_at_first_node():
    # theta*T = 360: p2's closed form overflows next to the horizon, and the
    # first backward step already carries the non-finite forcing
    with pytest.raises(NonFiniteStateError, match="coefficient integration diverged at node 4095"):
        with np.errstate(over="ignore", invalid="ignore"):
            solve_backward(variant(b=-30.0, T=6.0))


def test_constants_baseline(consts):
    # theta = 2*sqrt(a^2 + w1*b^2/r1) evaluated directly
    assert consts.theta == pytest.approx(2.0 * np.sqrt(0.01 + 0.09), rel=1e-12)
    assert consts.c1 == pytest.approx(0.5660, abs=5e-4)
    assert consts.b_x == pytest.approx(-0.09, rel=1e-14)


@pytest.mark.parametrize("overrides", [{}, {"a": -0.7}, {"b": 2.0, "r1": 0.3}, {"w1": 0.05}])
def test_theta_through_b_x(overrides):
    # the same rate written through the closed loop's control gain
    p = variant(**overrides)
    cs = constants(p)
    assert cs.b_x == -p.b * p.b / p.r1
    assert cs.theta == pytest.approx(2.0 * np.sqrt(p.a * p.a - p.w1 * cs.b_x), rel=1e-12)


def test_c1_collapses_when_s1_matches_drift():
    # s1 = a*r1/b^2 makes the fraction inside c1 equal 2, so c1 = e^(-theta*T)
    p = variant(s1=BASELINE.a * BASELINE.r1 / BASELINE.b ** 2)
    cs = constants(p)
    assert cs.c1 == pytest.approx(np.exp(-cs.theta * p.T), rel=1e-12)


def test_degenerate_divisor_raises():
    # b = 0 with a > 0 makes theta + 2*(b^2/r1)*s1 - 2*a vanish
    with pytest.raises(DegenerateParameterError):
        constants(variant(b=0.0))


@pytest.mark.parametrize("overrides, message", [
    # a*a and b*b underflow, so theta = 2*sqrt(a^2 + w1*b^2/r1) is 0
    ({"a": 1e-200, "b": 1e-200}, "theta = 0: control has no authority"),
    # with a < 0 the divisor stays 0.4, but p1 = (a_x - a)/b_x has no b_x
    ({"a": -0.1, "b": 0.0}, "b = 0: p1 closed form undefined"),
], ids=["theta_zero", "b_zero"])
def test_degenerate_parameters_name_their_cause(overrides, message):
    with pytest.raises(DegenerateParameterError, match=f"^{re.escape(message)}$"):
        solve_backward(variant(**overrides))


@pytest.mark.parametrize("t", [0.0, 0, np.float64(0.0), np.array(0.0), np.array([0.0]),
                               np.array([0.5, 0.0])])
def test_vanishing_denominator_raises_for_float_and_array(t):
    # c1 = -1 makes c1*e^(theta*t) + 1 vanish at t = 0; the float path
    # must keep the zero check the array path has
    consts = RiccatiConstants(theta=1.0, c1=-1.0, h_const=0.0, b_x=-0.09, k1=0.0)
    with pytest.raises(DegenerateParameterError):
        a_x(consts, t)


def test_p1_terminal_condition(consts, params):
    assert p1_closed_form(consts, params, params.T) == pytest.approx(params.s1, rel=1e-12)


def test_p2_terminal_condition(consts, params):
    assert p2_closed_form(consts, params, params.T) == pytest.approx(params.s2, rel=1e-12)


def test_p1_matches_rk4_oracle(consts, params):
    # independent backward integration of the quadratic-coefficient equation
    b_x, a, w1 = consts.b_x, params.a, params.w1
    grid = np.linspace(0.0, params.T, 10001)  # step 1e-4
    oracle = rk4_terminal_value(
        lambda t, p1: -w1 - b_x * p1 * p1 - 2.0 * a * p1, params.s1, grid
    )
    closed = p1_closed_form(consts, params, grid)
    assert np.max(np.abs(closed - oracle)) < 1e-8


def test_p2_matches_rk4_oracle(consts, params):
    grid = np.linspace(0.0, params.T, 10001)
    oracle = rk4_terminal_value(
        lambda t, p2: -params.w2 - 2.0 * p2 * a_x(consts, t), params.s2, grid
    )
    closed = p2_closed_form(consts, params, grid)
    assert np.max(np.abs(closed - oracle)) < 1e-8


def test_p1_finite_difference_residual(consts, params):
    # central differences of the closed form must satisfy its defining equation
    ts = np.linspace(0.01, params.T - 0.01, 97)
    h = 1e-5
    p1 = p1_closed_form(consts, params, ts)
    dp1 = (p1_closed_form(consts, params, ts + h)
           - p1_closed_form(consts, params, ts - h)) / (2 * h)
    residual = dp1 + params.w1 + consts.b_x * p1 * p1 + 2.0 * params.a * p1
    assert np.max(np.abs(residual)) < 1e-6


def test_p2_positive_on_grid(path):
    assert np.all(path.p2 > 0.0)


def test_a_x_identity_with_p1(consts, params):
    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, params.T, size=100)
    lhs = params.a + consts.b_x * p1_closed_form(consts, params, ts)
    assert np.max(np.abs(lhs - a_x(consts, ts))) < 1e-14


def test_a_x_terminal_value(consts, params):
    # a + b_x*s1 at the horizon
    assert a_x(consts, params.T) == pytest.approx(0.1 - 0.09, rel=1e-12)


def test_a_x_consistent_in_collapsed_case():
    p = variant(s1=BASELINE.a * BASELINE.r1 / BASELINE.b ** 2)
    cs = constants(p)
    # with c1 = e^(-theta*T) the terminal p1 reproduces s1 = a*r1/b^2
    assert p1_closed_form(cs, p, p.T) == pytest.approx(p.s1, rel=1e-12)
    assert a_x(cs, p.T) == pytest.approx(p.a + cs.b_x * p.s1, rel=1e-12)


def test_terminal_conditions_exact(path, params):
    assert path.p1[-1] == pytest.approx(params.s1, rel=1e-12)
    assert path.q1[-1] == -params.s1 * params.rho1
    assert path.n1[-1] == 0.5 * params.s1 * params.rho1 ** 2
    assert path.p2[-1] == pytest.approx(params.s2, rel=1e-12)
    assert path.q2[-1] == -params.s2 * params.rho2
    assert path.n2[-1] == 0.5 * params.s2 * params.rho2 ** 2


def test_zero_target_zeroes_q1_n1():
    p = variant(rho1=0.0)
    path = solve_backward(p, n_steps=512)
    assert np.max(np.abs(path.q1)) == 0.0
    assert np.max(np.abs(path.n1)) == 0.0


def test_q2_and_n2_quadrature_is_sixth_order():
    # Three Gauss points per cell make q2 and n2 sixth order: halving the
    # step divides the change at the coarse nodes by about 2^6, where the
    # midpoint rule gives 4 and Simpson's 16.  T=20 on 32 to 128 cells is
    # coarse enough for the change to stand above rounding.
    steps = (32, 64, 128)
    paths = [solve_backward(variant(T=20.0), n_steps=n) for n in steps]
    for name in ("q2", "n2"):
        coarse = [getattr(pth, name)[::n // steps[0]] for pth, n in zip(paths, steps)]
        ratio = np.max(np.abs(coarse[0] - coarse[1])) / np.max(np.abs(coarse[1] - coarse[2]))
        assert 64.0 * 0.8 <= ratio <= 64.0 * 1.25, (name, ratio)


def test_q1_matches_integrating_factor_oracle(path, consts, params):
    # q1' = -a_x q1 + w1 rho1 solved through its integrating factor, with
    # the exponent and the forcing integral evaluated by adaptive quadrature
    def exponent(t):
        val, _ = quad(lambda s: a_x(consts, s), 0.0, t, epsabs=1e-13, epsrel=1e-13)
        return val

    eT = exponent(params.T)
    forcing, _ = quad(lambda s: np.exp(exponent(s)), 0.0, params.T,
                      epsabs=1e-12, epsrel=1e-12)
    q1_terminal = -params.s1 * params.rho1
    q1_zero = q1_terminal * np.exp(eT) - params.w1 * params.rho1 * forcing
    assert abs(path.q1[0] - q1_zero) < 1e-7


def test_central_difference_residuals_all_paths():
    path = solve_backward(BASELINE, n_steps=10_000)
    ts = path.time_grid
    h = ts[1] - ts[0]
    arrays = {
        "p1": path.p1, "q1": path.q1, "n1": path.n1,
        "p2": path.p2, "q2": path.q2, "n2": path.n2,
    }
    inner = slice(1, -1)
    derivs = {k: (v[2:] - v[:-2]) / (2 * h) for k, v in arrays.items()}
    rhs = defining_rates(path, ts[inner])
    for got, expected, name in zip(
        (derivs["p1"], derivs["q1"], derivs["n1"],
         derivs["p2"], derivs["q2"], derivs["n2"]),
        rhs,
        ("p1", "q1", "n1", "p2", "q2", "n2"),
    ):
        assert np.max(np.abs(got - expected)) < 1e-5, name


def test_between_node_interpolation_tracks_fine_grid(path):
    fine = solve_backward(BASELINE, n_steps=8192)
    ts = np.linspace(0.013, 0.987, 41)
    assert np.max(np.abs(path.q1_at(ts) - fine.q1_at(ts))) < 1e-9
    assert np.max(np.abs(path.q2_at(ts) - fine.q2_at(ts))) < 1e-9


@pytest.mark.parametrize("params", [variant(T=200.0), variant(w2=1.0, T=400.0)],
                         ids=["table1_T200", "table1_w2_1_T400"])
def test_quadratics_at_is_exact_between_nodes(params):
    # at the nodes the partial cell is empty: the node values bit for bit;
    # between them, the cell midpoints against a grid eight times finer,
    # where q2 and n2 are nodes.  Measured: q2 2.6e-15 / 1.0e-14 and n2
    # 1.3e-14 / 6.1e-15; the cubic Hermite interpolant is off by
    # 1.4e-9 / 2.4e-8 in q2 there.
    path = solve_backward(params)
    fine = solve_backward(params, n_steps=8 * 4096)
    nodes = ("p1", "q1", "n1", "p2", "q2", "n2")
    for name, got in zip(nodes, path.quadratics_at(path.time_grid)):
        assert got.tobytes() == getattr(path, name).tobytes(), name
    mids = fine.time_grid[4::8]
    for name, got in zip(nodes, path.quadratics_at(mids)):
        want = getattr(fine, name)[4::8]
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert rel <= 5e-14, (name, rel)


def test_solve_backward_rejects_tiny_grid():
    with pytest.raises(ValueError):
        solve_backward(BASELINE, n_steps=1)


def _node_path(ts, q1, n1, q2, n2):
    zeros = np.zeros_like(ts)
    return CoefficientPath(time_grid=ts, p1=zeros.copy(), q1=q1, n1=n1, p2=zeros.copy(),
                           q2=q2, n2=n2, ax_vals=zeros.copy(),
                           consts=constants(BASELINE), params=BASELINE)


def test_difference_slopes_exact_on_quartics():
    # the fourth-order stencils, central and one-sided at both ends, are
    # exact for polynomials of degree four
    ts = np.linspace(0.5, 2.5, 9)
    coefs = ([1.0, -2.0, 3.0, -0.5, 0.25], [0.0, 1.0, 0.0, 0.0, -1.0],
             [2.0, 0.0, -1.0, 1.0, 0.0], [-1.0, 0.5, 0.5, 0.0, 0.125])
    polys = [np.polynomial.Polynomial(c) for c in coefs]
    slopes = difference_slopes(_node_path(ts, *(poly(ts) for poly in polys)))
    for got, poly in zip(slopes, polys):
        np.testing.assert_allclose(got, poly.deriv()(ts), rtol=1e-12, atol=1e-12)


def test_difference_slopes_need_five_nodes():
    ts = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="at least 5 nodes"):
        difference_slopes(_node_path(ts, ts.copy(), ts.copy(), ts.copy(), ts.copy()))
