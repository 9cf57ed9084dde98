"""Closed forms and quadratures against independent integrators.

q1 comes from scipy's DOP853 (:func:`conftest.q1_reference`), n1 from
``quad`` of its defining rate on that q1, Player 2's q2 and n2 from DOP853
on their defining equations forced by that q1, and the closed loop
between interventions from DOP853 on ``xdot = a_x*x + b_x*q1``.  At T=200
and T=400 an RK4 path with 4096 steps is off by 6e-12 to 1e-8 here, far
above these gates.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from impulsegame import a_x, build_policy, make_rollout_hook, p2_closed_form, solve_backward

from conftest import n1_reference, q1_reference, variant

SCENARIOS = {
    "table1_T1": variant(),
    "table1_T5": variant(T=5.0),
    "table1_T200": variant(T=200.0),
    "table1_w2_1_T400": variant(w2=1.0, T=400.0),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_n1_matches_quadrature_of_its_rate(name):
    p = SCENARIOS[name]
    path = solve_backward(p)
    for k in (0, 2048, 4095):
        want = n1_reference(p, float(path.time_grid[k]))
        assert abs(path.n1[k] - want) <= 1e-13 * abs(want), (k, path.n1[k], want)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_q2_and_n2_match_dop853(name):
    # both quadratures against DOP853 on the (q2, n2) system, backward from
    # the terminal conditions, relative to each reference's largest value
    p = SCENARIOS[name]
    path = solve_backward(p)
    consts, q1 = path.constants, q1_reference(p)
    b_x, w2, rho2 = consts.b_x, p.w2, p.rho2

    def rates(t, y):
        q2, _ = y
        forcing = b_x * p2_closed_form(consts, p, t) * q1(t)
        return [-a_x(consts, t) * q2 - forcing + w2 * rho2,
                -b_x * q1(t) * q2 - 0.5 * w2 * rho2 ** 2]

    nodes = [4095, 4000, 2048, 1024, 0]
    sol = solve_ivp(rates, (p.T, 0.0), [-p.s2 * rho2, 0.5 * p.s2 * rho2 ** 2],
                    method="DOP853", t_eval=path.time_grid[nodes],
                    rtol=1e-13, atol=1e-13, max_step=0.25)
    assert sol.success
    for got, want, label in zip((path.q2[nodes], path.n2[nodes]), sol.y, ("q2", "n2")):
        rel = np.abs(got - want) / np.max(np.abs(want))
        assert np.max(rel) <= 1e-13, (label, nodes[int(np.argmax(rel))], np.max(rel))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flow_matches_dop853_on_the_longest_event_free_segment(name):
    # the rollout's node states on its longest stretch between events,
    # against DOP853 from the stretch's first state
    p = SCENARIOS[name]
    path = solve_backward(p)
    hook = make_rollout_hook(path, build_policy(path, p), p)
    seg_t, seg_x = max((seg for x0 in (2.0, 5.0, 8.0) for seg in hook(0.0, x0).segments),
                       key=lambda seg: seg[0][-1] - seg[0][0])
    assert len(seg_t) >= 20
    consts, q1 = path.constants, q1_reference(p)
    sol = solve_ivp(lambda t, x: a_x(consts, t) * x + consts.b_x * q1(t),
                    (seg_t[0], seg_t[-1]), [seg_x[0]], method="DOP853", t_eval=seg_t,
                    rtol=1e-13, atol=1e-13, max_step=0.25)
    assert sol.success
    rel = np.abs(seg_x - sol.y[0]) / np.abs(sol.y[0])
    assert np.max(rel) <= 1e-12, (int(np.argmax(rel)), np.max(rel))
