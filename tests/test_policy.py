import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from impulsegame import (
    ConvexityViolation,
    OrderingViolation,
    a_x,
    admissibility_check,
    build_policy,
    gamma_star,
    make_rollout_hook,
    qvi_check,
    rollout,
    value_v2,
)
from impulsegame.policy import _check_ordering, phi2, reset

from conftest import BASELINE

# frozen reference thresholds at t = 0 for the two shipped scenarios
BASE_T0 = (3.3822, 4.5111, 5.5731, 7.0305)
W2_1_T0 = (2.0468, 3.8380, 6.5116, 8.8240)


def test_thresholds_match_baseline_reference(policy):
    got = policy.thresholds_at(0.0)
    for g, want in zip(got, BASE_T0):
        assert g == pytest.approx(want, abs=1e-2)


def test_thresholds_match_low_weight_reference(policy_w2_1):
    got = policy_w2_1.thresholds_at(0.0)
    for g, want in zip(got, W2_1_T0):
        assert g == pytest.approx(want, abs=1e-2)


def test_alpha_formula_on_synthetic_node():
    # p2 = 1 and q2 = -c put the lower reset target exactly at zero
    stub = SimpleNamespace(
        time_grid=np.array([0.0, 1.0]),
        p2=np.array([1.0, 1.0]),
        q2=np.array([-BASELINE.c, -BASELINE.c]),
    )
    pol = build_policy(stub, BASELINE)
    assert pol.alpha[0] == pytest.approx(0.0, abs=1e-15)


def test_convexity_violation_reported_with_node():
    stub = SimpleNamespace(
        time_grid=np.array([0.0, 0.5, 1.0]),
        p2=np.array([1.0, -0.5, 1.0]),
        q2=np.zeros(3),
    )
    with pytest.raises(ConvexityViolation, match="node 1"):
        build_policy(stub, BASELINE)


def test_ordering_violation_reported_with_node():
    grid = np.array([0.0, 1.0])
    with pytest.raises(OrderingViolation, match="node 0"):
        _check_ordering(grid,
                        ell1=np.array([5.0, 0.0]),
                        alpha=np.array([4.0, 1.0]),
                        beta=np.array([6.0, 2.0]),
                        ell2=np.array([7.0, 3.0]))


def test_first_order_conditions_hold_at_every_node(path, policy, params):
    # the reset targets are stationary points of the jump objective
    scale = np.max(np.abs(path.q2))
    assert np.max(np.abs(path.p2 * policy.alpha + path.q2 + params.c)) < 1e-12 * scale
    assert np.max(np.abs(path.p2 * policy.beta + path.q2 - params.d)) < 1e-12 * scale


def test_value_matching_at_both_boundaries(path, policy, params):
    p2, q2 = path.p2, path.q2
    lhs1 = 0.5 * p2 * policy.ell1 ** 2 + q2 * policy.ell1
    rhs1 = (0.5 * p2 * policy.alpha ** 2 + q2 * policy.alpha
            + params.C + params.c * (policy.alpha - policy.ell1))
    assert np.max(np.abs(lhs1 - rhs1)) < 1e-9
    lhs2 = 0.5 * p2 * policy.ell2 ** 2 + q2 * policy.ell2
    rhs2 = (0.5 * p2 * policy.beta ** 2 + q2 * policy.beta
            + params.D + params.d * (policy.ell2 - policy.beta))
    assert np.max(np.abs(lhs2 - rhs2)) < 1e-9


def test_threshold_ordering_everywhere(policy):
    assert np.all(policy.ell1 < policy.alpha)
    assert np.all(policy.alpha < policy.beta)
    assert np.all(policy.beta < policy.ell2)


def test_gamma_star_zero_crossing(path, params):
    t = 0.3
    x = -path.q1_at(t) / path.p1_at(t)
    assert gamma_star(path, params, t, x) == pytest.approx(0.0, abs=1e-14)


def test_gamma_star_equivalent_forms(path, params, consts):
    # the same feedback written through the closed-loop gain:
    # u = ((a_x - a)*x + b_x*q1)/b
    rng = np.random.default_rng(11)
    for t, x in zip(rng.uniform(0, params.T, 50), rng.uniform(0, 10, 50)):
        direct = gamma_star(path, params, t, x)
        via_gain = ((a_x(path.constants, t) - params.a) * x
                    + consts.b_x * path.q1_at(t)) / params.b
        assert direct == pytest.approx(via_gain, rel=1e-12, abs=1e-12)
    assert gamma_star(path, params, 0.0, 5.0) == pytest.approx(
        -(params.b / params.r1) * (path.p1_at(0.0) * 5.0 + path.q1_at(0.0)), rel=1e-14
    )


def test_closed_loop_drift_identity(path, params, consts):
    rng = np.random.default_rng(13)
    ts = rng.uniform(0.0, params.T, 100)
    xs = rng.uniform(-5.0, 15.0, 100)
    for t, x in zip(ts, xs):
        lhs = params.a * x + params.b * gamma_star(path, params, t, x)
        rhs = a_x(path.constants, t) * x + consts.b_x * path.q1_at(t)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_impulse_map_baseline_cases(policy):
    assert reset(policy.thresholds_at(0.0), 5.0) is None
    target, xi = reset(policy.thresholds_at(0.0), 8.0)
    assert target == pytest.approx(5.5731, abs=1e-2)
    assert xi == pytest.approx(-2.4269, abs=1e-2)


def test_impulse_map_low_weight_case(policy_w2_1):
    target, xi = reset(policy_w2_1.thresholds_at(0.0), 1.0)
    assert target == pytest.approx(3.8380, abs=1e-2)
    assert xi == pytest.approx(2.8380, abs=1e-2)


def test_impulse_map_fires_on_the_boundary(policy):
    # the intervention set is closed: x exactly at ell1 triggers a jump
    ell1, alpha, _, _ = policy.thresholds_at(0.0)
    hit = reset(policy.thresholds_at(0.0), ell1)
    assert hit is not None
    assert hit[0] == pytest.approx(alpha, rel=1e-12)


@pytest.mark.parametrize("scenario", ["", "_w2_1"])
def test_every_module_puts_the_band_edges_in_the_intervention_set(scenario, request, box):
    # on ell1 and ell2 exactly the state is outside the band, one ulp
    # inside it is not; every module that decides must say the same
    path, policy, params = (request.getfixturevalue(f"{name}{scenario}")
                            for name in ("path", "policy", "params"))
    # value_v2 takes C and c below, D and d above from its params argument,
    # so shifting the fixed costs shows which branch it took
    marked = dataclasses.replace(params, C=params.C + 1e3, D=params.D + 2e3)
    for t in (0.0, 0.3, 0.5, 0.77):
        ell1, alpha, beta, ell2 = policy.thresholds_at(t)
        for x, side in ((ell1, "below"), (np.nextafter(ell1, np.inf), "interior"),
                        (ell2, "above"), (np.nextafter(ell2, -np.inf), "interior")):
            branch = round((value_v2(path, policy, marked, t, x) - float(phi2(path, t, x))) / 1e3)
            traj = rollout(path, policy, params, t, x)
            fired = bool(traj.events) and traj.events[0].tau == t
            assert policy.region(t, x) == side, (t, x)
            assert {0: "interior", 1: "below", 2: "above"}[branch] == side, (t, x)
            assert reset(policy.thresholds_at(t), x) == (None if side == "interior" else (
                (alpha, alpha - x) if side == "below" else (beta, beta - x))), (t, x)
            assert qvi_check(path, policy, params, t, x, box).region == side, (t, x)
            assert fired == (side != "interior"), (t, x)
            assert admissibility_check(traj, policy).ok, (t, x)


def test_value_v2_terminal_quadratic(path, policy, params):
    xs = np.linspace(4.0, 6.5, 11)  # interior at t = T
    got = value_v2(path, policy, params, params.T, xs)
    assert np.allclose(got, 0.5 * params.s2 * (xs - params.rho2) ** 2, rtol=1e-10)


def test_value_v2_continuous_at_boundaries(path, policy, params):
    eps = 1e-11
    for t in (0.0, 0.4, 0.9):
        ell1, _, _, ell2 = policy.thresholds_at(t)
        for edge in (ell1, ell2):
            lo = value_v2(path, policy, params, t, edge - eps)
            hi = value_v2(path, policy, params, t, edge + eps)
            assert abs(lo - hi) < 1e-9


def test_value_v2_linear_slopes_outside(path, policy, params):
    ell1, _, _, ell2 = policy.thresholds_at(0.0)
    xs = np.linspace(0.0, ell1 - 0.1, 7)
    vals = value_v2(path, policy, params, 0.0, xs)
    slopes = np.diff(vals) / np.diff(xs)
    assert np.allclose(slopes, -params.c, rtol=1e-12)
    xs = np.linspace(ell2 + 0.1, 10.0, 7)
    vals = value_v2(path, policy, params, 0.0, xs)
    slopes = np.diff(vals) / np.diff(xs)
    assert np.allclose(slopes, params.d, rtol=1e-12)


def test_value_v2_interior_slope_at_targets(path, policy, params):
    # interior derivative p2*x + q2 equals -c at alpha and d at beta
    for t in (0.0, 0.5, 1.0):
        _, alpha, beta, _ = policy.thresholds_at(t)
        p2, q2 = path.p2_at(t), path.q2_at(t)
        assert p2 * alpha + q2 == pytest.approx(-params.c, abs=1e-10)
        assert p2 * beta + q2 == pytest.approx(params.d, abs=1e-10)


def test_brute_force_jump_target_matches_impulse_map(path, policy, params):
    # dense minimization over jump sizes recovers the policy's reset targets
    from impulsegame import intervention_cost

    t = 0.25
    ell1, alpha, beta, ell2 = policy.thresholds_at(t)
    targets = np.linspace(0.0, 10.0, 10001)
    v2_targets = value_v2(path, policy, params, t, targets)
    for x in (ell1 - 0.8, ell2 + 0.8):
        total = v2_targets + intervention_cost(params, targets - x)
        best = targets[np.argmin(total)]
        expected = reset(policy.thresholds_at(t), x)[0]
        assert best == pytest.approx(expected, abs=2e-3)


def test_value_v1_terminal_quadratic(path, policy, params):
    hook = make_rollout_hook(path, policy, params)
    for x in (1.0, 5.0, 9.0):
        got = hook(params.T, x).j1
        assert got == pytest.approx(0.5 * params.s1 * (x - params.rho1) ** 2, rel=1e-12)


def test_value_v1_jumps_at_lower_boundary(path, policy, params):
    hook = make_rollout_hook(path, policy, params)
    ell1, alpha, _, _ = policy.thresholds_at(0.0)
    eps = 1e-6
    inside = hook(0.0, ell1 + eps).j1
    outside = hook(0.0, ell1 - eps).j1
    # the jump is the impulse cost z1*(alpha - ell1), far above interpolation noise
    assert outside - inside > 0.5 * params.z1 * (alpha - ell1)


def test_value_v1_jump_condition_against_reset_point(path, policy, params):
    hook = make_rollout_hook(path, policy, params)
    ell1, alpha, _, _ = policy.thresholds_at(0.0)
    x = ell1 - 1e-4
    lhs = hook(0.0, x).j1
    rhs = hook(0.0, alpha).j1 + params.z1 * (alpha - x)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_interior_quadratic_matches_value_between_jumps(path, policy, params):
    # on a jump-free rollout, v2 equals its interior quadratic along the path
    hook = make_rollout_hook(path, policy, params)
    traj = hook(0.0, 5.0)
    assert not traj.events
    for t in (0.2, 0.6, 0.95):
        x = traj.state_at(t)
        assert value_v2(path, policy, params, t, x) == pytest.approx(
            float(phi2(path, t, x)), rel=1e-12
        )
