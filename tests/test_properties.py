"""Seeded random-parameter sweep of invariants that hold for any valid model.

Certification of the equilibrium is parameter-dependent and not asserted
here; these are the structural identities the construction guarantees
whenever the inputs validate.
"""

import numpy as np
import pytest

from impulsegame import (
    GameParams,
    admissibility_check,
    build_policy,
    constants,
    impulse_bound,
    rollout,
    solve_backward,
    validate,
    value_v2,
    StateBox,
)


def random_params(rng):
    b = rng.uniform(0.05, 1.0) * rng.choice([-1.0, 1.0])
    return GameParams(
        a=rng.uniform(-1.0, 1.0),
        b=b,
        w1=rng.uniform(0.1, 5.0),
        r1=rng.uniform(0.1, 5.0),
        z1=rng.uniform(0.1, 4.0),
        s1=rng.uniform(0.1, 5.0),
        rho1=rng.uniform(-3.0, 8.0),
        w2=rng.uniform(0.1, 5.0),
        s2=rng.uniform(0.1, 5.0),
        rho2=rng.uniform(-3.0, 8.0),
        C=rng.uniform(0.2, 6.0),
        D=rng.uniform(0.2, 6.0),
        c=rng.uniform(0.2, 6.0),
        d=rng.uniform(0.2, 6.0),
        T=rng.uniform(0.3, 2.0),
    )


@pytest.mark.parametrize("seed", range(20))
def test_structural_invariants_hold_for_random_models(seed):
    rng = np.random.default_rng(1000 + seed)
    params = validate(random_params(rng))
    consts = constants(params)
    path = solve_backward(params, n_steps=1024)
    policy = build_policy(path, params)
    ts = path.time_grid

    # terminal conditions
    assert path.p1[-1] == pytest.approx(params.s1, rel=1e-10)
    assert path.p2[-1] == pytest.approx(params.s2, rel=1e-10)
    assert path.q1[-1] == -params.s1 * params.rho1
    assert path.q2[-1] == -params.s2 * params.rho2

    # p2 positive, ordering strict, closed-loop gain identity
    assert np.all(path.p2 > 0.0)
    assert np.all(policy.ell1 < policy.alpha)
    assert np.all(policy.alpha < policy.beta)
    assert np.all(policy.beta < policy.ell2)
    assert np.max(np.abs(params.a + consts.b_x * path.p1 - path.a_x)) < 1e-12

    # stationarity of the reset targets and value matching at both edges
    scale = 1.0 + np.max(np.abs(path.q2))
    assert np.max(np.abs(path.p2 * policy.alpha + path.q2 + params.c)) < 1e-10 * scale
    assert np.max(np.abs(path.p2 * policy.beta + path.q2 - params.d)) < 1e-10 * scale
    lhs = 0.5 * path.p2 * policy.ell1 ** 2 + path.q2 * policy.ell1
    rhs = (0.5 * path.p2 * policy.alpha ** 2 + path.q2 * policy.alpha
           + params.C + params.c * (policy.alpha - policy.ell1))
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale

    # value function continuous across both moving boundaries; the band
    # and the interior quadratic come from the same p2(t), q2(t) at any
    # time, so between grid nodes the mismatch is rounding alone
    for t in (0.0, 0.5 * params.T, 0.9 * params.T):
        ell1, _, _, ell2 = policy.thresholds_at(t)
        for edge in (ell1, ell2):
            lo = value_v2(path, policy, params, t, edge - 1e-10)
            hi = value_v2(path, policy, params, t, edge + 1e-10)
            assert abs(lo - hi) < 1e-8 * scale

    # rollouts from inside, below and above are admissible and bounded
    ell1_0, alpha_0, beta_0, ell2_0 = policy.thresholds_at(0.0)
    span = ell2_0 - ell1_0
    box = StateBox(min(ell1_0 - span, -1.0), max(ell2_0 + span, 1.0))
    cap = impulse_bound(params, box)
    for x0 in (0.5 * (alpha_0 + beta_0), ell1_0 - 0.5 * span, ell2_0 + 0.5 * span):
        traj = rollout(path, policy, params, 0.0, float(x0), step=params.T / 1024)
        report = admissibility_check(traj, policy)
        assert report.ok, report.violations
        assert len(traj.events) <= cap
        assert np.isfinite(traj.j1) and np.isfinite(traj.j2)
        assert traj.j2 >= 0.0  # all of Player 2's cost terms are nonnegative
