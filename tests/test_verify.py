import numpy as np
import pytest

from impulsegame import (
    CoefficientPath,
    RegionError,
    StateBox,
    brute_force_rv2,
    build_policy,
    convexity_margin,
    constants,
    dp_oracle_v2,
    gamma_star,
    hjb1_residual,
    qvi_check,
    run_verification,
    solve_backward,
    sufficiency_margins,
    value_v2,
)
from impulsegame.model import intervention_cost
from impulsegame.verify import DpOracleResult, _min_jump, _phi_rates

from conftest import variant


def _shifted(path, name, slope=1e-3):
    """Copy of ``path`` with node array ``name`` plus slope*t, slopes untouched."""
    arrays = {k: getattr(path, k) for k in ("p1", "q1", "n1", "p2", "q2", "n2")}
    arrays[name] = arrays[name] + slope * path.time_grid
    return CoefficientPath(time_grid=path.time_grid, ax_vals=path.a_x,
                           consts=path.constants, params=path.params, **arrays)


def _failed(pth, params, box):
    report = run_verification(pth, build_policy(pth, params), params, box, nt=60, nx=60)
    return {c.name for c in report.conditions if not c.passed}


def test_hjb1_residual_small_on_interior_grid(path, policy, params):
    worst = 0.0
    for t in np.linspace(0.02, 0.98, 20):
        ell1, _, _, ell2 = policy.thresholds_at(t)
        for x in np.linspace(ell1 + 0.05, ell2 - 0.05, 20):
            worst = max(worst, abs(hjb1_residual(path, policy, params, t, x)))
    assert worst < 1e-6


def test_hjb1_residual_continuous_up_to_horizon(path, policy, params):
    # just inside the horizon the residual stays at integration-error level
    t = params.T - 1e-9
    ell1, _, _, ell2 = policy.thresholds_at(t)
    for x in np.linspace(ell1 + 0.1, ell2 - 0.1, 7):
        assert abs(hjb1_residual(path, policy, params, t, x)) < 1e-6


def test_hjb1_rejects_exterior_points(path, policy, params):
    ell1, _, _, _ = policy.thresholds_at(0.0)
    with pytest.raises(RegionError):
        hjb1_residual(path, policy, params, 0.0, ell1 - 0.5)


def test_hjb1_residual_sensitive_to_coefficient_error(path, params, box):
    # n1 + 1e-3*t no longer solves its defining equation; the residual's
    # time derivative comes from the stored nodes, so the check must fail
    assert "hjb1_interior_residual" in _failed(_shifted(path, "n1"), params, box)


def test_qvi_interior_equality_sensitive_to_coefficient_error(path, params, box):
    assert "qvi_interior_equality" in _failed(_shifted(path, "n2"), params, box)


def test_residual_sees_node_value_error_at_solver_nodes(path, params, box):
    # every 25th row of a 200-row grid falls on a solver node (n_steps=4096);
    # the residual there must see the 1e-3 error in n1's rate, not only the
    # rows between nodes
    shifted = _shifted(path, "n1")
    report = run_verification(shifted, build_policy(shifted, params), params, box,
                              nt=200, nx=60)
    assert np.all(np.isin(report.t_nodes[::25], path.time_grid))
    assert np.nanmax(np.abs(report.hjb1[::25])) >= 5e-4


@pytest.mark.parametrize("scenario", ["path", "path_w2_1"])
def test_phi_rates_match_defining_equations(scenario, request):
    # the central differences agree with the defining equations on the
    # solved paths, including at both ends of the horizon
    pth = request.getfixturevalue(scenario)
    t = np.linspace(0.0, pth.params.T, 41)[:, None]
    x = np.linspace(0.0, 10.0, 21)
    p1dot, q1dot, n1dot, p2dot, q2dot, n2dot = pth.ode_rhs_at(t)
    dphi1, dphi2 = _phi_rates(pth, t, x)
    assert np.max(np.abs(dphi1 - (0.5 * p1dot * x * x + q1dot * x + n1dot))) < 1e-6
    assert np.max(np.abs(dphi2 - (0.5 * p2dot * x * x + q2dot * x + n2dot))) < 1e-6


def test_qvi_interior_node(path, policy, params, box):
    sample = qvi_check(path, policy, params, 0.5, 5.0, box)
    assert sample.region == "interior"
    assert sample.gap < 0.0
    assert abs(sample.residual) < 1e-5


def test_qvi_exterior_node(path, policy, params, box):
    _, _, _, ell2 = policy.thresholds_at(0.5)
    resolution = 1e-3 * (box.x_hi - box.x_lo)
    sample = qvi_check(path, policy, params, 0.5, ell2 + 1.0, box)
    assert sample.region == "above"
    assert abs(sample.gap) < resolution * (params.c + params.d)
    assert sample.residual > -1e-5


def test_qvi_check_on_array_equals_scalar_loop(path, policy, params, box):
    xs = np.linspace(box.x_lo, box.x_hi, 23)
    for t in (0.0, 0.37, params.T):
        batch = qvi_check(path, policy, params, t, xs, box)
        for j, x in enumerate(xs):
            one = qvi_check(path, policy, params, t, float(x), box)
            assert (one.residual, one.gap, one.complementarity, one.region) == (
                batch.residual[j], batch.gap[j], batch.complementarity[j], batch.region[j])
    # a column of times evaluates the whole (t, x) grid in one call
    ts = np.r_[np.linspace(0.0, params.T, 21), 0.37]
    grid = qvi_check(path, policy, params, ts[:, None], xs, box)
    column = qvi_check(path, policy, params, ts[:, None], 4.8, box)
    for k, t in enumerate(ts):
        row = qvi_check(path, policy, params, float(t), xs, box)
        one = qvi_check(path, policy, params, float(t), 4.8, box)
        for name in ("residual", "gap", "complementarity", "region"):
            np.testing.assert_array_equal(getattr(grid, name)[k], getattr(row, name),
                                          err_msg=f"{name} at t={t}")
            assert getattr(column, name)[k, 0] == getattr(one, name), (name, t)


def test_sufficiency_margins_on_array_equals_scalar_loop(path, policy, params):
    ts = np.linspace(0.0, params.T, 31)
    batch = sufficiency_margins(path, policy, params, ts)
    for k, t in enumerate(ts):
        one = sufficiency_margins(path, policy, params, float(t))
        for name, value in vars(one).items():
            np.testing.assert_array_equal(value, getattr(batch, name)[k], err_msg=name)


def test_qvi_terminal_value_identity(path, policy, params):
    for x in (0.5, 4.8, 9.7):
        got = value_v2(path, policy, params, params.T, x)
        ell1, _, _, ell2 = policy.thresholds_at(params.T)
        if ell1 < x < ell2:
            assert got == pytest.approx(0.5 * params.s2 * (x - params.rho2) ** 2,
                                        rel=1e-12)


def test_sufficiency_margins_nonnegative_baseline(path, policy, params):
    for t in np.linspace(0.0, 1.0, 101):
        s = sufficiency_margins(path, policy, params, float(t))
        if s.alpha_applicable:
            assert s.margin_ell1 >= 0.0
        if s.beta_applicable:
            assert s.margin_ell2 >= 0.0
        assert s.theta_alpha >= 0.0  # lower condition applicable everywhere here


def test_sufficiency_root_zeroes_exterior_residual(path, policy, params):
    # where the discriminant is nonnegative, x11 is an exact root of the
    # below-region residual quadratic (x11 itself may sit above ell1; the
    # sufficient condition is precisely that it does)
    s = sufficiency_margins(path, policy, params, 0.0)
    assert s.alpha_applicable
    _, alpha, _, _ = policy.thresholds_at(0.0)
    _, dphi2_alpha = _phi_rates(path, 0.0, alpha)
    residual_below = (dphi2_alpha - params.c * params.a * s.x11
                      + 0.5 * params.w2 * (s.x11 - params.rho2) ** 2)
    assert abs(residual_below) < 1e-9


def test_sufficiency_inapplicable_reported_not_fabricated(path, policy, params):
    # at the baseline the upper discriminant is negative near t = 0
    s = sufficiency_margins(path, policy, params, 0.0)
    assert not s.beta_applicable
    assert np.isnan(s.x22)
    assert np.isinf(s.margin_ell2)


def test_sufficiency_collapse_without_drift():
    # with a = 0 the discriminant loses its ca-terms and
    # x11 = rho2 - sqrt(theta_alpha)/w2
    p = variant(a=0.0)
    path0 = solve_backward(p, n_steps=1024)
    pol0 = build_policy(path0, p)
    s = sufficiency_margins(path0, pol0, p, 0.3)
    _, alpha, _, _ = pol0.thresholds_at(0.3)
    _, dphi2 = _phi_rates(path0, 0.3, alpha)
    assert s.theta_alpha == pytest.approx(2.0 * p.w2 * (-dphi2), rel=1e-10)
    if s.alpha_applicable:
        assert s.x11 == pytest.approx(p.rho2 - np.sqrt(s.theta_alpha) / p.w2, rel=1e-10)


def test_small_fixed_cost_breaks_certification():
    # shrinking the upward fixed cost pulls ell1 onto the reset target and
    # the lower sufficient condition genuinely fails
    p = variant(C=1e-6)
    path_c = solve_backward(p, n_steps=1024)
    pol_c = build_policy(path_c, p)
    margins = [sufficiency_margins(path_c, pol_c, p, float(t)).margin_ell1
               for t in np.linspace(0.0, 1.0, 41)]
    assert min(m for m in margins if np.isfinite(m)) < 0.0
    report = run_verification(path_c, pol_c, p, StateBox(0.0, 10.0), nt=60, nx=60)
    assert not report.passed
    failed = {c.name for c in report.conditions if not c.passed}
    assert "band_margin_lower" in failed
    assert "qvi_residual_nonnegative" in failed


def test_failed_margin_predicts_residual_violation():
    # dual-route consistency: a negative lower margin means the residual
    # quadratic is negative strictly between its root and ell1, and the
    # grid check must find that strip too
    p = variant(a=-0.5)
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    s = sufficiency_margins(pth, pol, p, 0.0)
    assert s.alpha_applicable and s.margin_ell1 < 0.0
    ell1 = pol.thresholds_at(0.0)[0]
    probe_x = 0.5 * (s.x11 + ell1)  # inside the violating strip
    sample = qvi_check(pth, pol, p, 0.0, probe_x, StateBox(0.0, 10.0))
    assert sample.residual < -1e-3
    report = run_verification(pth, pol, p, StateBox(0.0, 10.0), nt=40, nx=40)
    failed = {c.name for c in report.conditions if not c.passed}
    assert {"band_margin_lower", "qvi_residual_nonnegative"} <= failed


def test_dp_oracle_low_weight_scenario(path_w2_1, policy_w2_1, params_w2_1):
    oracle = dp_oracle_v2(params_w2_1, path_w2_1, StateBox(0.0, 10.0), nt=200, nx=200)
    ell1, _, _, ell2 = policy_w2_1.thresholds_at(0.0)
    xs = oracle.x_grid
    exact = value_v2(path_w2_1, policy_w2_1, params_w2_1, 0.0, xs)
    interior = (xs > ell1) & (xs < ell2)
    assert np.max(np.abs(oracle.values[0] - exact)[interior]) < 5e-2
    lo, hi = oracle.continuation_bracket(0)
    cell = xs[1] - xs[0]
    assert abs(lo - ell1) <= 2 * cell
    assert abs(hi - ell2) <= 2 * cell


def test_convexity_margin_positive_and_sign_matched(path, consts, params):
    for t in (0.0, 0.5, 1.0):
        margin = convexity_margin(consts, params, t)
        assert margin > 0.0
        assert np.sign(margin) == np.sign(path.p2_at(t))


def test_convexity_margin_terminal_consistency(consts, params):
    # at the horizon p2 = s2 > 0, so the margin must be positive there
    assert convexity_margin(consts, params, params.T) > 0.0


def test_convexity_margin_affine_in_running_weight():
    ts = np.linspace(0.0, 1.0, 7)
    margins = []
    for w2 in (1.0, 2.0, 3.0):
        p = variant(w2=w2)
        margins.append(convexity_margin(constants(p), p, ts))
    first_diff = margins[1] - margins[0]
    second_diff = margins[2] - margins[1]
    assert np.allclose(first_diff, second_diff, rtol=1e-10)


def test_dp_oracle_matches_value_function(path, policy, params, box):
    oracle = dp_oracle_v2(params, path, box, nt=200, nx=200)
    ell1, _, _, ell2 = policy.thresholds_at(0.0)
    xs = oracle.x_grid
    exact = value_v2(path, policy, params, 0.0, xs)
    interior = (xs > ell1) & (xs < ell2)
    assert np.max(np.abs(oracle.values[0] - exact)[interior]) < 5e-2


def test_dp_oracle_brackets_boundaries(path, policy, params, box):
    oracle = dp_oracle_v2(params, path, box, nt=200, nx=200)
    ell1, _, _, ell2 = policy.thresholds_at(0.0)
    lo, hi = oracle.continuation_bracket(0)
    cell = oracle.x_grid[1] - oracle.x_grid[0]
    assert abs(lo - ell1) <= 2 * cell
    assert abs(hi - ell2) <= 2 * cell


def test_dp_oracle_never_intervenes_when_jumps_cannot_pay():
    # negligible state costs cannot recoup the fixed intervention cost
    p = variant(w2=1e-9, s2=1e-9)
    path_eps = solve_backward(p, n_steps=512)
    oracle = dp_oracle_v2(p, path_eps, StateBox(0.0, 10.0), nt=50, nx=50)
    assert not oracle.intervene.any()


def test_dp_oracle_rejects_tiny_grids(path, params, box):
    with pytest.raises(ValueError):
        dp_oracle_v2(params, path, box, nt=8, nx=200)


def test_run_verification_passes_both_scenarios(path, policy, params,
                                                path_w2_1, policy_w2_1,
                                                params_w2_1, box):
    for pth, pol, prm in ((path, policy, params),
                          (path_w2_1, policy_w2_1, params_w2_1)):
        report = run_verification(pth, pol, prm, box, nt=60, nx=60)
        assert report.passed, [c.name for c in report.conditions if not c.passed]


def test_report_flags_recomputable_from_stored_arrays(path, policy, params, box):
    # on a certified model and on one that fails two conditions
    p_bad = variant(C=1e-6)
    path_bad = solve_backward(p_bad, n_steps=1024)
    for pth, pol, prm in ((path, policy, params),
                          (path_bad, build_policy(path_bad, p_bad), p_bad)):
        r = run_verification(pth, pol, prm, box, nt=40, nx=40)
        tol = r.tolerances["residual_tol"]
        gap_tol = r.tolerances["gap_tol"]
        interior = r.region == "interior"
        comp_tol = np.max(np.abs(r.gap)) * tol + np.max(np.abs(r.qvi_residual)) * gap_tol
        expected = {
            "hjb1_interior_residual": np.max(np.abs(r.hjb1[interior])) <= tol,
            "qvi_residual_nonnegative": np.min(r.qvi_residual) >= -tol,
            "qvi_interior_equality": np.max(np.abs(r.qvi_residual[interior])) <= tol,
            "obstacle_gap": np.max(r.gap) <= gap_tol,
            "exterior_obstacle_equality": np.max(np.abs(r.gap[~interior])) <= gap_tol,
            "complementarity": np.max(np.abs(r.complementarity)) <= comp_tol,
            "band_margin_lower": np.min(r.margin_ell1) >= 0.0,
            "band_margin_upper": np.min(r.margin_ell2) >= 0.0,
            "convexity_margin": np.min(r.convexity_margin) > 0.0,
            "convexity_sign_agreement": np.all(np.sign(r.convexity_margin) == np.sign(r.p2)),
        }
        assert {c.name: c.passed for c in r.conditions} == \
            {name: bool(flag) for name, flag in expected.items()}


def test_drift_suppressed_outside_band_in_residual(path, policy, params, box):
    # the exterior residual uses drift a*x only; feeding the full closed-loop
    # drift there would change it by (dV2/dx)*b*gamma_star != 0
    t = 0.4
    _, _, _, ell2 = policy.thresholds_at(t)
    x = ell2 + 1.5
    sample = qvi_check(path, policy, params, t, x, box)
    u = gamma_star(path, params, t, x)
    assert abs(params.d * params.b * u) > 1e-3  # the suppressed term is not tiny
    _, _, beta, _ = policy.thresholds_at(t)
    _, dphi2_beta = _phi_rates(path, t, beta)
    manual = dphi2_beta + 0.5 * params.w2 * (x - params.rho2) ** 2 \
        + params.d * params.a * x
    assert sample.residual == pytest.approx(manual, rel=1e-12)


# Dense references: every target scored, as the operator and the oracle
# were first written.  The linear-time forms must reproduce them.

def _dense_rv2(path, policy, params, t, x, box):
    targets = np.linspace(box.x_lo, box.x_hi, 1001)
    v2_targets = value_v2(path, policy, params, t, targets)
    jump_cost = intervention_cost(params, targets[None, :] - x[:, None])
    return np.min(v2_targets[None, :] + jump_cost, axis=1)


def _dense_dp_oracle(params, path, box, nt, nx):
    xg = np.linspace(box.x_lo, box.x_hi, nx + 1)
    dt = params.T / nt
    dx = (box.x_hi - box.x_lo) / nx
    values = np.empty((nt + 1, nx + 1))
    intervene = np.zeros((nt + 1, nx + 1), dtype=bool)
    values[nt] = 0.5 * params.s2 * (xg - params.rho2) ** 2
    jump_cost = intervention_cost(params, xg[None, :] - xg[:, None])
    run_cost = dt * 0.5 * params.w2 * (xg - params.rho2) ** 2
    for k in range(nt - 1, -1, -1):
        t = k * dt
        v_next = values[k + 1]
        x_adv = xg + dt * (params.a * xg + params.b * gamma_star(path, params, t, xg))
        v_adv = np.interp(x_adv, xg, v_next)
        low = x_adv < xg[0]
        high = x_adv > xg[-1]
        if low.any():
            v_adv[low] = v_next[0] + (v_next[1] - v_next[0]) / dx * (x_adv[low] - xg[0])
        if high.any():
            v_adv[high] = v_next[-1] + (v_next[-1] - v_next[-2]) / dx * (x_adv[high] - xg[-1])
        cont = v_adv + run_cost
        jump = np.min(cont[None, :] + jump_cost, axis=1)
        values[k] = np.minimum(cont, jump)
        intervene[k] = jump < cont
    return DpOracleResult(t_grid=np.linspace(0.0, params.T, nt + 1), x_grid=xg,
                          values=values, intervene=intervene)


@pytest.mark.parametrize("scenario", ["", "_w2_1"])
def test_intervention_operator_equals_dense_minimum(scenario, request, box):
    pth, pol, prm = (request.getfixturevalue(name + scenario)
                     for name in ("path", "policy", "params"))
    xs = np.linspace(box.x_lo, box.x_hi, 201)
    ts = np.linspace(0.0, prm.T, 201)
    stacked = brute_force_rv2(pth, pol, prm, ts[:, None], xs, box)
    assert stacked.shape == (201, 201)
    for k, t in enumerate(ts):
        dense = _dense_rv2(pth, pol, prm, float(t), xs, box)
        np.testing.assert_array_equal(
            brute_force_rv2(pth, pol, prm, float(t), xs, box), dense, err_msg=f"t={t}")
        np.testing.assert_array_equal(stacked[k], dense, err_msg=f"stacked, t={t}")


@pytest.mark.parametrize("scenario", ["", "_w2_1"])
@pytest.mark.parametrize("n", [200, 400])
def test_dp_oracle_equals_dense_layers(scenario, n, request, box):
    pth, prm = (request.getfixturevalue(name + scenario) for name in ("path", "params"))
    fast = dp_oracle_v2(prm, pth, box, nt=n, nx=n)
    dense = _dense_dp_oracle(prm, pth, box, nt=n, nx=n)
    np.testing.assert_array_equal(fast.values, dense.values)
    np.testing.assert_array_equal(fast.intervene, dense.intervene)


def _dense_min_jump(params, targets, v, x):
    return np.min(v[None, :] + intervention_cost(params, targets[None, :] - x[:, None]),
                  axis=1)


@pytest.mark.parametrize("fixed", [(3.0, 5.0), (5.0, 3.0)], ids=["C<D", "C>D"])
def test_min_jump_matches_dense_on_random_cases(fixed):
    rng = np.random.default_rng(20240501)
    C, D = fixed
    for case in range(40):
        prm = variant(C=C, D=D, c=rng.uniform(0.1, 4.0), d=rng.uniform(0.1, 4.0))
        m = 1 if case % 8 == 0 else int(rng.integers(2, 60))
        targets = np.sort(rng.choice(np.linspace(-5.0, 5.0, 400), m, replace=False))
        if case % 4 == 1:
            v = np.full(m, rng.normal())           # every target ties
        else:
            v = rng.normal(size=m) * rng.uniform(0.1, 10.0)
        x = np.concatenate([
            targets[rng.integers(0, m, 5)],        # exactly on a target
            rng.uniform(-7.0, -5.5, 3),            # below every target
            rng.uniform(5.5, 7.0, 3),              # above every target
            rng.uniform(-5.0, 5.0, 20),
        ])
        got = _min_jump(prm, targets, v, x)
        expected = _dense_min_jump(prm, targets, v, x)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0,
                                   err_msg=f"case {case}")
        # stacked rows of target values, against one shared row of states
        # and against one row of states each: every row equals its own call
        rows = np.stack([v, rng.permutation(v), v + rng.normal()])
        for xs in (x, np.stack([x, rng.permutation(x), -x])):
            stacked = _min_jump(prm, targets, rows, xs)
            assert stacked.shape == (3, x.size)
            for k in range(3):
                x_k = xs if xs.ndim == 1 else xs[k]
                np.testing.assert_array_equal(stacked[k], _min_jump(prm, targets, rows[k], x_k),
                                              err_msg=f"case {case}, row {k}")
                np.testing.assert_allclose(stacked[k], _dense_min_jump(prm, targets, rows[k], x_k),
                                           rtol=1e-12, atol=0.0, err_msg=f"case {case}, row {k}")
