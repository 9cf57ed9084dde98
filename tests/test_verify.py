from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from impulsegame import policy as policy_module
from impulsegame import (
    CoefficientPath,
    StateBox,
    brute_force_rv2,
    build_policy,
    convexity_margin,
    constants,
    dp_oracle_v2,
    gamma_star,
    qvi_check,
    run_verification,
    solve_backward,
    sufficiency_margins,
    value_v2,
    verify,
)
from impulsegame.cli import load_config
from impulsegame.model import intervention_cost
from impulsegame.verify import (GAP_BASE_TOL, XI_RESOLUTION, DpOracleResult, QviSample,
                                _falls_to, _min_jump, _phi_rates, _prefix_argmins,
                                _running_argmin)

from conftest import defining_rates, variant

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
            worst = max(worst, abs(verify._hjb1(path, params, t, x)))
    assert worst < 1e-6


def test_hjb1_residual_continuous_up_to_horizon(path, policy, params):
    # just inside the horizon the residual stays at integration-error level
    t = params.T - 1e-9
    ell1, _, _, ell2 = policy.thresholds_at(t)
    for x in np.linspace(ell1 + 0.1, ell2 - 0.1, 7):
        assert abs(verify._hjb1(path, params, t, x)) < 1e-6


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
    p1dot, q1dot, n1dot, p2dot, q2dot, n2dot = defining_rates(pth, t)
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
    # a layer where every node jumps has no bracket
    everywhere = replace(oracle, intervene=np.ones_like(oracle.intervene))
    with pytest.raises(ValueError, match="^no continuation nodes in layer 3$"):
        everywhere.continuation_bracket(3)


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


@pytest.mark.parametrize("name, gain_at_0", [("table1", 9.187), ("table1_w2_1", 21.163)])
def test_p1_edge_gain_positive_at_shipped_z1_and_not_at_z1_20(name, gain_at_0):
    """Player 1's edge gain is phi1 at the edge less phi1 at the reset target
    and z1*|xi|; at the shipped z1 = 2 steering into an edge pays, at z1 = 20
    it pays nowhere.  It is reported, not a condition, so the verdict holds."""
    cfg = load_config(CONFIGS / f"{name}.cfg")
    for z1 in (cfg.params.z1, 20.0):
        prm = replace(cfg.params, z1=z1)
        pth = solve_backward(prm, cfg.n_steps)
        pol = build_policy(pth, prm)
        report = run_verification(pth, pol, prm, cfg.box)
        t = report.t_nodes
        ell1, alpha, beta, ell2 = pol.thresholds_at(t)

        def phi1(x):
            return 0.5 * pth.p1_at(t) * x * x + pth.q1_at(t) * x + pth.n1_at(t)

        direct = np.maximum(phi1(ell1) - phi1(alpha) - z1 * (alpha - ell1),
                            phi1(ell2) - phi1(beta) - z1 * (ell2 - beta))
        np.testing.assert_allclose(report.p1_edge_gain, direct, rtol=0.0, atol=1e-12)
        assert report.passed
        assert "p1_edge_gain" not in {c.name for c in report.conditions}
        if z1 == 20.0:
            assert np.all(report.p1_edge_gain <= 0.0), report.p1_edge_gain.max()
        else:
            assert report.p1_edge_gain[0] > 5.0
            assert report.p1_edge_gain[0] == pytest.approx(gain_at_0, abs=1e-3)


@pytest.mark.parametrize("name, z1_star", [("table1", 8.304), ("table1_w2_1", 11.152)])
def test_z1_star_is_the_largest_edge_secant_slope_of_phi1(name, z1_star):
    """z1*, the least z1 at which no edge gain is positive, is the largest
    secant slope over the solver nodes of phi1 on [beta, ell2] and of -phi1
    on [ell1, alpha].  On both shipped configs it is the upper edge's at
    t = 0, with that edge inside the box; the lower edge's stays small."""
    cfg = load_config(CONFIGS / f"{name}.cfg")
    pth = solve_backward(cfg.params, cfg.n_steps)
    pol = build_policy(pth, cfg.params)

    def phi1(x):
        return 0.5 * pth.p1 * x * x + pth.q1 * x + pth.n1

    upper = (phi1(pol.ell2) - phi1(pol.beta)) / (pol.ell2 - pol.beta)
    lower = (phi1(pol.ell1) - phi1(pol.alpha)) / (pol.alpha - pol.ell1)
    slopes = np.maximum(upper, lower)
    assert pth.time_grid[np.argmax(slopes)] == 0.0
    assert slopes.max() == pytest.approx(z1_star, abs=1e-3)
    assert slopes.max() == upper[0] and pol.ell2[0] < cfg.box.x_hi
    assert lower.max() <= 0.725, lower.max()


@pytest.mark.parametrize("w2, t_pass, t_fail", [(4.0, 2.600, 2.608), (1.0, 3.716, 3.725)],
                         ids=["table1", "table1_w2_1"])
def test_certificate_holds_up_to_a_horizon(box, w2, t_pass, t_fail):
    # the root condition below the band is the first to fail as T grows:
    # the certified horizon lies in (2.600, 2.608) on table1 and in
    # (3.716, 3.725) on table1_w2_1, the brackets the README gives
    failed = {}
    for T in (t_pass, t_fail):
        p = variant(w2=w2, T=T)
        pth = solve_backward(p)
        report = run_verification(pth, build_policy(pth, p), p, box)
        failed[T] = {c.name for c in report.conditions if not c.passed}
    assert failed[t_pass] == set()
    assert failed[t_fail] == {"band_margin_lower"}


@pytest.mark.parametrize("w2, certified_up_to", [(4.0, 2.600), (1.0, 3.716)],
                         ids=["table1", "table1_w2_1"])
@pytest.mark.parametrize("T", [1.0, 2.0, 3.0, 5.0, 10.0])
def test_certificate_verdict_agrees_with_dp_oracle(box, w2, certified_up_to, T):
    # where the certificate holds, the band policy's value is the DP
    # oracle's up to its first-order error (at most 0.0375 over the box at
    # t=0 on these runs); where it fails, the oracle finds a value the band
    # policy misses by 0.109 or more
    p = variant(w2=w2, T=T)
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    report = run_verification(pth, pol, p, box)
    dp = dp_oracle_v2(p, pth, box, nt=200, nx=200)
    discrepancy = np.max(np.abs(dp.values[0] - value_v2(pth, pol, p, 0.0, dp.x_grid)))
    assert report.passed == (T <= certified_up_to)
    assert (discrepancy < 5e-2) == report.passed, discrepancy


@pytest.mark.parametrize("scenario", ["", "_w2_1"])
@pytest.mark.parametrize("widen", [0.0, 0.005, -0.05], ids=["true", "wider", "narrower"])
def test_value_continuity_fails_a_shifted_band(scenario, widen, request, box, monkeypatch):
    # a band moved off value matching shows as V2's jump across its edges;
    # a wider band also waits where a jump is cheaper by far more than the
    # target grid's bound (0.029 / 0.018), which fails obstacle_gap too
    path, params = (request.getfixturevalue(f"{name}{scenario}") for name in ("path", "params"))
    band = policy_module._band

    def shifted(p2, q2, prm):
        ell1, alpha, beta, ell2 = band(p2, q2, prm)
        return ell1 - widen, alpha, beta, ell2 + widen

    monkeypatch.setattr(policy_module, "_band", shifted)
    report = run_verification(path, build_policy(path, params), params, box)
    failed = {c.name for c in report.conditions if not c.passed}
    assert failed == {0.0: set(), 0.005: {"value_continuity", "obstacle_gap"},
                      -0.05: {"value_continuity"}}[widen]
    assert (np.max(report.continuity) < 1e-12) == (widen == 0.0)


@pytest.mark.parametrize("scenario", ["", "_w2_1"])
@pytest.mark.parametrize("shift", [0.0, 0.01, -0.01], ids=["true", "up", "down"])
def test_gap_tolerance_catches_targets_off_stationarity(scenario, shift, request, box,
                                                        monkeypatch):
    # The obstacle is a minimum over targets dy apart, so on the true band
    # it overshoots by at most max p2 * dy^2 / 8, the bound gap_tol is built
    # from.  Reset targets 0.01 off the minimiser cost p2 * 0.01^2 / 2 more
    # (2.34e-4 on table1, 9.29e-5 on table1_w2_1), which fails both obstacle
    # rows; the first-order tolerance, 0.050001, passed them.
    path, params = (request.getfixturevalue(f"{name}{scenario}") for name in ("path", "params"))
    band = policy_module._band

    def shifted(p2, q2, prm):
        ell1, alpha, beta, ell2 = band(p2, q2, prm)
        return ell1, alpha + shift, beta + shift, ell2

    monkeypatch.setattr(policy_module, "_band", shifted)
    report = run_verification(path, build_policy(path, params), params, box)
    dy = XI_RESOLUTION * (box.x_hi - box.x_lo)
    assert report.tolerances["gap_tol"] == GAP_BASE_TOL + np.max(report.p2) * dy ** 2 / 8.0
    failed = {c.name for c in report.conditions if not c.passed}
    off = {"obstacle_gap", "exterior_obstacle_equality", "complementarity", "value_continuity"}
    assert failed == (set() if shift == 0.0 else off)


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
            "value_continuity": np.max(r.continuity) <= tol,
            "band_margin_lower": np.min(r.margin_ell1) >= 0.0,
            "band_margin_upper": np.min(r.margin_ell2) >= 0.0,
            "convexity_margin": np.min(r.convexity_margin) > 0.0,
            "convexity_sign_agreement": np.all(np.sign(r.convexity_margin) == np.sign(r.p2)),
        }
        assert {c.name: c.passed for c in r.conditions} == \
            {name: bool(flag) for name, flag in expected.items()}
        # each worst node is the first, in t-major order, of the extreme
        # masked stored values; x is reported for the (t, x) arrays only
        worst = {
            "hjb1_interior_residual": (np.where(interior, np.abs(r.hjb1), -np.inf), np.max),
            "qvi_residual_nonnegative": (r.qvi_residual, np.min),
            "qvi_interior_equality": (np.where(interior, np.abs(r.qvi_residual), -np.inf), np.max),
            "obstacle_gap": (r.gap, np.max),
            "exterior_obstacle_equality": (np.where(interior, -np.inf, np.abs(r.gap)), np.max),
            "complementarity": (np.abs(r.complementarity), np.max),
            "value_continuity": (r.continuity, np.max),
            "band_margin_lower": (r.margin_ell1, np.min),
            "band_margin_upper": (r.margin_ell2, np.min),
            "convexity_margin": (r.convexity_margin, np.min),
        }
        disagree = np.flatnonzero(np.sign(r.convexity_margin) != np.sign(r.p2))
        for c in r.conditions:
            if c.name == "convexity_sign_agreement":
                assert c.worst == disagree.size and c.x is None
                assert c.t == r.t_nodes[disagree[0] if disagree.size else 0]
                continue
            values, extreme = worst[c.name]
            node = np.argwhere(values == extreme(values))[0]
            assert (c.worst, c.t) == (values[tuple(node)], r.t_nodes[node[0]]), c.name
            assert c.x == (r.x_nodes[node[1]] if values.ndim == 2 else None), c.name


def test_nan_hjb1_residual_is_the_worst_node_and_fails(path, policy, params, box,
                                                        monkeypatch):
    hjb1 = verify._hjb1

    def poisoned(*args):
        out = hjb1(*args)
        out[100, 100] = np.nan      # t = 0.5, x = 5.0, inside the band
        return out

    monkeypatch.setattr(verify, "_hjb1", poisoned)
    r = run_verification(path, policy, params, box)
    assert r.region[100, 100] == "interior"
    failed = {c.name: c for c in r.conditions if not c.passed}
    assert list(failed) == ["hjb1_interior_residual"]
    c = failed["hjb1_interior_residual"]
    assert np.isnan(c.worst) and (c.t, c.x) == (0.5, 5.0)


def test_nan_qvi_values_are_the_worst_nodes_and_fail(path, policy, params, box,
                                                     monkeypatch):
    check = verify.qvi_check

    def poisoned(*args):
        sample = check(*args)
        residual, gap = sample.residual.copy(), sample.gap.copy()
        residual[100, 100] = gap[100, 100] = np.nan     # t = 0.5, x = 5.0, inside the band
        gap[100, 199] = np.nan                          # t = 0.5, x = 9.95, above the band
        return QviSample(residual, gap, gap * residual, sample.region, sample.interior)

    monkeypatch.setattr(verify, "qvi_check", poisoned)
    r = run_verification(path, policy, params, box)
    assert (r.region[100, 100], r.region[100, 199]) == ("interior", "above")
    failed = {c.name: (np.isnan(c.worst), c.t, c.x) for c in r.conditions if not c.passed}
    assert failed == {
        "qvi_residual_nonnegative": (True, 0.5, 5.0),
        "qvi_interior_equality": (True, 0.5, 5.0),
        "obstacle_gap": (True, 0.5, 5.0),
        "exterior_obstacle_equality": (True, 0.5, r.x_nodes[199]),
        "complementarity": (True, 0.5, 5.0),
    }


@pytest.mark.parametrize("row, name, theta, root, margin, applicable", [
    (0, "band_margin_lower", "theta_alpha", "x11", "margin_ell1", "alpha_applicable"),
    (1, "band_margin_upper", "theta_beta", "x22", "margin_ell2", "beta_applicable"),
], ids=["lower", "upper"])
def test_nan_discriminant_is_the_worst_node_and_fails(path, policy, params, box, monkeypatch,
                                                      row, name, theta, root, margin, applicable):
    # only a negative discriminant is vacuous: a NaN one at t = 0.5 must not
    # pass as "no real root" with a +inf margin
    rates = verify._phi_rates

    def poisoned(pth, t, x):
        dphi1, dphi2 = rates(pth, t, x)
        if np.ndim(t) == 1:     # sufficiency_margins: rows alpha and beta, one column per t
            dphi2 = dphi2.copy()
            dphi2[row, t == 0.5] = np.nan
        return dphi1, dphi2

    monkeypatch.setattr(verify, "_phi_rates", poisoned)
    r = run_verification(path, policy, params, box)
    assert r.t_nodes[100] == 0.5
    assert all(np.isnan(getattr(r, field)[100]) for field in (theta, root, margin))
    failed = {c.name: (np.isnan(c.worst), c.t, c.x) for c in r.conditions if not c.passed}
    assert failed == {name: (True, 0.5, None)}
    assert getattr(sufficiency_margins(path, policy, params, r.t_nodes), applicable)[100]


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


def _dense_dp_oracle(params, path, box, nt, nx, control=gamma_star):
    """The oracle with every target scored, and the number of layers in
    which a state extrapolated below, and above, the grid keeps its
    waiting value (so the extrapolation decides that node's value).
    ``control`` stands in for Player 1's feedback, as gamma_star's signature."""
    xg = np.linspace(box.x_lo, box.x_hi, nx + 1)
    dt = params.T / nt
    dx = (box.x_hi - box.x_lo) / nx
    values = np.empty((nt + 1, nx + 1))
    intervene = np.zeros((nt + 1, nx + 1), dtype=bool)
    values[nt] = 0.5 * params.s2 * (xg - params.rho2) ** 2
    jump_cost = intervention_cost(params, xg[None, :] - xg[:, None])
    run_cost = dt * 0.5 * params.w2 * (xg - params.rho2) ** 2
    low_layers = high_layers = 0
    for k in range(nt - 1, -1, -1):
        t = k * dt
        v_next = values[k + 1]
        x_adv = xg + dt * (params.a * xg + params.b * control(path, params, t, xg))
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
        low_layers += bool((low & ~intervene[k]).any())
        high_layers += bool((high & ~intervene[k]).any())
    oracle = DpOracleResult(t_grid=np.linspace(0.0, params.T, nt + 1), x_grid=xg,
                            values=values, intervene=intervene)
    return oracle, low_layers, high_layers


# With rho1 = -5 Player 1 pulls the state down, so the states advected
# from this box's lower edge leave it; that edge lies inside the band
LOW_BOX = StateBox(4.0, 10.0)


@pytest.fixture(scope="module")
def params_rho1_low():
    return variant(rho1=-5.0)


@pytest.fixture(scope="module")
def path_rho1_low(params_rho1_low):
    return solve_backward(params_rho1_low)


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


# n = 800 is the certify benchmark's oracle grid
@pytest.mark.parametrize("n, scenario", [(200, ""), (200, "_rho1_low"), (200, "_w2_1"),
                                         (400, ""), (400, "_rho1_low"), (400, "_w2_1"),
                                         (800, ""), (800, "_w2_1")])
def test_dp_oracle_equals_dense_layers(scenario, n, request, box):
    pth, prm = (request.getfixturevalue(name + scenario) for name in ("path", "params"))
    box = LOW_BOX if scenario == "_rho1_low" else box
    fast = dp_oracle_v2(prm, pth, box, nt=n, nx=n)
    dense, low_layers, high_layers = _dense_dp_oracle(prm, pth, box, nt=n, nx=n)
    # each extrapolation branch decides some node's value: above the box
    # in the shipped scenarios, below it with the low rho1
    assert (low_layers if scenario == "_rho1_low" else high_layers) > 0
    np.testing.assert_array_equal(fast.values, dense.values)
    np.testing.assert_array_equal(fast.intervene, dense.intervene)


def _prefix_argmin_rows(rng):
    """Rows of every kind the argmin shortcut must get right or refuse."""
    rows = [np.array([1.0]), np.array([np.nan]), np.array([2.0, 1.0]), np.array([1.0, 2.0]),
            np.array([1.0, 1.0]), np.array([np.nan, 1.0]), np.array([1.0, np.nan]),
            np.full(7, 3.0),                                   # flat
            np.linspace(5.0, -5.0, 9), np.linspace(-5.0, 5.0, 9),   # strictly monotone
            np.array([4.0, 2.0, 1.0, 1.0, 3.0]),               # ties at the minimum
            np.array([4.0, 1.0, 3.0, 1.0, 2.0]),
            np.array([3.0, 2.0, 1.0, 2.0, 3.0]),               # unimodal
            np.array([np.inf, 5.0, -np.inf, 0.0, np.inf]),
            np.array([np.inf, np.inf, 1.0]), np.array([-np.inf, -np.inf, 0.0]),
            np.array([1.0, -np.inf, -np.inf])]
    for m in (2, 3, 11, 40):
        rows += [rng.normal(size=m), np.round(rng.normal(size=m)), (np.arange(m) - m / 3) ** 2]
    with_nan = []
    for row in rows:
        if row.size >= 3:
            for at in (0, row.size // 2, row.size - 1):        # a NaN first, in the middle, last
                with_nan.append(row.copy())
                with_nan[-1][at] = np.nan
    return rows + with_nan


@pytest.fixture
def scans(monkeypatch):
    """The rows that reach the running-argmin scan, the shortcut's fallback."""
    seen = []
    monkeypatch.setattr(verify, "_running_argmin",
                        lambda w: seen.append(w) or _running_argmin(w))
    return seen


def test_prefix_argmins_equals_running_argmin(scans):
    """The shortcut's winners equal the running argmin's on every row, read
    forwards (targets below) and backwards (targets above, as the operator
    reads ``v + c*y`` reversed), and the shortcut is taken where it applies,
    which is where :func:`_falls_to` holds."""
    for case, row in enumerate(_prefix_argmin_rows(np.random.default_rng(20261019))):
        for w in (row, row[::-1]):
            m = w.size
            ends = np.maximum(np.arange(-1, m - 1), 0)
            p = np.argmin(w)
            descends = bool(np.all(w[1:p + 1] < w[:p]))
            for e in (ends, np.arange(m)):
                scans.clear()
                got = _prefix_argmins(w, e)
                np.testing.assert_array_equal(got, _running_argmin(w).take(e),
                                              err_msg=f"case {case}: {w}")
                assert len(scans) == (0 if descends else 1), (case, w)
            # the DP oracle's layers test the same fall with _falls_to
            assert _falls_to(w, p, np.empty(m, dtype=bool)) == descends, (case, w)


@pytest.mark.parametrize("name", ["table1", "table1_w2_1"])
def test_run_verification_takes_the_operator_shortcut_on_every_row(name, scans, monkeypatch):
    """The intervention operator's 201 rows of target values, below and
    above, all descend to their first minimum, so no row is scanned."""
    batches = []
    monkeypatch.setattr(verify, "_prefix_argmins",
                        lambda w, ends: batches.append(w.shape) or _prefix_argmins(w, ends))
    cfg = load_config(CONFIGS / f"{name}.cfg")
    pth = solve_backward(cfg.params, cfg.n_steps)
    run_verification(pth, build_policy(pth, cfg.params), cfg.params, cfg.box)
    assert batches == [(201, 1001)] * 2
    assert scans == []


def test_min_jump_batch_with_a_tie_row_and_a_nan_row_falls_back(scans):
    """One row with a tie on its way down and one with a NaN send a whole
    batch of rows to the scan; every row still equals its own call's, and
    a finite row the every-target minimum, bit for bit.  Integer targets,
    values and slopes and half-integer states keep the arithmetic exact."""
    prm = variant(C=3.0, D=5.0, c=1.0, d=3.0)
    targets = np.arange(-20.0, 21.0)
    clean = targets * targets - targets     # v - d*y and v + c*y fall strictly to their minimum
    tie = clean.copy()
    tie[11] = tie[10] + prm.d               # v - d*y is level from y = -10 to -9
    nan = clean.copy()
    nan[30] = np.nan
    rows = np.stack([clean, tie, nan, clean + 7.0])
    x = np.concatenate([targets[::5], targets[2::5] + 0.5, [-25.0, 25.0]])
    xs = np.broadcast_to(x, (len(rows), x.size))
    got = _min_jump(prm, targets, rows, xs, *_placement(targets, xs))
    assert len(scans) == 2         # the prefix and the suffix batch
    for k, row in enumerate(rows):
        scans.clear()
        alone = _min_jump(prm, targets, row, x, *_placement(targets, x))
        assert len(scans) == (0, 1, 2, 0)[k], k     # the tie is below, the NaN on both sides
        np.testing.assert_array_equal(got[k], alone, err_msg=f"row {k}")
        if k != 2:
            np.testing.assert_array_equal(got[k], _dense_min_jump(prm, targets, row, x),
                                          err_msg=f"row {k}")


def _sawtooth(path, params, t, x):
    """A control with no unimodal layer: it folds the advected states over."""
    return 40.0 * np.sin(7.0 * x + 3.0 * t)


@pytest.mark.parametrize("name", ["table1", "table1_w2_1"])
def test_dp_oracle_takes_the_shortcut_on_every_shipped_layer(name, scans):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    for n in (200, 800):
        dp_oracle_v2(cfg.params, solve_backward(cfg.params, cfg.n_steps), cfg.box, nt=n, nx=n)
        assert scans == [], (n, len(scans))


def test_dp_oracle_falls_back_on_non_unimodal_layers(params, box, scans, monkeypatch):
    """Layers whose waiting values rise and fall run the scan, and the
    values still equal the every-target minimum's bit for bit.  With fixed
    costs of 0.1, a sawtooth on the states above 6 alone, or below 4 alone,
    makes one side's shifted values rise by more than a jump costs on the
    way to its winner: that side's fall check alone sends those layers to
    the scan."""
    pth = solve_backward(params)
    monkeypatch.setattr(verify, "gamma_star", _sawtooth)
    fast = dp_oracle_v2(params, pth, box, nt=100, nx=100)
    dense, _, _ = _dense_dp_oracle(params, pth, box, nt=100, nx=100, control=_sawtooth)
    assert len(scans) == 2 * 100, len(scans)       # every layer, on both sides
    np.testing.assert_array_equal(fast.values, dense.values)
    np.testing.assert_array_equal(fast.intervene, dense.intervene)
    cheap = variant(C=0.1, D=0.1)
    cheap_path = solve_backward(cheap)
    for lo, hi in ((6.0, np.inf), (-np.inf, 4.0)):
        def one_sided(path, params, t, x, lo=lo, hi=hi):
            inside = (x > lo) & (x < hi)
            return np.where(inside, _sawtooth(path, params, t, x), gamma_star(path, params, t, x))

        monkeypatch.setattr(verify, "gamma_star", one_sided)
        scans.clear()
        fast = dp_oracle_v2(cheap, cheap_path, box, nt=100, nx=100)
        dense, _, _ = _dense_dp_oracle(cheap, cheap_path, box, nt=100, nx=100, control=one_sided)
        assert scans, (lo, hi)
        np.testing.assert_array_equal(fast.values, dense.values)
        np.testing.assert_array_equal(fast.intervene, dense.intervene)


@pytest.mark.parametrize("C, D, operated", [(1e-13, 1e-13, 0), (1e-15, 1e-15, 100),
                                             (3.0, 1e-15, 100), (1e-15, 5.0, 100)])
def test_dp_oracle_equals_dense_layers_at_tiny_fixed_costs(C, D, operated, box, monkeypatch):
    """Fixed costs near the rounding of the values: at C = D = 1e-13 every
    layer still scores its two winners alone, while a fixed cost of 1e-15
    on either side fails its rounding bound and sends every layer to the
    intervention operator; each equals the every-target minimum bit for bit."""
    prm = variant(C=C, D=D)
    pth = solve_backward(prm)
    calls = []
    monkeypatch.setattr(verify, "_min_jump", lambda *a: calls.append(a) or _min_jump(*a))
    fast = dp_oracle_v2(prm, pth, box, nt=100, nx=100)
    dense, _, _ = _dense_dp_oracle(prm, pth, box, nt=100, nx=100)
    assert len(calls) == operated
    np.testing.assert_array_equal(fast.values, dense.values)
    np.testing.assert_array_equal(fast.intervene, dense.intervene)


# table1's band at t = 0 is about [3.38, 7.03]
@pytest.mark.parametrize("end_box, winner", [(StateBox(-5.0, 2.0), 100), (StateBox(8.0, 12.0), 0)])
def test_dp_oracle_equals_dense_layers_with_winners_at_an_end_node(end_box, winner, params,
                                                                     path, scans, monkeypatch):
    """In a box below the band both winners are its top node (p = q = nx),
    in one above it its bottom node (p = q = 0), in every layer, and the
    values equal the every-target minimum bit for bit."""
    seen = []
    falls_to = verify._falls_to
    monkeypatch.setattr(verify, "_falls_to", lambda w, p, buf: seen.append(p) or falls_to(w, p, buf))
    fast = dp_oracle_v2(params, path, end_box, nt=100, nx=100)
    dense, _, _ = _dense_dp_oracle(params, path, end_box, nt=100, nx=100)
    # p, then q's index in the reversed row, per layer
    assert seen == [winner, 100 - winner] * 100
    assert scans == []
    np.testing.assert_array_equal(fast.values, dense.values)
    np.testing.assert_array_equal(fast.intervene, dense.intervene)
    assert fast.intervene.any()


def _dense_min_jump(params, targets, v, x):
    return np.min(v[None, :] + intervention_cost(params, targets[None, :] - x[:, None]),
                  axis=1)


def _placement(targets, x):
    """(lo, hi) with targets[:lo] < x and targets[hi:] > x, as brute_force_rv2 places x."""
    return np.searchsorted(targets, x, side="left"), np.searchsorted(targets, x, side="right")


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
        lo, hi = _placement(targets, x)
        np.testing.assert_array_equal(hi[:5], lo[:5] + 1)
        np.testing.assert_array_equal(np.concatenate([lo[5:8], hi[5:8]]), 0)
        np.testing.assert_array_equal(np.concatenate([lo[8:11], hi[8:11]]), m)
        got = _min_jump(prm, targets, v, x, lo, hi)
        expected = _dense_min_jump(prm, targets, v, x)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0,
                                   err_msg=f"case {case}")
        # states on the targets, each placed on itself
        on_self = np.arange(m)
        np.testing.assert_array_equal(np.stack(_placement(targets, targets)),
                                      np.stack([on_self, on_self + 1]))
        np.testing.assert_array_equal(
            _min_jump(prm, targets, v, targets, on_self, on_self + 1),
            _min_jump(prm, targets, v, targets, *_placement(targets, targets)),
            err_msg=f"case {case}")
        # stacked rows of target values, against one shared row of states
        # and against one row of states each: every row equals its own call
        rows = np.stack([v, rng.permutation(v), v + rng.normal()])
        for xs in (x, np.stack([x, rng.permutation(x), -x])):
            rows_xs = np.broadcast_to(xs, (3, x.size))      # a row of states per row of values
            stacked = _min_jump(prm, targets, rows, rows_xs, *_placement(targets, rows_xs))
            assert stacked.shape == (3, x.size)
            for k in range(3):
                x_k = xs if xs.ndim == 1 else xs[k]
                np.testing.assert_array_equal(
                    stacked[k], _min_jump(prm, targets, rows[k], x_k, *_placement(targets, x_k)),
                    err_msg=f"case {case}, row {k}")
                np.testing.assert_allclose(stacked[k], _dense_min_jump(prm, targets, rows[k], x_k),
                                           rtol=1e-12, atol=0.0, err_msg=f"case {case}, row {k}")
    # 301 targets: rows of values at scales 0.1 to 100, a constant row and
    # a quadratic one, against states on the targets, off them and in two
    # rows; every input row stays unwritten
    rng = np.random.default_rng(20261019)
    prm = variant(C=C, D=D, c=1.7, d=2.9)
    targets = np.linspace(-5.0, 5.0, 301)
    for xs in (targets, np.concatenate([rng.uniform(-7.0, 7.0, 40), targets[::7]]),
               np.stack([targets, targets[::-1]])):
        shape = xs.shape[:-1] + targets.shape
        rows = [rng.normal(size=shape) * scale for scale in (0.1, 1.0, 10.0, 100.0)]
        rows += [np.full(shape, 2.5), (targets - 1.0) ** 2 + np.zeros(shape)]
        for k, row in enumerate(rows):
            copy = row.copy()
            got = _min_jump(prm, targets, row, xs, *_placement(targets, xs))
            np.testing.assert_array_equal(row, copy, err_msg=f"row {k} was written")
            for r in range(xs.shape[0] if xs.ndim == 2 else 1):
                x_r, row_r, got_r = (a[r] if xs.ndim == 2 else a for a in (xs, row, got))
                np.testing.assert_allclose(got_r, _dense_min_jump(prm, targets, row_r, x_r),
                                           rtol=1e-12, atol=0.0, err_msg=f"row {k}, {r}")


@pytest.mark.parametrize("name", ["table1", "table1_w2_1"])
def test_dp_oracle_converges_at_first_order_on_shipped_configs(name):
    """Criterion 7's rule on each shipped config at its own horizon:
    doubling the oracle's grid cuts its interior error at t = 0 by about 2."""
    cfg = load_config(CONFIGS / f"{name}.cfg")
    prm = cfg.params
    pth = solve_backward(prm)
    pol = build_policy(pth, prm)
    ell1, _, _, ell2 = pol.thresholds_at(0.0)

    def discrepancy(n):
        oracle = dp_oracle_v2(prm, pth, cfg.box, nt=n, nx=n)
        xs = oracle.x_grid
        interior = (xs > ell1) & (xs < ell2)
        return float(np.max(np.abs(oracle.values[0] - value_v2(pth, pol, prm, 0.0, xs))[interior]))

    disc200, disc400 = discrepancy(200), discrepancy(400)
    assert disc200 <= 5e-2, disc200
    assert disc400 <= 0.52 * disc200, (disc200, disc400)
