import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from impulsegame import (
    ImpulseBudgetExceeded,
    ImpulseEvent,
    StateBox,
    admissibility_check,
    build_policy,
    impulse_bound,
    impulse_bound_parts,
    make_rollout_hook,
    rollout,
    simulate,
    solve_backward,
    value_v2,
)
from impulsegame.cli import load_config
from impulsegame.riccati import affine_rk4, hermite
from impulsegame.simulate import EVENT_TIME_TOL, Trajectory, _bisect_crossing, _RolloutGrid

from conftest import variant


def test_interior_start_never_intervenes(path, policy, params):
    traj = rollout(path, policy, params, 0.0, 5.0)
    assert traj.events == []
    # every sample stays strictly inside the band
    for seg_t, seg_x in traj.segments:
        ell1, _, _, ell2 = policy.thresholds_at(seg_t)
        assert np.all(seg_x > ell1) and np.all(seg_x < ell2)


def test_low_start_jumps_to_alpha(path, policy, params):
    traj = rollout(path, policy, params, 0.0, 2.0)
    assert len(traj.events) == 1
    ev = traj.events[0]
    assert ev.tau == 0.0
    assert ev.x_minus == 2.0
    assert ev.x_plus == pytest.approx(4.5111, abs=1e-2)
    assert ev.xi > 0.0
    assert ev.cost_p1 == pytest.approx(params.z1 * ev.xi)
    assert ev.cost_p2 == pytest.approx(params.C + params.c * ev.xi)


def test_high_start_jumps_to_beta(path, policy, params):
    traj = rollout(path, policy, params, 0.0, 8.0)
    assert len(traj.events) == 1
    ev = traj.events[0]
    assert ev.tau == 0.0
    assert ev.x_plus == pytest.approx(5.5731, abs=1e-2)
    assert ev.xi < 0.0
    assert ev.cost_p2 == pytest.approx(params.D - params.d * ev.xi)


def test_low_weight_scenario_initial_jumps(path_w2_1, policy_w2_1, params_w2_1):
    high = rollout(path_w2_1, policy_w2_1, params_w2_1, 0.0, 10.0)
    assert [e.tau for e in high.events] == [0.0]
    assert high.events[0].x_plus == pytest.approx(6.5116, abs=1e-2)
    mid = rollout(path_w2_1, policy_w2_1, params_w2_1, 0.0, 6.0)
    assert mid.events == []
    low = rollout(path_w2_1, policy_w2_1, params_w2_1, 0.0, 1.0)
    assert [e.tau for e in low.events] == [0.0]
    assert low.events[0].x_plus == pytest.approx(3.8380, abs=1e-2)


def test_no_intervention_cost_decomposition(path, policy, params):
    # with zero events, J2 is the running integral plus the terminal cost only
    traj = rollout(path, policy, params, 0.0, 5.0)
    assert not traj.events
    ts = np.linspace(0.0, params.T, 20001)
    xs = np.array([traj.state_at(t) for t in ts])
    integrand = 0.5 * params.w2 * (xs - params.rho2) ** 2
    integral = np.trapezoid(integrand, ts)
    terminal = 0.5 * params.s2 * (traj.terminal_state - params.rho2) ** 2
    assert traj.j2 == pytest.approx(integral + terminal, abs=1e-6)


def test_boundary_start_fires_immediately(path, policy, params):
    # closed intervention set: starting exactly on ell1 counts as an exit
    ell1, alpha, _, _ = policy.thresholds_at(0.0)
    traj = rollout(path, policy, params, 0.0, ell1)
    assert len(traj.events) >= 1
    assert traj.events[0].tau == 0.0
    assert traj.events[0].x_plus == pytest.approx(alpha, rel=1e-12)


def test_impulse_bound_baseline(params, box):
    # direct evaluation: sup 0.5*w2*(x-rho2)^2 = 50, sup 0.5*s2*(x-rho2)^2 = 12.5
    k, h2_sup, s2_sup, mu = impulse_bound_parts(params, box)
    assert h2_sup == pytest.approx(0.5 * 4.0 * 25.0)
    assert s2_sup == pytest.approx(0.5 * 1.0 * 25.0)
    assert mu == 3.0
    assert k == 42


def test_impulse_bound_tiny_weights():
    p = variant(w2=1e-6, s2=1e-6)
    k = impulse_bound(p, StateBox(p.rho2 - 1.0, p.rho2 + 1.0))
    assert k == 1


def test_impulse_bound_linear_in_horizon(params, box):
    _, h2_sup, s2_sup, mu = impulse_bound_parts(params, box)
    doubled = variant(T=2.0 * params.T)
    _, h2_sup2, s2_sup2, mu2 = impulse_bound_parts(doubled, box)
    assert (h2_sup2, s2_sup2, mu2) == (h2_sup, s2_sup, mu)
    k2 = impulse_bound(doubled, box)
    assert k2 == int(np.ceil(2.0 * (2.0 * params.T * h2_sup + s2_sup) / mu))


def test_rollouts_respect_bound_over_box(path, policy, params, box):
    k = impulse_bound(params, box)
    for x0 in np.linspace(box.x_lo, box.x_hi, 21):
        traj = rollout(path, policy, params, 0.0, float(x0))
        assert len(traj.events) <= k


def test_budget_guard_trips(path, policy, params):
    # max_events=0 is a cap of zero events, not a request for the default
    with pytest.raises(ImpulseBudgetExceeded, match="exceed the analytic bound 0"):
        rollout(path, policy, params, 0.0, 8.0, max_events=0)
    assert rollout(path, policy, params, 0.0, 5.0, max_events=0).events == []
    assert len(rollout(path, policy, params, 0.0, 8.0, max_events=1).events) == 1


ENTRY_POINTS = {
    "rollout": lambda path, policy, params, t0, x0, step: rollout(
        path, policy, params, t0, x0, step),
    "make_rollout_hook": lambda path, policy, params, t0, x0, step: make_rollout_hook(
        path, policy, params, step)(t0, x0),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("t0, x0, step, arg", [
    (1.5, 5.0, None, "t0"), (-0.25, 5.0, None, "t0"), (float("nan"), 5.0, None, "t0"),
    (0.0, float("inf"), None, "x0"), (0.0, float("nan"), None, "x0"),
    (1.0, float("-inf"), None, "x0"),
    (0.0, 5.0, 0.0, "step"), (0.0, 5.0, -1e-3, "step"), (0.0, 5.0, float("inf"), "step"),
    (0.0, 5.0, float("nan"), "step"),
])
def test_bad_rollout_input_is_value_error_naming_it(path, policy, params, entry, t0, x0,
                                                    step, arg):
    with pytest.raises(ValueError, match=f"^{arg} must"):
        ENTRY_POINTS[entry](path, policy, params, t0, x0, step)


def test_admissibility_of_own_rollouts(path, policy, params):
    for x0 in (2.0, 5.0, 8.0, 9.9):
        report = admissibility_check(rollout(path, policy, params, 0.0, x0), policy)
        assert report.ok, report.violations


def test_admissibility_rejects_interior_event(path, policy, params):
    base = rollout(path, policy, params, 0.0, 5.0)
    fake_event = ImpulseEvent(tau=0.5, x_minus=5.0, x_plus=4.6,
                              xi=-0.4, cost_p1=0.8, cost_p2=6.2)
    doctored = Trajectory(base.segments, [fake_event], base.terminal_state,
                          path, params, base._grid)
    report = admissibility_check(doctored, policy)
    assert not report.ok
    assert any("event 0" in v for v in report.violations)


def test_step_halving_changes_costs_below_tolerance(path, policy, params):
    for x0 in (5.0, 8.0):
        coarse = rollout(path, policy, params, 0.0, x0, step=params.T / 4096)
        fine = rollout(path, policy, params, 0.0, x0, step=params.T / 8192)
        assert abs(coarse.j1 - fine.j1) < 1e-6
        assert abs(coarse.j2 - fine.j2) < 1e-6


def test_restart_reproduces_remaining_costs(path, policy, params):
    # strong time consistency at the numeric level
    for x0 in (2.0, 5.0, 8.0):
        traj = rollout(path, policy, params, 0.0, x0)
        for t1 in (0.125, 0.37, 0.75):
            x1 = traj.state_at(t1)
            tail_j1, tail_j2 = traj.costs_from(t1)
            restart = rollout(path, policy, params, t1, x1)
            assert abs(restart.j1 - tail_j1) < 5e-3
            assert abs(restart.j2 - tail_j2) < 5e-3


def test_tail_costs_match_value_function(path, policy, params):
    for x0 in (2.0, 8.0):
        traj = rollout(path, policy, params, 0.0, x0)
        for t1 in (0.2, 0.6):
            _, tail_j2 = traj.costs_from(t1)
            v2 = value_v2(path, policy, params, t1, traj.state_at(t1))
            assert abs(tail_j2 - v2) < 5e-3


def test_jump_conditions_at_events(path, policy, params):
    # both players' value relations across an intervention
    from impulsegame import intervention_cost

    traj = rollout(path, policy, params, 0.0, 8.0)
    for ev in traj.events:
        v2_minus = value_v2(path, policy, params, ev.tau, ev.x_minus)
        v2_plus = value_v2(path, policy, params, ev.tau, ev.x_plus)
        assert abs(v2_minus - (v2_plus + intervention_cost(params, ev.xi))) < 1e-6


def test_event_times_strictly_increasing_and_before_horizon(path, policy, params):
    for x0 in np.linspace(0.5, 9.5, 10):
        traj = rollout(path, policy, params, 0.0, float(x0))
        taus = [e.tau for e in traj.events]
        assert all(t < params.T for t in taus)
        assert all(b > a for a, b in zip(taus, taus[1:]))


def test_mid_horizon_event_chain():
    # a strong downward pull from Player 1 forces repeated boundary hits,
    # exercising bisection, off-grid resumes and the event bookkeeping
    from impulsegame import build_policy, intervention_cost, solve_backward

    p = variant(rho1=-30.0, w1=8.0, C=0.8, c=0.3)
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    traj = rollout(pth, pol, p, 0.0, 5.0)
    assert len(traj.events) >= 3
    assert all(e.tau < p.T for e in traj.events)
    assert admissibility_check(traj, pol).ok
    for ev in traj.events[1:]:
        ell1, alpha, _, _ = pol.thresholds_at(ev.tau)
        assert abs(ev.x_minus - ell1) < 1e-8
        assert ev.x_plus == pytest.approx(alpha, abs=1e-12)
        v2_jump = value_v2(pth, pol, p, ev.tau, ev.x_minus) - (
            value_v2(pth, pol, p, ev.tau, ev.x_plus)
            + intervention_cost(p, ev.xi))
        assert abs(v2_jump) < 1e-6
    j1_again, j2_again = traj.costs_from(0.0)
    assert j1_again == pytest.approx(traj.j1, abs=1e-12)
    assert j2_again == pytest.approx(traj.j2, abs=1e-12)
    fine = rollout(pth, pol, p, 0.0, 5.0, step=p.T / 8192)
    assert abs(traj.j1 - fine.j1) < 1e-6 and abs(traj.j2 - fine.j2) < 1e-6


def test_restart_across_mid_horizon_event():
    from impulsegame import build_policy, solve_backward

    p = variant(rho1=-8.0, w1=3.0)
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    traj = rollout(pth, pol, p, 0.0, 5.0)
    assert len(traj.events) == 1 and 0.0 < traj.events[0].tau < p.T
    for t1 in (0.01, 0.3, 0.9):  # before and after the event
        x1 = traj.state_at(t1)
        restart = rollout(pth, pol, p, t1, x1)
        tail_j1, tail_j2 = traj.costs_from(t1)
        assert abs(restart.j1 - tail_j1) < 5e-3
        assert abs(restart.j2 - tail_j2) < 5e-3
        assert abs(value_v2(pth, pol, p, t1, x1) - tail_j2) < 5e-3


def test_realized_control_and_impulse_ranges(path, policy, params):
    from impulsegame import gamma_star

    traj = rollout(path, policy, params, 0.0, 8.0)
    lo, hi = traj.control_range()
    assert lo <= gamma_star(path, params, 0.5, traj.state_at(0.5)) <= hi
    xi_lo, xi_hi = traj.impulse_range()
    assert xi_lo == xi_hi == traj.events[0].xi
    quiet = rollout(path, policy, params, 0.0, 5.0)
    assert quiet.impulse_range() == (0.0, 0.0)


def test_deterministic_replay(path, policy, params):
    a = rollout(path, policy, params, 0.0, 8.0)
    b = rollout(path, policy, params, 0.0, 8.0)
    assert a.j1 == b.j1 and a.j2 == b.j2
    assert len(a.segments) == len(b.segments)
    for (ta, xa), (tb, xb) in zip(a.segments, b.segments):
        assert np.array_equal(ta, tb) and np.array_equal(xa, xb)


# ---------------------------------------------------------------------------
# Event location against the reference: plain bisection with every probe on
# the array path, an RK4 substep whose stage coefficients are one array and
# thresholds evaluated on an array.


def reference_step(path, t, x, h):
    """One RK4 step of the closed loop, stage coefficients evaluated as one array."""
    st = np.array([t, t + 0.5 * h, t + h])
    a = path.a_x_at(st)
    b = path.constants.b_x * path.q1_at(st)
    _, mult, add = affine_rk4(h, (a[0], a[1], a[1], a[2]), (b[0], b[1], b[1], b[2]))
    return float(mult * x + add)


def reference_bisect(grid, t_lo, x_lo, h):
    """First threshold crossing inside one step by plain bisection, or None."""
    policy = grid.policy

    def probe(s):
        x = reference_step(grid.path, t_lo, x_lo, s)
        ell1, _, _, ell2 = (float(c[0]) for c in policy.thresholds_at(np.array([t_lo + s])))
        return x, min(x - ell1, ell2 - x)

    lo, hi = 0.0, h
    _, m_hi = probe(hi)
    if m_hi > 0.0:
        return None
    while hi - lo > EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        _, m_mid = probe(mid)
        if m_mid <= 0.0:
            hi = mid
        else:
            lo = mid
    x_minus, _ = probe(hi)
    return t_lo + hi, x_minus


def reference_locate(grid, t_lo, x_lo, h):
    """reference_bisect with the locator's return: (tau, x_minus) or (None, x_end)."""
    hit = reference_bisect(grid, t_lo, x_lo, h)
    return hit if hit is not None else (None, reference_step(grid.path, t_lo, x_lo, h))


LONG_HORIZON = {"table1_T200": variant(T=200.0), "table1_w2_1_T400": variant(w2=1.0, T=400.0)}
# on the shipped horizon T=1 the closed loop never reaches an edge mid-run,
# so the short-horizon steps use test_mid_horizon_event_chain's game
STEP_SCENARIOS = {"event_chain": variant(rho1=-30.0, w1=8.0, C=0.8, c=0.3), **LONG_HORIZON}


@pytest.fixture(scope="module")
def grids():
    out = {}
    for name, p in STEP_SCENARIOS.items():
        pth = solve_backward(p)
        out[name] = _RolloutGrid(pth, build_policy(pth, p), p, 0.0, p.T / 4096)
    return out


def seeded_steps(grid, n, seed):
    """(t_lo, x_lo, h) near the band edge the state drifts toward: on and
    off the grid, starting inside, on and outside the edge, and steps no
    longer than EVENT_TIME_TOL."""
    rng = np.random.default_rng(seed)
    ts, policy = grid.ts, grid.policy
    for k in range(n):
        i = int(rng.integers(0, len(ts) - 1))
        t_lo = float(ts[i]) if k % 2 else float(ts[i] + rng.uniform(0.0, 0.9) * (ts[i + 1] - ts[i]))
        h = float(ts[i + 1]) - t_lo
        kind = k % 5
        if kind == 4:
            h *= rng.uniform(0.0, EVENT_TIME_TOL / h)
        ell1, _, _, ell2 = policy.thresholds_at(t_lo)
        ell1_h, _, _, ell2_h = policy.thresholds_at(t_lo + h)
        # outward motion of the state relative to each edge over the step
        out1 = (ell1_h - ell1) - (reference_step(grid.path, t_lo, ell1, h) - ell1)
        out2 = (reference_step(grid.path, t_lo, ell2, h) - ell2) - (ell2_h - ell2)
        edge, inward, reach = (ell1, 1.0, out1) if out1 >= out2 else (ell2, -1.0, out2)
        offset = 0.0 if kind == 3 else abs(reach) * rng.uniform(-0.1, 1.5)
        yield t_lo, edge + inward * offset, h


def test_locator_equals_bisection_on_seeded_steps(grids):
    counts = dict.fromkeys(("steps", "crossing", "none", "tiny_h", "no_bracket"), 0)
    for j, (name, grid) in enumerate(grids.items()):
        for t_lo, x_lo, h in seeded_steps(grid, 670, seed=100 + j):
            got = _bisect_crossing(grid, t_lo, x_lo, h)
            assert got == reference_locate(grid, t_lo, x_lo, h), (name, t_lo, x_lo, h)
            ell1, _, _, ell2 = grid.policy.thresholds_at(t_lo)
            counts["steps"] += 1
            counts["crossing" if got[0] is not None else "none"] += 1
            counts["tiny_h"] += h <= EVENT_TIME_TOL
            counts["no_bracket"] += got[0] is not None and min(x_lo - ell1, ell2 - x_lo) <= 0.0
    assert counts["steps"] >= 2000 and counts["crossing"] >= 1000, counts
    assert min(counts.values()) >= 100, counts


def test_locator_falls_back_to_bisection_without_bracket(grids, monkeypatch):
    # m(0) <= 0: a start on or just outside an edge; no bracket may be formed
    def no_bracket(*args):
        raise AssertionError("bracket narrowing ran with m(0) <= 0")

    monkeypatch.setattr(simulate, "_illinois", no_bracket)
    hits = 0
    for name, grid in grids.items():
        for i in range(0, len(grid.ts) - 1, 97):
            t_lo, h = float(grid.ts[i]), float(grid.ts[i + 1] - grid.ts[i])
            ell1, _, _, ell2 = grid.policy.thresholds_at(t_lo)
            for x_lo in (ell1, ell2, ell1 - 1e-3, ell2 + 1e-3):
                got = _bisect_crossing(grid, t_lo, x_lo, h)
                assert got == reference_locate(grid, t_lo, x_lo, h), (name, t_lo, x_lo)
                hits += got[0] is not None
    assert hits >= 100


@pytest.mark.parametrize("name, x0s", [("table1_T200", (0.7, 4.2, 9.2)),
                                       ("table1_w2_1_T400", (0.5, 6.3, 9.9))])
def test_long_horizon_rollouts_equal_bisection_rollouts(grids, monkeypatch, name, x0s):
    grid = grids[name]
    p, pth, pol = grid.params, grid.path, grid.policy
    for x0 in x0s:
        got = rollout(pth, pol, p, 0.0, x0, step=p.T / 4096)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_bisect_crossing", reference_locate)
            want = rollout(pth, pol, p, 0.0, x0, step=p.T / 4096)
        assert len(got.events) >= 150
        assert got.events == want.events
        assert (got.j1, got.j2, got.terminal_state) == (want.j1, want.j2, want.terminal_state)
        assert len(got.segments) == len(want.segments)
        for (ta, xa), (tb, xb) in zip(got.segments, want.segments):
            assert np.array_equal(ta, tb) and np.array_equal(xa, xb)


def test_propagate_memo_equals_fresh_sweep():
    p = LONG_HORIZON["table1_T200"]
    pth = solve_backward(p)
    grid = _RolloutGrid(pth, build_policy(pth, p), p, 0.0, p.T / 4096)
    for i0, x in ((0, 4.2), (1234, 4.2), (0, 6.1), (3000, 5.0), (3000, 3.9), (17, 5.5), (0, 4.2)):
        prod = np.concatenate(([1.0], np.cumprod(grid.step_mult[i0:])))
        shift = np.concatenate(([0.0], np.cumsum(grid.step_add[i0:] / prod[1:])))
        want = prod * (x + shift)
        got = grid.propagate(i0, x)
        assert got.tobytes() == want.tobytes(), (i0, x)


def test_spurious_exit_flag_keeps_the_node(monkeypatch):
    # A node whose cached threshold puts it on the band edge while the
    # locator, which evaluates the thresholds itself, finds no crossing on
    # the step onto it: the rollout accepts the node and goes on.
    p = LONG_HORIZON["table1_T200"]
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    clean = simulate._rollout_on_grid(_RolloutGrid(pth, pol, p, 0.0, p.T / 4096), 4.2, None)
    seg_t, seg_x = max(clean.segments, key=lambda seg: len(seg[0]))
    k = len(seg_t) // 2
    grid = _RolloutGrid(pth, pol, p, 0.0, p.T / 4096)
    j = int(np.searchsorted(grid.ts, seg_t[k]))
    assert grid.ts[j] == seg_t[k]
    grid.ell1 = grid.ell1.copy()
    grid.ell1[j] = seg_x[k] + 1e-9

    misses = []
    locate = simulate._bisect_crossing

    def counting_locate(g, t_lo, x_lo, h):
        got = locate(g, t_lo, x_lo, h)
        if got[0] is None and t_lo in g.ts:   # an on-grid step that found no crossing
            misses.append(t_lo)
        return got

    monkeypatch.setattr(simulate, "_bisect_crossing", counting_locate)
    doctored = simulate._rollout_on_grid(grid, 4.2, None)
    assert misses == [grid.ts[j - 1]]
    assert any(grid.ts[j] in t for t, _ in doctored.segments)
    assert admissibility_check(doctored, pol).ok
    assert len(doctored.events) == len(clean.events) >= 150
    assert doctored.events == clean.events
    assert (doctored.j1, doctored.j2) == (clean.j1, clean.j2)


# ---------------------------------------------------------------------------
# Cost accounting against the reference: Simpson's rule over each segment
# with every coefficient, slope and Hermite weight evaluated at the
# segment's own times, instead of taken from the grid's cache.


def reference_drift(path, t, x):
    return path.a_x_at(t) * x + path.constants.b_x * path.q1_at(t)


def reference_running_costs(path, params, t, x):
    u = -(params.b / params.r1) * (path.p1_at(t) * x + path.q1_at(t))
    g1 = 0.5 * (params.w1 * (x - params.rho1) ** 2 + params.r1 * u * u)
    g2 = 0.5 * params.w2 * (x - params.rho2) ** 2
    return g1, g2


def reference_segment_costs(path, params, seg_t, seg_x, seg_f):
    """Simpson quadrature of both running costs over all steps of one segment."""
    if len(seg_t) < 2:
        return 0.0, 0.0
    t0, t1 = seg_t[:-1], seg_t[1:]
    h = t1 - t0
    tm = t0 + 0.5 * h
    xm = hermite(seg_t, seg_x, seg_f, tm)
    g1a, g2a = reference_running_costs(path, params, t0, seg_x[:-1])
    g1m, g2m = reference_running_costs(path, params, tm, xm)
    g1b, g2b = reference_running_costs(path, params, t1, seg_x[1:])
    j1 = float(np.sum(h / 6.0 * (g1a + 4.0 * g1m + g1b)))
    j2 = float(np.sum(h / 6.0 * (g2a + 4.0 * g2m + g2b)))
    return j1, j2


def reference_costs_from(path, params, traj, t1):
    """Trajectory.costs_from(t1) with reference_segment_costs on every segment."""
    t1 = float(t1)
    j1 = j2 = 0.0
    for seg_t, seg_x in traj.segments:
        if seg_t[-1] <= t1:
            continue
        seg_f = reference_drift(path, seg_t, seg_x)
        if seg_t[0] < t1:
            k = int(np.searchsorted(seg_t, t1, side="right"))
            x1 = float(hermite(seg_t, seg_x, seg_f, t1))
            seg_t = np.r_[t1, seg_t[k:]]
            seg_x = np.r_[x1, seg_x[k:]]
            seg_f = np.r_[reference_drift(path, t1, x1), seg_f[k:]]
        a1, a2 = reference_segment_costs(path, params, seg_t, seg_x, seg_f)
        j1 += a1
        j2 += a2
    for ev in traj.events:
        if ev.tau >= t1:
            j1 += ev.cost_p1
            j2 += ev.cost_p2
    xT = traj.terminal_state
    j1 += 0.5 * params.s1 * (xT - params.rho1) ** 2
    j2 += 0.5 * params.s2 * (xT - params.rho2) ** 2
    return j1, j2


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["table1", "table1_w2_1"])
def test_value_sweep_costs_equal_reference(name):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    pth = solve_backward(cfg.params, cfg.n_steps)
    hook = make_rollout_hook(pth, build_policy(pth, cfg.params), cfg.params, cfg.sim_step)
    jumps = 0
    for t in (0.0, 0.3, 0.77):
        for x in np.linspace(cfg.box.x_lo, cfg.box.x_hi, cfg.nx + 1):
            traj = hook(t, x)
            want = reference_costs_from(pth, cfg.params, traj, t)
            assert (traj.j1, traj.j2) == want, (name, t, x)
            jumps += len(traj.events)
    assert jumps >= 100     # starts outside the band jump at t0 and resume on the grid


@pytest.mark.parametrize("name, x0s", [("table1_T200", (0.7, 4.2, 9.2)),
                                       ("table1_w2_1_T400", (0.5, 6.3, 9.9))])
def test_long_horizon_costs_equal_reference(grids, name, x0s):
    # mid-run events put segment ends off the grid: first cells after an
    # event and last cells ending at tau are evaluated directly
    grid = grids[name]
    p, pth, pol = grid.params, grid.path, grid.policy
    rng = np.random.default_rng(7)
    for x0 in x0s:
        traj = rollout(pth, pol, p, 0.0, x0, step=p.T / 4096)
        assert len(traj.events) >= 150
        assert (traj.j1, traj.j2) == reference_costs_from(pth, p, traj, 0.0)
        assert traj.costs_from(traj.start_time) == (traj.j1, traj.j2)
        # t1 strictly inside segments: inside a cell, on a node, inside a first
        # or last cell that ends off the grid, and at an event
        t1s = [traj.events[len(traj.events) // 2].tau, *rng.uniform(0.0, p.T, 2)]
        for k in (len(traj.segments) // 3, 2 * len(traj.segments) // 3):
            seg_t = traj.segments[k][0]
            assert len(seg_t) > 3 and seg_t[0] not in grid.ts and seg_t[-1] not in grid.ts
            t1s += [0.5 * (seg_t[1] + seg_t[2]), seg_t[2],
                    0.5 * (seg_t[0] + seg_t[1]), 0.5 * (seg_t[-2] + seg_t[-1])]
        for t1 in t1s:
            assert traj.costs_from(t1) == reference_costs_from(pth, p, traj, t1), (x0, t1)


def test_start_within_1e12_of_a_node_costs_equal_reference(path, policy, params):
    # a start this close to a node is taken as on it: the first cell runs from
    # the start to the next node and is evaluated directly
    grid = _RolloutGrid(path, policy, params, 0.0, params.T / 4096)
    grid.t0 = float(grid.ts[5]) - 4e-13
    for x0 in (2.0, 5.0, 8.0):
        traj = simulate._rollout_on_grid(grid, x0, None)
        seg_t = traj.segments[-1][0]
        assert seg_t[0] == grid.t0 and seg_t[1] == grid.ts[6]
        assert (traj.j1, traj.j2) == reference_costs_from(path, params, traj, grid.t0)
        for t1 in (grid.t0 + 1e-5, float(grid.ts[6]), 0.5):
            assert traj.costs_from(t1) == reference_costs_from(path, params, traj, t1)


def test_trajectory_reuses_its_cost_pass(grids, monkeypatch):
    # the constructor's Simpson pass keeps each segment's integrals and
    # slopes: state_at evaluates no terms, and a costs_from(t1) inside a
    # segment evaluates that one segment's terms again
    grid = grids["table1_T200"]
    p = grid.params
    traj = rollout(grid.path, grid.policy, p, 0.0, 4.2, step=p.T / 4096)
    assert len(traj.segments) >= 150
    calls = []
    terms = _RolloutGrid.terms

    def counting_terms(self, seg_t):
        calls.append(len(seg_t))
        return terms(self, seg_t)

    monkeypatch.setattr(_RolloutGrid, "terms", counting_terms)
    traj.state_at(p.T / 2.7)
    assert calls == []
    seg_t = traj.segments[len(traj.segments) // 2][0]
    traj.costs_from(0.5 * (seg_t[1] + seg_t[2]))
    assert calls == [len(seg_t) - 1]


def test_hook_keeps_only_the_latest_start_times_grid(path, policy, params, monkeypatch):
    built = []

    class RecordedGrid(_RolloutGrid):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(simulate, "_RolloutGrid", RecordedGrid)
    hook = make_rollout_hook(path, policy, params)
    for t in np.linspace(0.0, 0.98, 50):
        for x0 in (2.0, 5.0):
            hook(float(t), x0)
    gc.collect()
    assert len(built) == 50     # the two starts at one time share a grid
    assert sum(ref() is not None for ref in built) <= 1
