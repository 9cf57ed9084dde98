import dataclasses
import gc
import re
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from impulsegame import (
    ConvexityViolation,
    ImpulseBudgetExceeded,
    ImpulseEvent,
    InvalidParameterError,
    OrderingViolation,
    StateBox,
    admissibility_check,
    build_policy,
    impulse_bound,
    impulse_bound_parts,
    make_rollout_hook,
    riccati,
    rollout,
    simulate,
    solve_backward,
    value_v1,
    value_v2,
)
from impulsegame.cli import EXIT_MODEL, load_config, main
from impulsegame.policy import ThresholdPolicy, phi2
from impulsegame.simulate import (
    EVENT_TIME_TOL,
    Trajectory,
    _bisect_crossing,
    _RolloutGrid,
    _value_ends,
)

from conftest import n1_reference, q1_reference, variant


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


@pytest.mark.parametrize("edge", ["ell1", "ell2"])
def test_outside_start_just_before_the_horizon_fires(path, policy, params, edge):
    # t0 is exact, not located: a start outside the band fires at t0
    # however close to T it is, and only t0 = T carries no impulse
    t0 = params.T - 5e-11
    ell1, _, _, ell2 = policy.thresholds_at(params.T)
    x0 = ell1 - 1.0 if edge == "ell1" else ell2 + 1.0
    traj = rollout(path, policy, params, t0, x0)
    assert [(ev.tau, ev.x_minus) for ev in traj.events] == [(t0, x0)]
    report = admissibility_check(traj, policy)
    assert report.ok, report.violations


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


def test_impulse_bound_overflow_is_invalid_parameter(params):
    # (x - rho2)**2 overflows past |x - rho2| of about 1.3e154: K has no value
    assert isinstance(impulse_bound(params, StateBox(-1e150, 10.0)), int)
    with pytest.raises(InvalidParameterError,
                       match=r"^the impulse bound over StateBox\(x_lo=-1e\+155, x_hi=10.0\) overflows$"):
        impulse_bound(params, StateBox(-1e155, 10.0))


def test_rollouts_respect_bound_over_box(path, policy, params, box):
    k = impulse_bound(params, box)
    for x0 in np.linspace(box.x_lo, box.x_hi, 21):
        traj = rollout(path, policy, params, 0.0, float(x0))
        assert len(traj.events) <= k


def test_budget_guard_trips(path, policy, params, monkeypatch):
    # a bound of 0 is a cap of zero events: the first event trips it
    monkeypatch.setattr(simulate, "impulse_bound", lambda params, box: 0)
    with pytest.raises(ImpulseBudgetExceeded, match="exceed the analytic bound 0"):
        rollout(path, policy, params, 0.0, 8.0)
    assert rollout(path, policy, params, 0.0, 5.0).events == []
    monkeypatch.setattr(simulate, "impulse_bound", lambda params, box: 1)
    assert len(rollout(path, policy, params, 0.0, 8.0).events) == 1


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
    grid = _RolloutGrid(path, policy, params, 0.0, params.T / 4096)
    doctored = Trajectory(base.segments, [fake_event], base.terminal_state,
                          path, params, _value_ends(grid, base.segments))
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


def test_impulse_sizes_repeat_and_an_inside_start_stays_quiet(path, policy, params):
    traj = rollout(path, policy, params, 0.0, 8.0)
    sizes = [ev.xi for ev in traj.events]
    assert min(sizes) == max(sizes) == traj.events[0].xi
    quiet = rollout(path, policy, params, 0.0, 5.0)
    assert quiet.events == []


def test_deterministic_replay(path, policy, params):
    a = rollout(path, policy, params, 0.0, 8.0)
    b = rollout(path, policy, params, 0.0, 8.0)
    assert a.j1 == b.j1 and a.j2 == b.j2
    assert len(a.segments) == len(b.segments)
    for (ta, xa), (tb, xb) in zip(a.segments, b.segments):
        assert np.array_equal(ta, tb) and np.array_equal(xa, xb)


# ---------------------------------------------------------------------------
# Event location against the reference: plain bisection with every probe on
# the array path, the closed-form flow over the probe's offset with the
# flow's terms at both ends evaluated as one array, and thresholds
# evaluated on an array.


def reference_flow(path, t0, x0, t):
    """The closed loop's state at t from x0 at t0: phi*(c + shift) with c
    fixed at t0, both ends' terms evaluated as one array."""
    phi, shift = path.coefficients_at(np.array([t0, t]), band=False)
    return float(phi[1] * (x0 / phi[0] - shift[0] + shift[1]))


def reference_step(path, t, x, h):
    """The closed loop's state at t + h from x at t."""
    return reference_flow(path, t, x, t + h)


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


def reference_terms(grid, t):
    """The flow's Phi and H and the band (ell1, alpha, beta, ell2) at t,
    each from a one-element array."""
    phi, shift = (float(v[0]) for v in grid.path.coefficients_at(np.array([t]), band=False))
    return phi, shift, tuple(float(v[0]) for v in grid.policy.thresholds_at(np.array([t])))


def reference_locate(grid, t_lo, x_lo, h, _terms):
    """reference_bisect with the locator's return: (tau, x_minus) or (None, x_end),
    then reference_terms at that point.  It ignores the locator's terms at t_lo."""
    hit = reference_bisect(grid, t_lo, x_lo, h)
    tau, x = hit if hit is not None else (None, reference_step(grid.path, t_lo, x_lo, h))
    return tau, x, reference_terms(grid, t_lo + h if tau is None else tau)


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
            got = _bisect_crossing(grid, t_lo, x_lo, h, reference_terms(grid, t_lo))
            assert got == reference_locate(grid, t_lo, x_lo, h, None), (name, t_lo, x_lo, h)
            ell1, _, _, ell2 = grid.policy.thresholds_at(t_lo)
            counts["steps"] += 1
            counts["crossing" if got[0] is not None else "none"] += 1
            counts["tiny_h"] += h <= EVENT_TIME_TOL
            counts["no_bracket"] += got[0] is not None and min(x_lo - ell1, ell2 - x_lo) <= 0.0
    assert counts["steps"] >= 2000 and counts["crossing"] >= 1000, counts
    assert min(counts.values()) >= 100, counts


def test_locator_probe_evaluates_the_coefficients_at_one_time(grids, monkeypatch):
    # a probe evaluates one exponential (the flow's Phi and H and p2) and
    # one q2 interpolant, at its own time only; the step's start takes its
    # terms from the caller and evaluates nothing at t_lo
    calls = {"_exponential": [], "hermite": []}

    def record(name, time_arg):
        fn = getattr(riccati, name)

        def recorded(*args):
            calls[name].append(args[time_arg])
            return fn(*args)
        monkeypatch.setattr(riccati, name, recorded)

    record("_exponential", 1)
    record("hermite", 3)
    probes = 0
    for j, name in enumerate(LONG_HORIZON):
        grid = grids[name]
        for t_lo, x_lo, h in seeded_steps(grid, 400, seed=300 + j):
            terms = reference_terms(grid, t_lo)
            for c in calls.values():
                c.clear()
            _bisect_crossing(grid, t_lo, x_lo, h, terms)
            exps, cells = calls["_exponential"], calls["hermite"]
            assert exps == cells, (name, t_lo, x_lo, h)
            assert t_lo not in exps, (name, t_lo, x_lo, h)
            probes += len(exps)
    assert probes >= 2000


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
                got = _bisect_crossing(grid, t_lo, x_lo, h, grid.terms(i))
                assert got == reference_locate(grid, t_lo, x_lo, h, None), (name, t_lo, x_lo)
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


def fresh_sweep(grid, i0, x):
    """Node states from i0 to the horizon by one whole-array evaluation of the flow."""
    xs = grid.phi[i0:] * (x / grid.phi[i0] - grid.shift[i0] + grid.shift[i0:])
    xs[0] = x
    return xs


def flag_only(grid, k=None):
    """Make node k the only node sides() flags on ``grid`` (none if k is None)."""
    grid.ell1 = np.full(len(grid.ts), -np.inf)
    grid.ell2 = np.full(len(grid.ts), np.inf)
    if k is not None:
        grid.ell2[k] = -np.inf


def test_scan_to_the_horizon_equals_fresh_sweep(grids):
    # with no node flagged every scan runs to the horizon: whole-horizon
    # blocks and blocks doubled from short ones, from several start nodes
    # and back to an old one, all give one whole-array evaluation of the
    # flow byte for byte
    g = grids["table1_T200"]
    grid = _RolloutGrid(g.path, g.policy, g.params, 0.0, g.params.T / 4096)
    flag_only(grid)
    n = len(grid.ts)
    for i0, x, block in ((0, 4.2, n), (1234, 4.2, n), (0, 6.1, n), (3000, 5.0, n),
                         (3000, 3.9, n), (17, 5.5, n), (0, 4.2, n),
                         (1234, 4.2, 1), (0, 6.1, 7), (3000, 3.9, 100), (17, 5.5, 2), (0, 4.2, 3)):
        got, flagged = grid.scan(i0, x, block)
        assert not flagged
        assert got.tobytes() == fresh_sweep(grid, i0, x).tobytes(), (i0, x, block)


def test_scan_blocks_equal_fresh_sweep(grids):
    # blocks of the flow's node arrays: a short block then longer ones,
    # doubled past the flagged node ``stop``, a new i0 and a return to an
    # old one, all give one whole-array evaluation's prefix byte for byte
    g = grids["table1_T200"]
    grid = _RolloutGrid(g.path, g.policy, g.params, 0.0, g.params.T / 4096)
    last = len(grid.ts) - 1
    for i0, x, stop, block in ((0, 4.2, 1, 1), (0, 4.2, 13, 2), (0, 4.2, 700, 100),
                               (0, 6.1, 40, 5), (0, 4.2, last, 1000),
                               (1234, 4.2, 1250, 16), (1234, 5.0, 2900, 100),
                               (1234, 5.0, last, 1), (0, 4.2, 2000, 7),
                               (3000, 3.9, 3001, 1), (3000, 3.9, last, 1)):
        flag_only(grid, stop)
        want = fresh_sweep(grid, i0, x)[:stop - i0 + 1]
        got, flagged = grid.scan(i0, x, block)
        assert flagged
        assert got.tobytes() == want.tobytes(), (i0, x, stop)


def test_sweep_start_scans_once(path, policy, params, monkeypatch):
    # the first block of a rollout runs to the horizon: a start without a
    # mid-run event, inside the band or jumping at t0, makes one call, and
    # that call one block
    calls, block_ends = [], []

    class CountingGrid(_RolloutGrid):
        def scan(self, i0, x, block):
            xs, flagged = super().scan(i0, x, block)
            calls.append((i0, i0 + len(xs) - 1))
            block_ends.append(min(i0 + block, len(self.ts) - 1))
            return xs, flagged

    monkeypatch.setattr(simulate, "_RolloutGrid", CountingGrid)
    hook = make_rollout_hook(path, policy, params)
    for x0, taus in ((5.0, []), (0.5, [0.3])):
        calls.clear()
        block_ends.clear()
        traj = hook(0.3, x0)
        assert [ev.tau for ev in traj.events] == taus
        assert calls == [(0, len(traj.segments[-1][0]) - 1)]
        assert block_ends == [calls[0][1]]


@pytest.mark.parametrize("when", ["first segment", "after events"])
def test_nonfinite_step_names_its_node(grids, when):
    # an infinite Phi at node j+1 makes the state there the first
    # non-finite one, whichever block of the scan reaches it
    g = grids["table1_T200"]
    p = g.params
    clean = rollout(g.path, g.policy, p, 0.0, 8.0, step=p.T / 4096)    # inside the band
    k = 0 if when == "first segment" else 6
    assert clean.events[0].tau > 0.0 and len(clean.events) > k
    seg_t = clean.segments[k][0]
    assert len(seg_t) > 4
    grid = _RolloutGrid(g.path, g.policy, p, 0.0, p.T / 4096)
    j = int(np.searchsorted(grid.ts, seg_t[2]))
    assert grid.ts[j] == seg_t[2] and grid.ts[j + 1] == seg_t[3]
    grid.phi = grid.phi.copy()
    grid.phi[j + 1] = np.inf
    with pytest.raises(simulate.NonFiniteStateError, match=f"at node {j + 1} "):
        simulate._rollout_on_grid(grid, 8.0)


def test_scan_result_does_not_depend_on_its_block(grids):
    # a non-finite node past the first flagged one is never reached: every
    # block size returns the flagged node.  One at or before the flagged
    # node raises, naming it, for every block size
    g = grids["table1_T200"]
    p = g.params
    grid = _RolloutGrid(g.path, g.policy, p, 0.0, p.T / 4096)
    seg_t, seg_x = max(rollout(g.path, g.policy, p, 0.0, 4.2, step=p.T / 4096).segments[:-1],
                       key=lambda seg: len(seg[0]))     # the longest that ends at an event
    i0, x = int(np.searchsorted(grid.ts, seg_t[1])), float(seg_x[1])     # a node inside the band
    want, flagged = grid.scan(i0, x, len(grid.ts))
    k = len(want) - 1     # the first flagged node, k nodes past i0
    assert grid.ts[i0] == seg_t[1] and flagged and k > 5
    clean = grid.phi
    for bad in (k + 3, k, k - 2):
        grid.phi = clean.copy()
        grid.phi[i0 + bad] = np.inf
        for block in (1, k, k + 5, len(grid.ts)):
            if bad > k:
                got, flagged = grid.scan(i0, x, block)
                assert flagged and got.tobytes() == want.tobytes(), (bad, block)
            else:
                with pytest.raises(simulate.NonFiniteStateError, match=f"at node {i0 + bad} "):
                    grid.scan(i0, x, block)


def test_model_violation_messages_print_floats(grids, path, policy, params):
    # numpy 2 prints a numpy scalar as np.float64(...), numpy 1 as a float:
    # each message takes float() of what it prints
    ts = np.array([0.0, 0.5, 1.0])
    messages = []
    for q2, p2, error in ((np.array([0.0, np.nan, 0.0]), np.ones(3), OrderingViolation),
                          (np.zeros(3), np.array([1.0, -1.0, 1.0]), ConvexityViolation)):
        with pytest.raises(error) as err:
            build_policy(SimpleNamespace(time_grid=ts, p2=p2, q2=q2), params)
        messages.append(str(err.value))
    g = grids["table1_T200"]
    grid = _RolloutGrid(g.path, g.policy, g.params, 0.0, g.params.T / 4096)
    grid.phi = grid.phi.copy()
    grid.phi[1] = np.inf
    with pytest.raises(simulate.NonFiniteStateError) as err:
        grid.scan(0, 5.0, len(grid.ts))
    messages.append(str(err.value))
    assert messages == [
        "threshold ordering failed at node 1 (t=0.5): ell1=nan alpha=nan beta=nan ell2=nan",
        "p2(t) <= 0 at node 1 (t=0.5, p2=-1.0)",
        "state non-finite at node 1 (t=0.048828125)"]
    traj = rollout(path, policy, params, 0.0, 5.0)
    seg_t, seg_x = traj.segments[0]
    seg_x = seg_x.copy()
    seg_x[1] = policy.thresholds_at(float(seg_t[1]))[3] + 0.5
    doctored = Trajectory([(seg_t, seg_x)], [], traj.terminal_state, path, params, traj._ends)
    messages += admissibility_check(doctored, policy).violations
    assert len(messages) == 4 and not any("np.float64(" in m for m in messages), messages


def test_admissibility_names_each_segments_first_bad_sample(grids):
    g = grids["table1_T200"]
    p, pol = g.params, g.policy
    traj = rollout(g.path, pol, p, 0.0, 4.2, step=p.T / 4096)
    assert admissibility_check(traj, pol).ok
    segments = list(traj.segments)
    want = []
    for k, outside in ((3, (2, 4)), (7, (1, 3))):
        seg_t, seg_x = segments[k]
        assert len(seg_t) > 5
        seg_x = seg_x.copy()
        for i in outside:
            ell1, _, _, ell2 = pol.thresholds_at(float(seg_t[i]))
            seg_x[i] = ell2 + 0.5 if k == 3 else ell1 - 0.5
        segments[k] = seg_t, seg_x
        i = outside[0]
        want.append(f"segment {k}: sample at t={float(seg_t[i])!r} (x={float(seg_x[i])!r}) "
                    "is outside the open band before the segment end")
    doctored = Trajectory(segments, traj.events, traj.terminal_state, g.path, p,
                          _value_ends(g, segments))
    report = admissibility_check(doctored, pol)
    assert not report.ok
    assert report.violations == want


def test_spurious_exit_flag_keeps_the_node(monkeypatch):
    # A node the scan flags while the locator, which steps onto it from
    # the node before, finds no crossing on that step: the rollout accepts
    # the node and goes on.  (The scan's state can sit on an edge by
    # rounding where the locator's step from the node before lands inside.)
    p = LONG_HORIZON["table1_T200"]
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    clean = simulate._rollout_on_grid(_RolloutGrid(pth, pol, p, 0.0, p.T / 4096), 4.2)
    seg_t, seg_x = max(clean.segments, key=lambda seg: len(seg[0]))
    k = len(seg_t) // 2

    class SpuriousFlag(_RolloutGrid):
        def scan(self, i0, x, block):
            xs, flagged = super().scan(i0, x, block)
            if i0 < j < i0 + len(xs) - flagged:
                return xs[:j - i0 + 1], True
            return xs, flagged

    grid = SpuriousFlag(pth, pol, p, 0.0, p.T / 4096)
    j = int(np.searchsorted(grid.ts, seg_t[k]))
    assert grid.ts[j] == seg_t[k]

    misses = []
    locate = simulate._bisect_crossing

    def counting_locate(g, t_lo, x_lo, h, terms):
        got = locate(g, t_lo, x_lo, h, terms)
        if got[0] is None and t_lo in g.ts:   # an on-grid step that found no crossing
            misses.append(t_lo)
        return got

    monkeypatch.setattr(simulate, "_bisect_crossing", counting_locate)
    doctored = simulate._rollout_on_grid(grid, 4.2)
    assert misses == [grid.ts[j - 1]]
    assert any(grid.ts[j] in t for t, _ in doctored.segments)
    assert admissibility_check(doctored, pol).ok
    assert len(doctored.events) == len(clean.events) >= 150
    assert doctored.events == clean.events
    assert (doctored.j1, doctored.j2) == (clean.j1, clean.j2)


@pytest.mark.parametrize("edge", [0, 3], ids=["ell1", "ell2"])
@pytest.mark.parametrize("offset", [1.9e-10, 2.7e-10], ids=["before_T", "at_T"])
def test_located_exit_near_the_horizon_carries_no_impulse(monkeypatch, edge, offset):
    # With Player 1's terminal weight at 100 and target at -30 the state
    # leaves the band just before T.  A start 3e-10 before T, inside the
    # band, meets an edge ``offset`` later; bisection on the one step
    # places the exit within EVENT_TIME_TOL of T: 7.5e-11 before it, or at
    # T itself.  No impulse fires there: the segment ends at T with the
    # state integrated on from the exit, or with x_minus when tau == T.
    p = variant(rho1=-30.0, s1=100.0)
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    t0 = p.T - 3e-10
    grid = _RolloutGrid(pth, pol, p, t0, p.T / 4096)
    assert grid.ts.tolist() == [t0, p.T]
    add = reference_step(pth, t0, 0.0, offset)
    mult = reference_step(pth, t0, 1.0, offset) - add
    x0 = (pol.thresholds_at(t0 + offset)[edge] - add) / mult     # on the edge at t0 + offset
    ell1, _, _, ell2 = pol.thresholds_at(t0)
    assert ell1 < x0 < ell2
    want = reference_locate(grid, t0, x0, p.T - t0, None)
    tau, x_minus, _ = want
    assert p.T - EVENT_TIME_TOL <= tau and (tau == p.T) == (offset == 2.7e-10)
    x_T = reference_step(pth, tau, x_minus, p.T - tau) if tau < p.T else x_minus
    assert tau == p.T or x_T != x_minus

    located = []
    locate = simulate._bisect_crossing

    def recording_locate(g, t_lo, x_lo, h, terms):
        located.append(locate(g, t_lo, x_lo, h, terms))
        return located[-1]

    monkeypatch.setattr(simulate, "_bisect_crossing", recording_locate)
    traj = simulate._rollout_on_grid(grid, x0)
    assert located == [want]
    assert traj.events == []
    assert [(t.tolist(), x.tolist()) for t, x in traj.segments] == [([t0, p.T], [x0, x_T])]
    assert traj.terminal_state == x_T
    report = admissibility_check(traj, pol)
    assert report.ok, report.violations


# ---------------------------------------------------------------------------
# Cost accounting against the reference: the three-point Gauss-Legendre rule
# on every cell between consecutive samples of a segment, along the
# closed-form flow from the cell's left sample, with every coefficient
# evaluated at the segment's own times.  The rollout takes its running
# costs from the value quadratics instead (the verification identity), so
# the two agree to rounding, relative to the largest cost as in
# identity_defects.


def reference_running_costs(path, params, t, x):
    u = -(params.b / params.r1) * (path.p1_at(t) * x + path.q1_at(t))
    g1 = 0.5 * (params.w1 * (x - params.rho1) ** 2 + params.r1 * u * u)
    g2 = 0.5 * params.w2 * (x - params.rho2) ** 2
    return g1, g2


def reference_segment_costs(path, params, seg_t, seg_x):
    """Gauss-Legendre quadrature of both running costs over all cells of one segment."""
    if len(seg_t) < 2:
        return 0.0, 0.0
    t0 = seg_t[:-1]
    h = seg_t[1:] - t0
    tg = t0 + (0.5 * h) * (1.0 + np.array(riccati.GAUSS_NODES))[:, None]     # a row per point
    phi0, shift0 = path.coefficients_at(t0, band=False)
    phi, shift = path.coefficients_at(tg, band=False)
    g1, g2 = reference_running_costs(path, params, tg, phi * (seg_x[:-1] / phi0 - shift0 + shift))
    w0, w1, w2 = riccati.GAUSS_WEIGHTS
    j1 = float(np.sum(0.5 * h * (w0 * g1[0] + w1 * g1[1] + w2 * g1[2])))
    j2 = float(np.sum(0.5 * h * (w0 * g2[0] + w1 * g2[1] + w2 * g2[2])))
    return j1, j2


def reference_costs_from(path, params, traj, t1):
    """Trajectory.costs_from(t1) with reference_segment_costs on every segment."""
    t1 = float(t1)
    j1 = j2 = 0.0
    for seg_t, seg_x in traj.segments:
        if seg_t[-1] <= t1:
            continue
        if seg_t[0] < t1:
            # start the segment at t1, on the flow from the sample before it
            k = int(np.searchsorted(seg_t, t1, side="right"))
            x1 = seg_x[k - 1] if seg_t[k - 1] == t1 else reference_flow(
                path, seg_t[k - 1], seg_x[k - 1], t1)
            seg_t = np.r_[t1, seg_t[k:]]
            seg_x = np.r_[x1, seg_x[k:]]
        a1, a2 = reference_segment_costs(path, params, seg_t, seg_x)
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


def cost_defects(pairs):
    """Each player's largest |got - want| over ``pairs`` of (got, want) cost
    pairs, relative to the largest |want|.  Every cost is nonnegative, so
    that is the largest full J among the pairs."""
    got, want = (np.array(side) for side in zip(*pairs))
    return np.max(np.abs(got - want), axis=0) / np.max(np.abs(want), axis=0)


COST_TOL = 1e-13


def count_quadratics_at(monkeypatch, path):
    """The shapes of the times each later ``path.quadratics_at`` call gets."""
    calls = []
    quadratics_at = path.quadratics_at

    def counting(t):
        calls.append(np.shape(t))
        return quadratics_at(t)

    monkeypatch.setattr(path, "quadratics_at", counting)
    return calls


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["table1", "table1_w2_1"])
def test_value_sweep_costs_equal_reference(name):
    # measured: J1 / J2 within 1.2e-15 / 1.3e-14
    cfg = load_config(CONFIGS / f"{name}.cfg")
    pth = solve_backward(cfg.params, cfg.n_steps)
    hook = make_rollout_hook(pth, build_policy(pth, cfg.params), cfg.params, cfg.sim_step)
    jumps, pairs = 0, []
    for t in (0.0, 0.3, 0.77):
        for x in np.linspace(cfg.box.x_lo, cfg.box.x_hi, cfg.nx + 1):
            traj = hook(t, x)
            pairs.append(((traj.j1, traj.j2), reference_costs_from(pth, cfg.params, traj, t)))
            jumps += len(traj.events)
    assert jumps >= 100     # starts outside the band jump at t0 and resume on the grid
    assert np.all(cost_defects(pairs) <= COST_TOL), cost_defects(pairs)


@pytest.mark.parametrize("name, x0s", [("table1_T200", (0.7, 4.2, 9.2)),
                                       ("table1_w2_1_T400", (0.5, 6.3, 9.9))])
def test_long_horizon_costs_equal_reference(grids, name, x0s):
    # mid-run events put segment ends off the grid, where the coefficients
    # are evaluated between nodes; measured: J1 / J2 within 2.1e-14 / 3.7e-14
    grid = grids[name]
    p, pth, pol = grid.params, grid.path, grid.policy
    rng = np.random.default_rng(7)
    pairs = []
    for x0 in x0s:
        traj = rollout(pth, pol, p, 0.0, x0, step=p.T / 4096)
        assert len(traj.events) >= 150
        pairs.append(((traj.j1, traj.j2), reference_costs_from(pth, p, traj, 0.0)))
        assert traj.costs_from(traj.start_time) == (traj.j1, traj.j2)
        # t1 strictly inside segments: inside a cell, on a node, inside a first
        # or last cell that ends off the grid, and at an event
        t1s = [traj.events[len(traj.events) // 2].tau, *rng.uniform(0.0, p.T, 2)]
        for k in (len(traj.segments) // 3, 2 * len(traj.segments) // 3):
            seg_t = traj.segments[k][0]
            assert len(seg_t) > 3 and seg_t[0] not in grid.ts and seg_t[-1] not in grid.ts
            t1s += [0.5 * (seg_t[1] + seg_t[2]), seg_t[2],
                    0.5 * (seg_t[0] + seg_t[1]), 0.5 * (seg_t[-2] + seg_t[-1])]
        pairs += [(traj.costs_from(t1), reference_costs_from(pth, p, traj, t1)) for t1 in t1s]
    assert np.all(cost_defects(pairs) <= COST_TOL), cost_defects(pairs)


def test_event_on_a_node_costs_equal_reference(grids, monkeypatch):
    # a segment that closes on a grid node and a next one that opens there
    # at another state, on the flow from it: the node's two samples keep
    # their own states, and the node's time joins the event times that
    # the one coefficient evaluation serves
    grid = grids["table1_T200"]
    p = grid.params
    traj = rollout(grid.path, grid.policy, p, 0.0, 4.2, step=p.T / 4096)
    segments = list(traj.segments)
    k = len(segments) // 2
    seg_t, seg_x = segments[k]
    m = len(seg_t) // 2
    assert seg_t[m] in grid.ts
    x_m = float(seg_x[m]) - 0.25
    segments[k:k + 1] = [(seg_t[:m + 1], seg_x[:m + 1]),
                         (seg_t[m:], simulate._flow(grid.path, float(seg_t[m]), x_m, seg_t[m:]))]
    calls = count_quadratics_at(monkeypatch, grid.path)
    _value_ends(grid, traj.segments)
    fresh = sum(ev.tau != grid.t0 for ev in traj.events)    # t0 and T are the grid's
    assert calls == [(fresh,)]
    calls.clear()
    split = Trajectory(segments, traj.events, traj.terminal_state, grid.path, p,
                       _value_ends(grid, segments))
    assert calls == [(fresh + 1,)]
    pairs = [((split.j1, split.j2), reference_costs_from(grid.path, p, split, 0.0))]
    pairs += [(split.costs_from(t1), reference_costs_from(grid.path, p, split, t1))
              for t1 in (0.5 * (seg_t[m - 1] + seg_t[m]), 0.5 * (seg_t[m] + seg_t[m + 1]))]
    assert np.all(cost_defects(pairs) <= COST_TOL), cost_defects(pairs)


def test_start_within_1e12_of_a_node_costs_equal_reference(path, policy, params):
    # a time is on the grid only if it equals a node: the locator steps a
    # start 4e-13 before a node onto that node, and the coefficients at
    # the start are evaluated, not taken from the grid's t0
    grid = _RolloutGrid(path, policy, params, 0.0, params.T / 4096)
    grid.t0 = float(grid.ts[5]) - 4e-13
    pairs = []
    for x0 in (2.0, 5.0, 8.0):
        traj = simulate._rollout_on_grid(grid, x0)
        seg_t = traj.segments[-1][0]
        assert seg_t[0] == grid.t0 and seg_t[1] == grid.ts[5]
        pairs.append(((traj.j1, traj.j2), reference_costs_from(path, params, traj, grid.t0)))
        pairs += [(traj.costs_from(t1), reference_costs_from(path, params, traj, t1))
                  for t1 in (grid.t0 + 1e-5, float(grid.ts[6]), 0.5)]
    assert np.all(cost_defects(pairs) <= COST_TOL), cost_defects(pairs)


def test_trajectory_reuses_its_cost_pass(grids, monkeypatch):
    # the constructor's pass keeps each segment's end values: state_at
    # evaluates no coefficients, and a costs_from(t1) inside a segment
    # evaluates them once, at t1
    grid = grids["table1_T200"]
    p = grid.params
    traj = rollout(grid.path, grid.policy, p, 0.0, 4.2, step=p.T / 4096)
    assert len(traj.segments) >= 150
    calls = count_quadratics_at(monkeypatch, grid.path)
    traj.state_at(p.T / 2.7)
    assert calls == []
    seg_t = traj.segments[len(traj.segments) // 2][0]
    traj.costs_from(0.5 * (seg_t[1] + seg_t[2]))
    assert calls == [(1,)]
    calls.clear()
    traj.costs_from(float(seg_t[0]))    # a segment's start keeps its stored value
    assert calls == []


def test_event_free_starts_take_the_grids_coefficients(path, policy, params, monkeypatch):
    # the grid evaluates the coefficients at t0 and T once; event-free
    # starts, in the band or reset into it at t0, evaluate none
    calls = count_quadratics_at(monkeypatch, path)
    hook = make_rollout_hook(path, policy, params)
    trajs = [hook(0.3, x0) for x0 in np.linspace(0.0, 10.0, 41)]
    assert all(ev.tau == 0.3 for traj in trajs for ev in traj.events)
    assert sum(bool(traj.events) for traj in trajs) >= 10
    assert calls == [(2,)]


def test_hook_keeps_only_the_latest_start_times_grid(path, policy, params, monkeypatch):
    # trajectories the caller keeps do not keep their grids alive either
    built = []

    class RecordedGrid(_RolloutGrid):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(simulate, "_RolloutGrid", RecordedGrid)
    hook = make_rollout_hook(path, policy, params)
    kept = [hook(float(t), x0) for t in np.linspace(0.0, 0.98, 50) for x0 in (2.0, 5.0)]
    gc.collect()
    assert len(built) == 50     # the two starts at one time share a grid
    assert sum(ref() is not None for ref in built) <= 1
    assert all(traj.costs_from(traj.start_time) == (traj.j1, traj.j2) for traj in kept)


# ---------------------------------------------------------------------------
# Starts outside the band jump at t0 and go on from their reset target:
# each start's trajectory and errors against a fresh rollout from that start.


def same(a, b):
    """Byte equality of two floats, arrays or lists of event tuples."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_same_trajectory(got, want, T):
    assert same([dataclasses.astuple(e) for e in got.events],
                [dataclasses.astuple(e) for e in want.events])
    assert len(got.segments) == len(want.segments)
    for (ta, xa), (tb, xb) in zip(got.segments, want.segments):
        assert same(ta, tb) and same(xa, xb)
    assert same((got.terminal_state, got.j1, got.j2), (want.terminal_state, want.j1, want.j2))
    seg_t = got.segments[-1][0]
    t0 = got.start_time
    for t in (t0, t0 + 0.3 * (seg_t[1] - t0), float(seg_t[len(seg_t) // 2]), 0.5 * (t0 + T), T):
        assert same(got.state_at(t), want.state_at(t)), t
        assert same(got.costs_from(t), want.costs_from(t)), t


@pytest.mark.parametrize("name", ["table1", "table1_w2_1"])
def test_hook_equals_fresh_rollout_at_every_start(name):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    p = cfg.params
    pth = solve_backward(p, cfg.n_steps)
    pol = build_policy(pth, p)
    hook = make_rollout_hook(pth, pol, p, cfg.sim_step)
    for t in (0.0, 0.3, 0.77, p.T - 3e-10):
        targets = set()
        for x in np.linspace(cfg.box.x_lo, cfg.box.x_hi, cfg.nx + 1):
            got = hook(t, x)
            assert_same_trajectory(got, rollout(pth, pol, p, t, x, step=cfg.sim_step), p.T)
            if got.events and got.events[0].tau == t:
                targets.add(got.events[0].x_plus)
        assert 1 <= len(targets) <= 2, t   # starts outside the band go on from alpha or beta


def test_starts_beyond_one_edge_share_no_arrays(path, policy, params):
    # both starts lie below the band at t = 0.3 and jump to alpha; each
    # trajectory owns its arrays, and they are writable
    hook = make_rollout_hook(path, policy, params)
    ell1 = policy.thresholds_at(0.3)[0]
    a, b = hook(0.3, ell1 - 2.0), hook(0.3, ell1 - 1.0)
    assert a.events[0].x_plus == b.events[0].x_plus and len(a.segments) == len(b.segments) > 1
    arrays_a = [arr for seg in a.segments for arr in seg]
    arrays_b = [arr for seg in b.segments for arr in seg]
    assert all(arr.flags.writeable for arr in arrays_a + arrays_b)
    assert not any(np.shares_memory(x, y) for x in arrays_a for y in arrays_b)


def test_hook_raises_what_a_fresh_rollout_raises(monkeypatch):
    # a start below the band jumps to alpha at t0, and the rollout from
    # alpha meets the lower edge six more times
    p = STEP_SCENARIOS["event_chain"]
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    built = []

    class RecordedGrid(_RolloutGrid):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(simulate, "_RolloutGrid", RecordedGrid)
    hook = make_rollout_hook(pth, pol, p)
    for _ in range(2):      # before and after a rollout from alpha has finished
        for x0, cap in ((0.0, 0), (1.0, 1), (-2.0, 1)):
            with monkeypatch.context() as m, pytest.raises(
                    ImpulseBudgetExceeded,
                    match=f"^{cap + 1} events exceed the analytic bound {cap}$"):
                m.setattr(simulate, "impulse_bound", lambda params, box: cap)
                hook(0.0, x0)
        full = hook(0.0, 0.0)
        assert len(full.events) == 7
    # chatter against the t0 event: the rollout from alpha's first event is
    # within the (widened) tolerance of it
    tau1 = full.events[1].tau
    want = f"chattering: events at tau=0.0 and tau={tau1!r}"
    with monkeypatch.context() as m:
        m.setattr(simulate, "CHATTER_TOL", 2.0 * tau1)
        for h in (hook, make_rollout_hook(pth, pol, p)):    # used, then fresh
            with pytest.raises(ImpulseBudgetExceeded, match=f"^{re.escape(want)}$"):
                h(0.0, 1.0)
    assert len(built) == 2
    # a diverging rollout from alpha: every start jumping there raises
    grid = _RolloutGrid(pth, pol, p, 0.0, p.T / 4096)
    j = 40
    assert full.segments[1][0][j + 1] == grid.ts[j + 1]
    grid.phi = grid.phi.copy()
    grid.phi[j + 1] = np.inf
    for x0 in (0.0, 1.0):
        with pytest.raises(simulate.NonFiniteStateError, match=f"at node {j + 1} "):
            simulate._rollout_on_grid(grid, x0)


def test_locator_ends_on_a_probed_point_outside_the_band():
    # Where the band margin is not monotone at rounding level, bisection's
    # last midpoint, which the locator's replay has not probed, can lie
    # inside the band.  The locator probes it last and then ends on its
    # bracket's probed end instead, so the exit fires.  Here the margin at
    # x = 0 is root - t, except at one time where it is 1: the point the
    # replay ends on when the margin is monotone.
    t_lo, h, root = 0.3, 0.01, 0.3037
    spikes, probed = set(), []

    def band(t, _q2):           # (ell1, alpha, beta, ell2), p2 standing for t
        probed.append(t)
        return (-1.0 if t in spikes else t - root), 0.0, 0.0, 1.0

    path = SimpleNamespace(coefficients_at=lambda t: (1.0, 0.0, t, 0.0))
    grid = SimpleNamespace(path=path, policy=SimpleNamespace(band=band))
    terms = (1.0, 0.0, band(t_lo, 0.0))
    tau, x, _ = _bisect_crossing(grid, t_lo, 0.0, h, terms)
    assert x == 0.0 and 0.0 <= tau - root <= EVENT_TIME_TOL
    assert probed.index(tau) == len(probed) - 1     # bisection's point, probed last only
    spikes.add(tau)
    probed.clear()
    tau_b, x_b, _ = _bisect_crossing(grid, t_lo, 0.0, h, terms)
    assert probed[-1] == tau                # probed last, inside the band
    assert tau_b in probed and x_b == 0.0
    assert 0.0 <= tau_b - root and 0.0 < tau - tau_b <= EVENT_TIME_TOL


def test_located_events_evaluate_no_thresholds(grids, monkeypatch):
    # a located exit resets on the band the locator found at tau, and the
    # next step starts from the terms there: however many events a rollout
    # has, it evaluates the thresholds once, for the jump rule at t0
    g = grids["table1_T200"]
    p = g.params
    grid = _RolloutGrid(g.path, g.policy, p, 0.0, p.T / 4096)
    calls = []
    thresholds_at, impulse_map = ThresholdPolicy.thresholds_at, simulate.impulse_map

    def counted_thresholds_at(self, t):
        calls.append(("thresholds_at", t))
        return thresholds_at(self, t)

    def counted_impulse_map(policy, t, x):
        calls.append(("impulse_map", t))
        return impulse_map(policy, t, x)

    monkeypatch.setattr(ThresholdPolicy, "thresholds_at", counted_thresholds_at)
    monkeypatch.setattr(simulate, "impulse_map", counted_impulse_map)
    traj = simulate._rollout_on_grid(grid, 4.2)
    assert len(traj.events) >= 150
    assert calls == [("impulse_map", 0.0), ("thresholds_at", 0.0)]


def test_located_exit_without_a_reset_is_a_named_error(tmp_path, monkeypatch, capsys):
    # a band that is NaN at a located exit leaves the reset rule without a
    # reset there: a model violation with its tau and x, not a crash.  The
    # band is NaN on every float evaluation (the t0 jump and the locator's
    # probes), while the grid's node arrays stay finite, so a start above
    # the band does not jump at t0 and its first step locates an exit
    p = variant()
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    band = ThresholdPolicy.band

    def nan_off_the_grid(self, p2, q2):
        return (float("nan"),) * 4 if isinstance(p2, float) else band(self, p2, q2)

    monkeypatch.setattr(ThresholdPolicy, "band", nan_off_the_grid)
    message = r"no reset at the located exit tau=\S+, x=\S+: the thresholds there are not finite"
    with pytest.raises(simulate.NonFiniteStateError, match=f"^{message}"):
        rollout(pth, pol, p, 0.0, 8.0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text((CONFIGS / "table1.cfg").read_text() + f"\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_MODEL
    assert re.match(f"model violation: {message}", capsys.readouterr().err)


# ---------------------------------------------------------------------------
# value_v1 against the per-start hook it batches: the same J1 byte for byte,
# and the same error where a start raises.


def hook_v1(path, policy, params, t, xs, step=None):
    """Player 1's values start by start, through a fresh rollout hook."""
    hook = make_rollout_hook(path, policy, params, step)
    return np.array([hook(t, x).j1 for x in xs])


def assert_value_v1_is_the_hooks(path, policy, params, times, xs, step=None):
    for t in times:
        got = value_v1(path, policy, params, t, xs, step)
        assert got.tobytes() == hook_v1(path, policy, params, t, xs, step).tobytes(), t


def solved(name):
    """(config, path, policy) of a shipped config, or of a test game by its file path."""
    cfg = load_config(CONFIGS / f"{name}.cfg" if "/" not in name else name)
    pth = solve_backward(cfg.params, cfg.n_steps)
    return cfg, pth, build_policy(pth, cfg.params)


@pytest.mark.parametrize("name", ["table1", "table1_w2_1"])
def test_value_v1_equals_the_hook_bit_for_bit(name):
    cfg, pth, pol = solved(name)
    T = cfg.params.T
    times = [*np.linspace(0.0, T, 20).tolist(), 0.3, 0.77, T - 3e-10, T - 1e-13]
    xs = np.linspace(cfg.box.x_lo, cfg.box.x_hi, cfg.nx + 1)
    assert_value_v1_is_the_hooks(pth, pol, cfg.params, times, xs, cfg.sim_step)


def test_value_v1_rolls_out_only_the_first_start_per_reset_target(path, policy, params,
                                                                  monkeypatch):
    # at t < T on table1 every start inside the band is event-free: one
    # rollout per reset target, the other 199 starts from the grid
    calls = []
    rollout_on_grid = simulate._rollout_on_grid

    def counting(grid, x0):
        calls.append(x0)
        return rollout_on_grid(grid, x0)

    monkeypatch.setattr(simulate, "_rollout_on_grid", counting)
    xs = np.linspace(0.0, 10.0, 201)
    for t in (0.0, 0.3, 0.77, 1.0 - 3e-10):
        calls.clear()
        value_v1(path, policy, params, t, xs)
        ell1, _, _, ell2 = policy.thresholds_at(t)
        assert calls == [*xs[xs <= ell1][:1], *xs[xs >= ell2][:1]] and calls, t


@pytest.mark.parametrize("T", [5.0, 200.0])
def test_value_v1_takes_the_hook_where_starts_inside_the_band_have_events(T):
    p = variant(T=T)
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    xs = np.linspace(0.0, 10.0, 201 if T == 5.0 else 21)
    times = (0.0, 0.3, T / 2, 0.9 * T) if T == 5.0 else (0.0, T / 2)
    assert_value_v1_is_the_hooks(pth, pol, p, times, xs)
    assert rollout(pth, pol, p, 0.0, 5.0).events     # a start inside the band meets an edge


def test_value_v1_certifies_its_run_by_the_scans_of_its_ends():
    # table1 at T=5, t=9/79: near the lowest start the band envelope
    # admits, the envelope and the scan disagree at rounding level, and a
    # start the envelope admits meets the lower edge (an event); the run's
    # end scans give way to the next start until both stay clear
    p = variant(T=5.0)
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    t = 9.0 / 79.0
    grid = _RolloutGrid(pth, pol, p, t, p.T / 4096)
    phi, shift = grid.phi, grid.shift
    lowest = np.max(grid.ell1[1:] / phi[1:] - shift[1:])
    x_edge = phi[0] * (lowest + shift[0])
    xs = x_edge + np.arange(-20, 21) * np.spacing(x_edge)
    ell1, _, _, ell2 = pol.thresholds_at(t)
    assert np.all((xs > ell1) & (xs < ell2))
    admitted = xs[xs / phi[0] - shift[0] > lowest]
    assert any(rollout(pth, pol, p, t, x).events for x in admitted)
    both = np.concatenate([xs, np.linspace(0.0, 10.0, 41)])
    assert_value_v1_is_the_hooks(pth, pol, p, [t], both)


def test_value_v1_on_the_locator_regression_game():
    cfg, pth, pol = solved(str(Path(__file__).parent / "data" / "locator_inside_band.cfg"))
    T = cfg.params.T
    xs = np.linspace(cfg.box.x_lo, cfg.box.x_hi, 41)
    assert_value_v1_is_the_hooks(pth, pol, cfg.params, (0.0, T / 2, T - 1e-13, T), xs,
                                 cfg.sim_step)


def test_value_v1_adds_each_starts_jump_to_its_targets_rollout():
    # starts below the band jump to alpha, and the rollout from alpha meets
    # the lower edge six more times: each start adds its own jump in front
    p = STEP_SCENARIOS["event_chain"]
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    assert len(rollout(pth, pol, p, 0.0, 0.0).events) == 7
    assert_value_v1_is_the_hooks(pth, pol, p, (0.0, 0.2, 0.5), np.linspace(-4.0, 12.0, 161))


def test_value_v1_raises_what_the_hook_raises(monkeypatch):
    # at t=0 the band is about (14.2, 17.7): the starts below it jump to
    # alpha and go on through six more events, so under a cap of 6 or less
    # the first of them raises, after the starts in the band
    p = STEP_SCENARIOS["event_chain"]
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    xs = np.linspace(17.0, -4.0, 43)

    def message(fn, *args):
        with pytest.raises(Exception) as err:
            fn(*args)
        return type(err.value), str(err.value)

    for cap in (0, 3, 6, 7):
        monkeypatch.setattr(simulate, "impulse_bound", lambda params, box: cap)
        if cap == 7:
            got = value_v1(pth, pol, p, 0.0, xs)
            assert got.tobytes() == hook_v1(pth, pol, p, 0.0, xs).tobytes()
            continue
        want = message(hook_v1, pth, pol, p, 0.0, xs)
        assert want == (ImpulseBudgetExceeded, f"{cap + 1} events exceed the analytic bound {cap}")
        assert message(value_v1, pth, pol, p, 0.0, xs) == want
    monkeypatch.undo()
    for t, bad in ((0.0, [5.0, np.nan]), (0.0, [np.inf, 1.0]), (-0.1, [5.0]), (p.T + 1.0, [5.0])):
        want = message(hook_v1, pth, pol, p, t, bad)
        assert want[0] is ValueError
        assert message(value_v1, pth, pol, p, t, bad) == want


def test_value_v1_holds_each_start_to_its_own_budget(monkeypatch):
    # at t=0 on the event-chain game every start below 14.2 jumps to alpha
    # and goes on through 6 more events.  A stand-in bound that depends on
    # the start: a start from below -10 has a cap of 100, or none at all
    # (its bound overflows); the others a cap of 6
    p = STEP_SCENARIOS["event_chain"]
    pth = solve_backward(p)
    pol = build_policy(pth, p)
    analytic = simulate.impulse_bound

    def far_capped(params, box):
        return 100 if box.x_lo < -10.0 else 6

    def far_overflowing(params, box):
        if box.x_lo < -10.0:
            raise InvalidParameterError(f"the impulse bound over {box} overflows")
        return analytic(params, box)

    for bound, xs, want in ((far_capped, [-40.0, 5.0], ImpulseBudgetExceeded),
                            (far_overflowing, [0.0, -40.0], InvalidParameterError)):
        monkeypatch.setattr(simulate, "impulse_bound", bound)
        with pytest.raises(want) as reference:
            hook_v1(pth, pol, p, 0.0, xs)
        with pytest.raises(want, match=f"^{re.escape(str(reference.value))}$"):
            value_v1(pth, pol, p, 0.0, xs)
        got = value_v1(pth, pol, p, 0.0, xs[:1])
        assert got.tobytes() == hook_v1(pth, pol, p, 0.0, xs[:1]).tobytes()


def test_a_starts_budget_is_its_box_bound(path, policy, params):
    # every start takes the bound of its own box, which covers
    # [ell1_min, ell2_max]: the starts in it share that bound
    grid = _RolloutGrid(path, policy, params, 0.3, params.T / 4096)
    lo, hi = grid.ell1_min, grid.ell2_max
    for x0 in (lo - 40.0, lo - 0.5, lo, 5.0, hi, hi + 0.5, hi + 40.0):
        box = StateBox(min(lo, x0) - 1.0, max(hi, x0) + 1.0)
        assert grid.budget_for(x0, x0) == impulse_bound(params, box), x0
    assert grid.budget_for(lo - 40.0, lo - 40.0) > grid.budget_for(lo, hi)


def test_a_start_at_the_horizon_is_held_to_its_cap(path, policy, params):
    # a start within HORIZON_TOL of T fires nothing, yet its cap is checked
    # as every other start's: where its bound overflows the rollout and the
    # V1 sweep raise the typed error, not an OverflowError from the terminal cost
    T = params.T
    for t0 in (0.0, 0.5 * T, T - 0.5 * simulate.HORIZON_TOL, T):
        with pytest.raises(InvalidParameterError, match="impulse bound .* overflows"):
            rollout(path, policy, params, t0, 1e200)
        with pytest.raises(InvalidParameterError, match="impulse bound .* overflows"):
            value_v1(path, policy, params, t0, [3.0, 1e200])
        with pytest.raises(InvalidParameterError, match="impulse bound .* overflows"):
            make_rollout_hook(path, policy, params)(t0, -1e200)
    # a finite start there is still the bare terminal evaluation, bit for bit
    for t0 in (T - 0.5 * simulate.HORIZON_TOL, T):
        for x0 in (3.0, -40.0, 1e10):
            traj = rollout(path, policy, params, t0, x0)
            assert [(list(t), list(x)) for t, x in traj.segments] == [([T], [x0])]
            assert traj.events == [] and traj.terminal_state == x0
            assert (traj.j1, traj.j2) == (0.5 * params.s1 * (x0 - params.rho1) ** 2,
                                          0.5 * params.s2 * (x0 - params.rho2) ** 2)
        xs = np.array([3.0, -40.0, 1e10])
        assert value_v1(path, policy, params, t0, xs).tolist() == [
            rollout(path, policy, params, t0, x).j1 for x in xs.tolist()]


# ---------------------------------------------------------------------------
# The verification identity along every rollout.  phi1 solves Player 1's
# HJB along the feedback path and phi2 Player 2's interior equation in the
# band, so for a rollout from (t0, x0) and each player i
#   J_i = phi_i(t0, x0) + sum over events of
#         (cost_p_i + phi_i(tau, x_plus) - phi_i(tau, x_minus)).
# The rollout takes its running costs from this identity, segment by
# segment, with the coefficients from path.quadratics_at; here it is
# summed in one piece from the start and the events, with phi2 read
# through the solver's interpolants.  The reference quadrature above
# checks the costs themselves.


def phi1(path):
    """Player 1's value quadratic from src's closed forms."""
    return lambda t, x: 0.5 * path.p1_at(t) * x * x + path.q1_at(t) * x + path.n1_at(t)


def reference_phi1(path):
    """Player 1's value quadratic with q1 and n1 from the tests' own DOP853
    and ``quad`` references, not from src's closed forms (p1 stays closed:
    test_closed_forms checks it)."""
    params = path.params
    q1 = q1_reference(params)
    return lambda t, x: 0.5 * path.p1_at(t) * x * x + q1(t) * x + n1_reference(params, t)


def identity_defects(name, T, phi1_of=reference_phi1):
    """Each player's largest |J_i - identity| over 41 starts spread over the
    config's box at t = 0, relative to the largest |J_i| over those starts.

    Relative to the value's scale over the box, not to each start's J_i:
    J2 nearly vanishes for starts near rho2, where phi2's terms are about
    100, so a per-start ratio would measure that cancellation (2e-11 on
    table1 at T=1 from x0 = 5), not the identity.  ``phi1_of(path)`` gives
    the phi1 to sum; by default the tests' own references, so the J1 half
    does not reuse the closed forms the rollout's costs come from.
    """
    cfg = load_config(CONFIGS / f"{name}.cfg")
    p = dataclasses.replace(cfg.params, T=T)
    pth = solve_backward(p, cfg.n_steps)
    pol = build_policy(pth, p)
    hook = make_rollout_hook(pth, pol, p)
    phis = (phi1_of(pth), lambda t, x: phi2(pth, t, x))
    defects, scales = np.zeros(2), np.zeros(2)
    for x0 in np.linspace(cfg.box.x_lo, cfg.box.x_hi, 41):
        traj = hook(0.0, float(x0))
        for i, (phi, j, cost) in enumerate(zip(phis, (traj.j1, traj.j2), ("cost_p1", "cost_p2"))):
            want = phi(0.0, x0) + sum(
                getattr(ev, cost) + phi(ev.tau, ev.x_plus) - phi(ev.tau, ev.x_minus)
                for ev in traj.events)
            defects[i] = max(defects[i], abs(j - want))
            scales[i] = max(scales[i], abs(j))
    return defects / scales


@pytest.mark.parametrize("name", ["table1", "table1_w2_1"])
@pytest.mark.parametrize("T", [1.0, 5.0])
def test_verification_identity_along_every_rollout(name, T):
    assert np.all(identity_defects(name, T) <= 1e-12)


@pytest.mark.parametrize("name, T, bounds", [("table1", 200.0, (1e-13, 2e-11)),
                                             ("table1_w2_1", 400.0, (1e-13, 1e-10))])
def test_verification_identity_at_long_horizons(name, T, bounds):
    # Measured: J1 7.1e-15 / 4.4e-15 and J2 4.7e-12 / 3.0e-11 at T = 200 / 400.
    # phi1 here is src's closed form, as DOP853's q1 is off by 2e-12 at
    # T = 200, so J1's defect is rounding; reference_costs_from is the
    # independent check of the costs at these horizons.  J2's defect is the
    # cubic Hermite interpolant of q2 and n2 between the solver's nodes,
    # which phi2 reads and the rollout's costs do not.
    assert np.all(identity_defects(name, T, phi1_of=phi1) <= bounds)


def test_costs_do_not_depend_on_the_step():
    # The rollout's costs are differences of the value quadratics at the
    # segment ends, so on an event-free rollout, whose node states do not
    # depend on the step either, J is the same at every step (measured: equal)
    cfg = load_config(CONFIGS / "table1_w2_1.cfg")
    p = dataclasses.replace(cfg.params, T=5.0)
    pth = solve_backward(p, cfg.n_steps)
    pol = build_policy(pth, p)
    costs = []
    for k in (8, 16, 32, 64):
        traj = rollout(pth, pol, p, 0.0, 5.0, step=p.T / k)
        assert traj.events == []
        costs.append((traj.j1, traj.j2))
    spread = np.ptp(costs, axis=0) / np.max(np.abs(costs), axis=0)
    assert np.all(spread <= 1e-13), spread


def test_player1_profits_by_steering_into_the_upper_edge():
    # Player 1's feedback is not a best response to Player 2's band at the
    # shipped z1 = 2.  From (0, 7.0), just inside ell2 = 7.03, Player 1
    # holds u = -10 until the state meets ell2 (t = 0.0108), pays z1*|xi|
    # for Player 2's reset to beta and then plays the feedback: 14.58
    # against V1 = 22.85.  The gain at ell2, phi1(ell2) - phi1(beta) -
    # z1*(ell2 - beta), is positive wherever z1 is below the largest such
    # secant slope of phi1 (8.3 on table1 at T = 1).
    from scipy.integrate import quad
    from scipy.optimize import brentq

    cfg = load_config(CONFIGS / "table1.cfg")
    p = cfg.params
    pth = solve_backward(p, cfg.n_steps)
    pol = build_policy(pth, p)
    u, x0 = -10.0, 7.0

    def pushed(t):      # the state under u from x0 at t = 0, in closed form
        return np.exp(p.a * t) * x0 + p.b * u * np.expm1(p.a * t) / p.a

    def past_ell2(t):
        return pushed(t) - pol.thresholds_at(t)[3]

    assert past_ell2(0.0) < 0.0
    tau = brentq(past_ell2, 0.0, 0.1, xtol=1e-15)
    while past_ell2(tau) < 0.0:         # on or past the edge, so Player 2 resets
        tau = np.nextafter(tau, 1.0)
    push, _ = quad(lambda t: 0.5 * (p.w1 * (pushed(t) - p.rho1) ** 2 + p.r1 * u * u),
                   0.0, tau, epsabs=1e-12)
    after = rollout(pth, pol, p, tau, pushed(tau))
    reset = after.events[0]
    assert reset.tau == tau and reset.xi < 0.0
    assert reset.cost_p1 == p.z1 * abs(reset.xi)
    v1 = rollout(pth, pol, p, 0.0, x0).j1
    assert v1 - (push + after.j1) > 5.0, (v1, push + after.j1)


def test_costs_from_past_the_horizon_raises(path, policy, params):
    traj = rollout(path, policy, params, 0.0, 8.0)
    terminal = traj.costs_from(params.T)
    assert traj.costs_from(params.T + 1e-13) == terminal
    for t in (params.T + 1e-9, 5.0):
        with pytest.raises(ValueError, match="past the horizon"):
            traj.costs_from(t)
        with pytest.raises(ValueError, match="outside the trajectory span"):
            traj.state_at(t)


def test_table1_rolls_out_at_its_longest_solvable_horizon():
    # T = 560 (theta*T = 354) is the longest horizon table1 solves at: the
    # closed forms and the flow's node arrays stay finite there under the
    # suite's warnings-as-errors, and every rollout is admissible
    cfg = load_config(CONFIGS / "table1.cfg")
    p = dataclasses.replace(cfg.params, T=560.0)
    pth = solve_backward(p, cfg.n_steps)
    pol = build_policy(pth, p)
    hook = make_rollout_hook(pth, pol, p)
    for x0 in (2.0, 5.0, 8.0):
        traj = hook(0.0, x0)
        assert len(traj.events) >= 500
        assert all(np.all(np.isfinite(x)) for _, x in traj.segments)
        assert np.isfinite([traj.j1, traj.j2, traj.terminal_state]).all()
        report = admissibility_check(traj, pol)
        assert report.ok, report.violations
