"""The float path of every closed form and interpolant equals the array path.

A rollout's event locator evaluates the flow's Phi and H, p2, q2 and the
band one Python float at a time; everything else evaluates them on arrays.  Both
must give the same double bit for bit, so equality here is exact.
"""

import numpy as np
import pytest

from impulsegame import build_policy, solve_backward
from impulsegame.policy import _band
from impulsegame.riccati import (a_x, hermite, n1_closed_form, p1_closed_form, p2_closed_form,
                                 q1_closed_form)
from impulsegame.verify import difference_slopes

from conftest import BASELINE, variant

SCENARIOS = {
    "table1": BASELINE,
    "table1_w2_1": variant(w2=1.0),
    "table1_T200": variant(T=200.0),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def solved(request):
    params = SCENARIOS[request.param]
    path = solve_backward(params)
    return params, path, build_policy(path, params)


def probe_times(params, path):
    """10 000 seeded times in [0, T], every node, and times past either end."""
    T = params.T
    rng = np.random.default_rng(20260)
    nodes = path.time_grid
    ulp = np.spacing(nodes)
    outside = T * np.array([-0.5, -0.01, -1e-6, 1.0 + 1e-6, 1.01, 1.5])
    return np.concatenate([
        rng.uniform(0.0, T, 10_000), nodes, nodes + ulp, nodes - ulp, [0.0, T], outside,
    ])


def assert_same(got, want):
    """Exact equality, NaN matching NaN (the band past p2's sign change)."""
    got = np.asarray(got)
    bad = np.flatnonzero(~((got == want) | (np.isnan(got) & np.isnan(want))))
    assert bad.size == 0, f"{bad.size} mismatches, first at index {bad[0]}"


def assert_float_path_equals(fn, ts):
    """fn(t) on each float of ts equals fn(ts) on the array."""
    got = [fn(t) for t in ts.tolist()]
    assert all(type(v) is float for v in got)
    assert_same(got, fn(ts))


def test_closed_forms(solved):
    params, path, _ = solved
    ts = probe_times(params, path)
    consts = path.constants
    assert_float_path_equals(lambda t: a_x(consts, t), ts)
    assert_float_path_equals(lambda t: p1_closed_form(consts, params, t), ts)
    assert_float_path_equals(lambda t: p2_closed_form(consts, params, t), ts)
    assert_float_path_equals(lambda t: q1_closed_form(consts, params, t), ts)
    assert_float_path_equals(lambda t: n1_closed_form(consts, params, t), ts)


def test_hermite_and_interpolated_paths(solved):
    params, path, _ = solved
    ts = probe_times(params, path)
    grid, grid_list = path.time_grid, path.time_grid.tolist()
    for name, ys, dys in zip(("q1", "n1", "q2", "n2"),
                             (path.q1, path.n1, path.q2, path.n2), difference_slopes(path)):
        assert_float_path_equals(getattr(path, f"{name}_at"), ts)
        want = hermite(grid, ys, dys, ts)
        ys_list, dys_list = ys.tolist(), dys.tolist()
        assert_same([hermite(grid_list, ys_list, dys_list, t) for t in ts.tolist()], want)
        assert_same([hermite(grid, ys, dys, t) for t in ts[::10].tolist()], want[::10])


def test_thresholds(solved):
    params, path, policy = solved
    ts = probe_times(params, path)
    with np.errstate(invalid="ignore"):   # p2 < 0 far past T: NaN on both paths
        got = [policy.thresholds_at(t) for t in ts.tolist()]
        want = policy.thresholds_at(ts)
    for k, curve in enumerate(want):
        assert_same([g[k] for g in got], curve)


def test_coefficients_at_equals_each_coefficients_array_path(solved):
    # one exponential and one Hermite cell per time: the flow's Phi and H
    # with the band's p2 and q2, each float bit-equal to the array's
    params, path, policy = solved
    ts = probe_times(params, path)
    consts = path.constants
    p2 = p2_closed_form(consts, params, ts)
    got = path.coefficients_at(ts)
    floats = [path.coefficients_at(t) for t in ts.tolist()]
    assert len(got) == 4 and all(len(f) == 4 for f in floats)
    assert_same(got[2], p2)
    assert_same(got[3], path.q2_at(ts))
    for k in range(4):
        assert all(type(f[k]) is float for f in floats)
        assert_same([f[k] for f in floats], got[k])
    with np.errstate(invalid="ignore"):   # p2 < 0 far past T: NaN on both paths
        band = _band(p2, got[3], params)
        for k, curve in enumerate(policy.thresholds_at(ts)):
            assert_same(curve, band[k])


def step(path, t, x, h):
    """The closed loop's state at t + h from x at t: phi*(c + shift), c fixed at t."""
    phi, shift, _, _ = path.coefficients_at(t)
    phi_h, shift_h, _, _ = path.coefficients_at(t + h)
    return phi_h * (x / phi - shift + shift_h)


def test_step_map(solved):
    # a step of the closed-form flow, as the locator takes it on floats,
    # equals the same step on arrays; two steps compose into one
    params, path, policy = solved
    ts = probe_times(params, path)
    rng = np.random.default_rng(7)
    step_size = params.T / 4096
    hs = np.concatenate([rng.uniform(0.0, step_size, ts.size - 3), [step_size, 1e-11, 0.0]])
    xs = rng.uniform(-2.0, 12.0, ts.size)
    got = [step(path, t, x, h) for t, x, h in zip(ts.tolist(), xs.tolist(), hs.tolist())]
    assert all(type(g) is float for g in got)
    assert_same(got, step(path, ts, xs, hs))
    inside = (ts >= 0.0) & (ts + 2.0 * hs <= params.T)
    t, x, h = ts[inside], xs[inside], hs[inside]
    twice = step(path, t + h, step(path, t, x, h), h)
    np.testing.assert_allclose(twice, step(path, t, x, 2.0 * h), rtol=1e-13, atol=1e-13)
