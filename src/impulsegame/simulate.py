"""Forward equilibrium rollout with event detection and cost accounting.

Between interventions the closed loop is the scalar linear ODE
``xdot = a_x(t)*x + b_x*q1(t)``, integrated with classical RK4 on a
uniform grid; each step is the affine map of :func:`affine_rk4`, so a
whole impulse-free stretch propagates as one cumulative product.  The
first node outside the open band marks the step holding the exit, and
:func:`_bisect_crossing` locates the exit inside it to EVENT_TIME_TOL.
It returns bisection's point but probes far fewer substeps: Illinois
regula falsi brackets the sign change of the band margin, two probes
tighten the bracket, and bisection's own midpoint sequence is replayed,
probing only the midpoints inside the bracket (event location as in
Shampine & Thompson 2000).  That is bit-identical to plain bisection
whenever the margin changes sign once on the step; where no bracket
forms, plain bisection runs.  Each probe evaluates the coefficients and
thresholds on Python floats (see :mod:`.riccati`).  The impulse resets
the state exactly to the target, and integration resumes.  Running
costs are summed over the finished trajectory with Simpson's rule,
using the cubic-Hermite midpoint state so the quadrature matches the
integrator's accuracy.  That pass runs once per segment and keeps the
segment's integrals and drift slopes for later queries.

:func:`rollout` (one start) and :func:`make_rollout_hook` (many starts)
are two names for one checked body, which keeps the :class:`_RolloutGrid`
of the latest start time.  The grid computes what every start shares: the
step maps, the thresholds, the drift and running-cost coefficients at the
nodes and cell midpoints, the Hermite midpoint weights, the impulse
budget's extremes and the last cumulative product.  Every cost and slope
term of a trajectory comes from its grid: cells with an end off the grid
(at an event, at a start within 1e-12 of a node, or at the ``t1`` of
``costs_from``) are evaluated by the same functions that fill the cache,
and each segment is summed by one ``np.sum`` over its cells in order.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImpulseBudgetExceeded, NonFiniteStateError
from .model import (
    GameParams,
    StateBox,
    intervention_cost,
    min_intervention_cost,
    player1_impulse_cost,
    validate_box,
)
from .policy import ThresholdPolicy, gamma_star, impulse_map
from .riccati import DEFAULT_STEPS, affine_rk4, hermite

# Resolution of the event locator: tau is the right end of bisection's
# final interval on the step, no wider than this.  _bisect_crossing
# finds that same point with fewer probes when the band margin changes
# sign once on the step.  Exits this close to T are discarded.
EVENT_TIME_TOL = 1e-10
ILLINOIS_MAX_ITER = 40   # safety cap on the bracket narrowing; tau stays exact past it
CHATTER_TOL = 1e-8       # two events closer than this abort the rollout
BOUNDARY_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class ImpulseEvent:
    """One intervention: time, states on both sides, size, both players' costs."""

    tau: float
    x_minus: float
    x_plus: float
    xi: float
    cost_p1: float
    cost_p2: float


@dataclass
class AdmissibilityReport:
    ok: bool
    violations: list = field(default_factory=list)


class Trajectory:
    """Piecewise-continuous equilibrium path with events and accumulated costs.

    ``segments`` is a list of (time array, state array) pairs between
    consecutive interventions; an event time closes one segment at
    ``x_minus`` and opens the next at ``x_plus``.  Between samples the
    state is the cubic Hermite interpolant with the closed-loop drift as
    slope.  ``grid`` is the :class:`_RolloutGrid` the segments were built
    on.  The constructor runs one :func:`_simpson` pass per segment and
    keeps its integrals and slopes for ``j1``, ``j2``, :meth:`state_at`
    and :meth:`costs_from`.
    """

    def __init__(self, segments, events, terminal_state, path, params, grid):
        self.segments = segments
        self.events = events
        self.terminal_state = terminal_state
        self._path = path
        self._params = params
        self._grid = grid
        # (j1, j2, slopes) per segment, None for a lone sample
        self._passes = [_simpson(params, *grid.terms(seg_t), seg_x) if len(seg_t) > 1 else None
                        for seg_t, seg_x in segments]
        self.j1, self.j2 = self.costs_from(self.start_time)

    @property
    def start_time(self):
        return float(self.segments[0][0][0])

    def state_at(self, t):
        """State at time ``t``, right-continuous across interventions."""
        t = float(t)
        for (seg_t, seg_x), kept in zip(reversed(self.segments), reversed(self._passes)):
            if seg_t[0] <= t <= seg_t[-1]:
                return float(seg_x[0] if kept is None else hermite(seg_t, seg_x, kept[2], t))
        raise ValueError(f"t={t!r} outside the trajectory span")

    def control_range(self):
        """(min, max) of Player 1's realized control along the path.

        Together with the event sizes this lets a user check, after the
        fact, that the unclamped feedback stayed inside whatever control
        set the model is meant to respect.
        """
        lo, hi = np.inf, -np.inf
        for seg_t, seg_x in self.segments:
            u = gamma_star(self._path, self._params, seg_t, seg_x)
            lo = min(lo, float(np.min(u)))
            hi = max(hi, float(np.max(u)))
        return lo, hi

    def impulse_range(self):
        """(min, max) impulse size over the events, (0.0, 0.0) if none."""
        if not self.events:
            return 0.0, 0.0
        sizes = [ev.xi for ev in self.events]
        return min(sizes), max(sizes)

    def costs_from(self, t1):
        """Running, impulse and terminal costs accumulated on [t1, T].

        Only the segment holding t1 is integrated again.  Events with tau
        == t1 are counted; to measure the tail after a jump, pass a time
        strictly inside the following segment.
        """
        t1 = float(t1)
        if t1 < self.start_time - 1e-12:
            raise ValueError(f"t1={t1!r} precedes the trajectory start")
        pr = self._params
        j1 = j2 = 0.0
        for (seg_t, seg_x), kept in zip(self.segments, self._passes):
            if kept is None or seg_t[-1] <= t1:
                continue
            a1, a2, seg_f = kept
            if seg_t[0] < t1:
                # start the segment at t1 on its interpolant
                k = int(np.searchsorted(seg_t, t1, side="right"))
                x1 = float(hermite(seg_t, seg_x, seg_f, t1))
                seg_t, seg_x = np.r_[t1, seg_t[k:]], np.r_[x1, seg_x[k:]]
                a1, a2, _ = _simpson(pr, *self._grid.terms(seg_t), seg_x)
            j1 += a1
            j2 += a2
        for ev in self.events:
            if ev.tau >= t1:
                j1 += ev.cost_p1
                j2 += ev.cost_p2
        xT = self.terminal_state
        j1 += 0.5 * pr.s1 * (xT - pr.rho1) ** 2
        j2 += 0.5 * pr.s2 * (xT - pr.rho2) ** 2
        return j1, j2


def _node_terms(path, t):
    """(a_x, b_x*q1, p1, q1) at the times ``t`` (a float or an array): the
    coefficients the drift and the running costs take at a sample."""
    q1 = path.q1_at(t)
    return path.a_x_at(t), path.constants.b_x * q1, path.p1_at(t), q1


def _cell_terms(path, t0, t1):
    """Terms of the cells [t0, t1] (floats or arrays): h/6, p1 and q1 at the
    midpoint, and the weights of the Hermite midpoint state.

    Each weight is the expression :func:`hermite` evaluates at the
    midpoint, ``s1*s1``, ``1+2s``, ``s*h``, ``s*s``, ``3-2s`` and
    ``s1*h``, so :func:`_simpson` reproduces its midpoint bit for bit.
    """
    h = t1 - t0
    tm = t0 + 0.5 * h
    s = (tm - t0) / h
    s1 = 1.0 - s
    return (h / 6.0, path.p1_at(tm), path.q1_at(tm),
            s1 * s1, 1.0 + 2.0 * s, s * h, s * s, 3.0 - 2.0 * s, s1 * h)


def _running_costs(params, p1, q1, x):
    """Both players' running-cost integrands at states ``x`` with coefficients p1, q1."""
    u = -(params.b / params.r1) * (p1 * x + q1)
    g1 = 0.5 * (params.w1 * (x - params.rho1) ** 2 + params.r1 * u * u)
    g2 = 0.5 * params.w2 * (x - params.rho2) ** 2
    return g1, g2


def _simpson(params, nodes, cells, x):
    """(j1, j2, f): Simpson quadrature of both running costs over all cells
    of one segment, and the closed-loop drift ``f`` at its samples.

    ``nodes`` holds :func:`_node_terms` at the samples and ``cells``
    :func:`_cell_terms` of the cells between them, one row per term; the
    midpoint state is the Hermite interpolant's with the drift as slope.
    """
    a_x, bq1, p1, q1 = nodes
    h6, p1m, q1m, w_y0, w_b0, w_f0, w_y1, w_b1, w_f1 = cells
    f = a_x * x + bq1
    xm = w_y0 * (w_b0 * x[:-1] + w_f0 * f[:-1]) + w_y1 * (w_b1 * x[1:] - w_f1 * f[1:])
    g1, g2 = _running_costs(params, p1, q1, x)
    g1m, g2m = _running_costs(params, p1m, q1m, xm)
    j1 = float(np.sum(h6 * (g1[:-1] + 4.0 * g1m + g1[1:])))
    j2 = float(np.sum(h6 * (g2[:-1] + 4.0 * g2m + g2[1:])))
    return j1, j2, f


def _step_map(path, t, h):
    """RK4 steps of the closed loop from ``t`` over ``h`` as x -> mult*x + add.

    ``t`` and ``h`` are floats, or arrays of equal shape.
    """
    st = (t, t + 0.5 * h, t + h)
    a0, am, a1 = [path.a_x_at(s) for s in st]
    b0, bm, b1 = [path.constants.b_x * path.q1_at(s) for s in st]
    _, mult, add = affine_rk4(h, (a0, am, am, a1), (b0, bm, bm, b1))
    return mult, add


def _rk4_step(path, t, x, h):
    """One explicit RK4 step of the closed-loop dynamics."""
    mult, add = _step_map(path, t, h)
    return float(mult * x + add)


class _RolloutGrid:
    """Precomputed rollout data on one (t0, step) grid, shared by every start.

    Each RK4 step of the affine dynamics is the map x -> m*x + q from
    :func:`affine_rk4`, so trajectories with different starting states
    reuse the same per-step arrays and the thresholds at the nodes.  None
    of the following depends on the start state either, so it is cached
    here once:

    - ``nodes``: :func:`_node_terms` (a_x, b_x*q1, p1, q1) at every node;
    - ``cells``: :func:`_cell_terms` (h/6, p1 and q1 at the midpoint, the
      six Hermite midpoint weights) of every cell;
    - ``ell1_min``, ``ell2_max``: the policy extremes of the impulse budget;
    - the cumulative product and sum of the last :meth:`propagate` start.

    The cached rows are the same expressions, evaluated elementwise, that
    a cell-by-cell evaluation would compute, so costs taken from them are
    bit-identical to it.
    """

    def __init__(self, path, policy, params, t0, step):
        T = params.T
        n = max(1, int(math.ceil((T - t0) / step - 1e-12)))
        ts = t0 + step * np.arange(n + 1)
        ts[-1] = T
        self.path = path
        self.policy = policy
        self.params = params
        self.t0 = t0
        self.ts = ts
        self.step_mult, self.step_add = _step_map(path, ts[:-1], np.diff(ts))
        self.ell1, _, _, self.ell2 = policy.thresholds_at(ts)
        self.nodes = np.array(_node_terms(path, ts))
        self.cells = np.array(_cell_terms(path, ts[:-1], ts[1:]))
        self.ell1_min = float(np.min(policy.ell1))
        self.ell2_max = float(np.max(policy.ell2))
        self._last = None       # (i0, prod, shift) of the last propagate

    def propagate(self, i0, x_start):
        """All node states from grid node i0 onward, starting at x_start."""
        if self._last is None or self._last[0] != i0:
            prod = np.concatenate(([1.0], np.cumprod(self.step_mult[i0:])))
            shift = np.concatenate(([0.0], np.cumsum(self.step_add[i0:] / prod[1:])))
            self._last = i0, prod, shift
        _, prod, shift = self._last
        return prod * (x_start + shift)

    def terms(self, seg_t):
        """(node terms, cell terms) of a segment of two or more samples on this grid.

        The segment's interior times are consecutive grid nodes, as
        :func:`_rollout_on_grid` builds them.  Its first and last times
        may be off the grid; their samples and cells are evaluated
        directly, every other one is a slice of the cache.
        """
        ts, path = self.ts, self.path
        n = len(seg_t) - 1
        lo = int(np.searchsorted(ts, seg_t[1])) - 1     # the grid index seg_t[0] has if on it
        a = 0 if lo >= 0 and ts[lo] == seg_t[0] else 1  # first sample taken from the cache
        b = n if lo + n < len(ts) and ts[lo + n] == seg_t[-1] else n - 1   # last one
        m = max(a, b)                                   # cells [a, m) are grid cells
        nodes = [self.nodes[:, lo + a:lo + b + 1]]
        cells = [self.cells[:, lo + a:lo + m]]
        t_first, t_last = float(seg_t[0]), float(seg_t[-1])
        if a:
            nodes.insert(0, _column(_node_terms(path, t_first)))
            cells.insert(0, _column(_cell_terms(path, t_first, float(seg_t[1]))))
        if b < n:
            nodes.append(_column(_node_terms(path, t_last)))
        if m < n:
            cells.append(_column(_cell_terms(path, float(seg_t[-2]), t_last)))
        return tuple(np.concatenate(p, axis=1) if len(p) > 1 else p[0] for p in (nodes, cells))


def _column(terms):
    """Terms at one time (floats) as a one-column block of the cache's layout."""
    return np.array(terms)[:, None]


def impulse_bound(params: GameParams, box: StateBox) -> int:
    """Analytic cap on the number of equilibrium interventions over ``box``."""
    k, _, _, _ = impulse_bound_parts(params, box)
    return k


def impulse_bound_parts(params: GameParams, box: StateBox):
    """(K, sup of running cost, sup of terminal cost, minimal impulse cost).

    The suprema over the box are attained at the endpoint farther from
    Player 2's target, so they are evaluated exactly.
    """
    validate_box(box)
    far = max(abs(box.x_lo - params.rho2), abs(box.x_hi - params.rho2))
    h2_sup = 0.5 * params.w2 * far * far
    s2_sup = 0.5 * params.s2 * far * far
    mu = min_intervention_cost(params)
    k = math.ceil(2.0 * (params.T * h2_sup + s2_sup) / mu)
    return k, h2_sup, s2_sup, mu


def _auto_budget(grid, x0):
    """Impulse cap over a box that covers everything a rollout can reach."""
    lo = min(grid.ell1_min, x0) - 1.0
    hi = max(grid.ell2_max, x0) + 1.0
    return impulse_bound(grid.params, StateBox(lo, hi))


def _rollouts(path, policy, params, step):
    """The one rollout body: a checked ``run(t0, x0, max_events=None)``.

    ``run`` keeps only the :class:`_RolloutGrid` of the latest start time,
    shared by starts at that time.  The step defaults to T/DEFAULT_STEPS.
    """
    T = params.T
    step = T / DEFAULT_STEPS if step is None else float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and > 0 (got {step!r})")
    latest = None

    def run(t0, x0, max_events=None):
        nonlocal latest
        if not 0.0 <= t0 <= T:
            raise ValueError(f"t0 must lie in [0, T] (got {t0!r})")
        x0 = float(x0)
        if not math.isfinite(x0):
            raise ValueError(f"x0 must be finite (got {x0!r})")
        if T - t0 <= 1e-12:
            # no impulse fires at the horizon itself: the state stays, terminal costs only
            return Trajectory([(np.array([T]), np.array([x0]))], [], x0, path, params, None)
        if latest is None or latest.t0 != t0:
            latest = _RolloutGrid(path, policy, params, float(t0), step)
        return _rollout_on_grid(latest, x0, max_events)

    return run


def rollout(path, policy, params: GameParams, t0, x0, step=None, max_events=None):
    """Simulate equilibrium play from (t0, x0) until the horizon.

    If x0 is on or outside a threshold at t0 an intervention fires
    immediately.  Raises ValueError for t0 outside [0, T], a non-finite
    x0 or a step that is not finite and positive; ImpulseBudgetExceeded
    when the event count passes ``max_events`` (by default the analytic
    bound) or two events chatter; NonFiniteStateError if the state
    diverges.  Starting exactly at the horizon yields the bare terminal
    evaluation.
    """
    return _rollouts(path, policy, params, step)(t0, x0, max_events)


def make_rollout_hook(path, policy, params, step=None):
    """``rollout`` as a closure (t0, x0) -> Trajectory, for many starts.

    Starts at one time share a grid; only the latest start time's is kept.
    """
    run = _rollouts(path, policy, params, step)

    def hook(t0, x0):
        return run(t0, x0)

    return hook


def _falsi(a, fa, b, fb):
    """Regula falsi point of the bracket [a, b], or its midpoint if not strictly inside."""
    d = fa - fb
    s = a + fa * (b - a) / d if d > 0.0 else 0.5 * (a + b)
    return s if a < s < b else 0.5 * (a + b)


def _illinois(probe, a, fa, b, fb):
    """Narrow a bracket with fa = m(a) > 0 >= m(b) = fb around its sign change.

    Illinois iteration (Dowell & Jarratt 1971): regula falsi, halving
    the margin kept at an end that two steps in a row left in place.  It
    stops once the estimate moves by at most EVENT_TIME_TOL/4, then two
    probes EVENT_TIME_TOL/2 either side of the estimate tighten the
    bracket.  Returns the narrowed (a, b).
    """
    side = 0
    s_prev = None
    for _ in range(ILLINOIS_MAX_ITER):
        s = _falsi(a, fa, b, fb)
        if s_prev is not None and abs(s - s_prev) <= 0.25 * EVENT_TIME_TOL:
            break
        s_prev = s
        fs = probe(s)
        if fs <= 0.0:
            b, fb = s, fs
            if side < 0:
                fa *= 0.5
            side = -1
        else:
            a, fa = s, fs
            if side > 0:
                fb *= 0.5
            side = 1
    for s_t in (s - 0.5 * EVENT_TIME_TOL, s + 0.5 * EVENT_TIME_TOL):
        if a < s_t < b:
            if probe(s_t) <= 0.0:
                b = s_t
            else:
                a = s_t
    return a, b


def _bisect_crossing(grid, t_lo, x_lo, h):
    """Locate the first threshold crossing inside one step to EVENT_TIME_TOL.

    The state at a trial offset s is an RK4 substep of size s from the
    step's left node, so the located point is on the integrator's own
    trajectory up to its local error.  Returns ``(tau, x_minus)`` at the
    crossing, or ``(None, x_end)`` with the step's end state when the
    margin ``m(s) = min(x - ell1, ell2 - x)`` is positive at s = h.

    tau is bisection's on [0, h]: midpoints ``0.5*(lo + hi)``, ``hi``
    moving where m <= 0, until ``hi - lo <= EVENT_TIME_TOL``; tau is
    ``t_lo`` plus the final ``hi``.  It takes fewer probes.  When
    m(0) > 0 >= m(h), :func:`_illinois` narrows the sign change to a
    bracket [a, b] with m(a) > 0 >= m(b).  Bisection is then replayed: a
    midpoint at or below a goes to lo, one at or above b goes to hi, and
    only a midpoint strictly inside (a, b) is probed, tightening the
    bracket.  Whenever m changes sign once on the step this gives
    bisection's tau bit for bit.  Otherwise no bracket is formed (m(0)
    <= 0, or m(h) is NaN) and every midpoint is probed: plain bisection.
    """
    path, policy = grid.path, grid.policy
    states = {}

    def margin(s, x):
        ell1, _, _, ell2 = policy.thresholds_at(t_lo + s)
        return min(x - ell1, ell2 - x)

    def probe(s):
        x = states[s] = _rk4_step(path, t_lo, x_lo, s)
        return margin(s, x)

    m_h = probe(h)
    if m_h > 0.0:
        return None, states[h]
    a, b = 0.0, h
    if h > EVENT_TIME_TOL and m_h <= 0.0:    # m_h is not NaN
        m_0 = margin(0.0, x_lo)
        if m_0 > 0.0:
            a, b = _illinois(probe, a, m_0, b, m_h)
    lo, hi = 0.0, h
    while hi - lo > EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        elif probe(mid) <= 0.0:
            hi = b = mid
        else:
            lo = a = mid
    x_minus = states[hi] if hi in states else _rk4_step(path, t_lo, x_lo, hi)
    return t_lo + hi, x_minus


def _rollout_on_grid(grid, x0, max_events):
    path, policy, params = grid.path, grid.policy, grid.params
    T = params.T
    ts = grid.ts
    budget = max_events if max_events is not None else _auto_budget(grid, x0)

    events = []
    segments = []

    def fire(tau, x_minus):
        # every caller has just found x_minus on or outside the band at tau
        # with the same thresholds_at(tau), so the reset rule always fires
        target, xi = impulse_map(policy, tau, x_minus)
        ev = ImpulseEvent(
            tau=float(tau),
            x_minus=float(x_minus),
            x_plus=float(target),
            xi=float(xi),
            cost_p1=player1_impulse_cost(params, xi),
            cost_p2=intervention_cost(params, xi),
        )
        if events and ev.tau - events[-1].tau < CHATTER_TOL:
            raise ImpulseBudgetExceeded(
                f"chattering: events at tau={events[-1].tau!r} and tau={ev.tau!r}"
            )
        events.append(ev)
        if len(events) > budget:
            raise ImpulseBudgetExceeded(
                f"{len(events)} events exceed the analytic bound {budget}"
            )
        return ev

    t_cur, x_cur = grid.t0, x0
    ell1, _, _, ell2 = policy.thresholds_at(t_cur)
    if (x_cur <= ell1 or x_cur >= ell2) and t_cur < T - EVENT_TIME_TOL:
        ev = fire(t_cur, x_cur)
        segments.append((np.array([t_cur]), np.array([x_cur])))
        x_cur = ev.x_plus

    done = False
    while not done:
        # one pass of this loop builds one impulse-free segment from array pieces
        seg_t = [[t_cur]]
        seg_x = [[x_cur]]
        node = int(np.searchsorted(ts, t_cur, side="left"))
        located = abs(ts[node] - t_cur) > 1e-12     # off the grid, just after an event
        tau = None
        while True:
            if located:
                # step onto ts[node] through the locator; on a crossing, fire;
                # otherwise accept the node
                tau, x_new = _bisect_crossing(grid, t_cur, x_cur, float(ts[node]) - t_cur)
                if tau is not None:
                    break
                t_cur, x_cur = float(ts[node]), x_new
                seg_t.append([t_cur])
                seg_x.append([x_cur])
            if t_cur >= T:
                done = True
                break
            xs = grid.propagate(node, x_cur)
            if not np.all(np.isfinite(xs)):
                bad = node + int(np.flatnonzero(~np.isfinite(xs))[0])
                raise NonFiniteStateError(f"state non-finite at node {bad} (t={ts[bad]!r})")
            margins = np.minimum(xs[1:] - grid.ell1[node + 1:], grid.ell2[node + 1:] - xs[1:])
            exits = np.flatnonzero(margins <= 0.0)
            keep = len(xs) if exits.size == 0 else int(exits[0]) + 1
            if keep > 1:
                seg_t.append(ts[node + 1:node + keep])
                seg_x.append(xs[1:keep])
                t_cur, x_cur = float(ts[node + keep - 1]), float(xs[keep - 1])
            if exits.size == 0:
                done = True
                break
            # the next node is flagged as an exit; its nonpositive margin
            # may be spurious, so the locator decides
            node, located = node + keep, True

        if tau is not None:
            if tau >= T - EVENT_TIME_TOL:
                # an exit this close to the horizon carries no impulse
                x_cur = _rk4_step(path, tau, x_new, T - tau) if tau < T else x_new
                seg_t.append([T])
                seg_x.append([x_cur])
                t_cur = T
                done = True
            else:
                seg_t.append([tau])
                seg_x.append([x_new])
                t_cur, x_cur = tau, fire(tau, x_new).x_plus
        segments.append((np.concatenate(seg_t), np.concatenate(seg_x)))

    return Trajectory(segments, events, x_cur, path, params, grid)


def admissibility_check(traj: Trajectory, policy: ThresholdPolicy) -> AdmissibilityReport:
    """Confirm the events of ``traj`` are exactly the first exit times.

    Every pre-event sample must lie strictly inside the band, each
    x_minus must sit on the crossed boundary (or be the outside start
    state), each reset must land on the matching target, and event times
    must increase strictly and stay below the horizon.
    """
    violations = []
    start = traj.start_time
    T = policy.params.T

    prev_tau = None
    for i, ev in enumerate(traj.events):
        if ev.tau >= T:
            violations.append(f"event {i}: tau={ev.tau!r} not strictly before T")
        if prev_tau is not None and ev.tau <= prev_tau:
            violations.append(f"event {i}: tau={ev.tau!r} not after previous {prev_tau!r}")
        prev_tau = ev.tau
        ell1, alpha, beta, ell2 = policy.thresholds_at(ev.tau)
        initial_exit = ev.tau == start and (ev.x_minus <= ell1 or ev.x_minus >= ell2)
        on_lower = abs(ev.x_minus - ell1) <= BOUNDARY_MATCH_TOL or ev.x_minus < ell1
        on_upper = abs(ev.x_minus - ell2) <= BOUNDARY_MATCH_TOL or ev.x_minus > ell2
        if ev.xi > 0:
            if not (initial_exit or on_lower):
                violations.append(
                    f"event {i}: x_minus={ev.x_minus!r} not at the lower boundary {ell1!r}"
                )
            if abs(ev.x_plus - alpha) > BOUNDARY_MATCH_TOL:
                violations.append(f"event {i}: reset {ev.x_plus!r} differs from alpha {alpha!r}")
        else:
            if not (initial_exit or on_upper):
                violations.append(
                    f"event {i}: x_minus={ev.x_minus!r} not at the upper boundary {ell2!r}"
                )
            if abs(ev.x_plus - beta) > BOUNDARY_MATCH_TOL:
                violations.append(f"event {i}: reset {ev.x_plus!r} differs from beta {beta!r}")

    for k, (seg_t, seg_x) in enumerate(traj.segments):
        if len(seg_t) < 2:
            continue
        inner_t, inner_x = seg_t[:-1], seg_x[:-1]
        if seg_t[0] == start and traj.events and traj.events[0].tau == start:
            inner_t, inner_x = inner_t[1:], inner_x[1:]
        if len(inner_t) == 0:
            continue
        ell1, _, _, ell2 = policy.thresholds_at(inner_t)
        bad = np.flatnonzero((inner_x <= ell1) | (inner_x >= ell2))
        if bad.size:
            j = int(bad[0])
            violations.append(
                f"segment {k}: sample at t={inner_t[j]!r} (x={inner_x[j]!r}) "
                "is outside the open band before the segment end"
            )
    return AdmissibilityReport(ok=not violations, violations=violations)
