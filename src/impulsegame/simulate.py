"""Forward equilibrium rollout with event detection and cost accounting.

Between interventions the closed loop ``xdot = a_x(t)*x + b_x*q1(t)`` has
a closed flow: the state is ``Phi(t)*(c + H(t))`` with one constant c
(:meth:`.riccati.CoefficientPath.coefficients_at`).  The rollout is one
loop whose step follows from its position.  From a grid node,
:meth:`_RolloutGrid.scan` evaluates the node states to the first node on
or past a band edge (:func:`.policy.sides`), or to the horizon.  From off
the grid (after an event) or from the node before a flagged one,
:func:`_bisect_crossing` steps onto the next node: it accepts the node,
or locates the exit on the step to EVENT_TIME_TOL, at bisection's point
with far fewer probes (Illinois regula falsi and a replay of bisection's
midpoints, as in Shampine & Thompson 2000) and always on or past a band
edge.  Each probe evaluates the coefficients on Python floats at its own
time only (see :mod:`.riccati`) and keeps them.  A step takes its
start's terms (the flow's Phi and H and the band) from its caller: at a
node from the grid's arrays, which hold the float path's bits, and after
an event from the probe that located it.  Every start begins on the
grid's node 0, whose band also decides the jump at t0.  The impulse
resets the state exactly to the target of the band located at tau
(:func:`.policy.reset`), and the flow resumes from it; a located exit
within EVENT_TIME_TOL of T carries no impulse, while a start outside the
band fires at any t0 but T itself.

Running costs follow from the verification identity: phi1 solves Player
1's HJB along the feedback flow and phi2 Player 2's interior equation in
the band, so a segment's running cost for player i is phi_i at its first
sample minus phi_i at its last (:func:`_value_ends`).  Both quadratics
take their coefficients from :meth:`.riccati.CoefficientPath.quadratics_at`,
exact at any time.  The grid keeps them at t0 and T, so an event-free
rollout evaluates two quadratics per player; a rollout with events
evaluates the coefficients at its event times in one array call.

:func:`make_rollout_hook` returns one checked body for many starts, and
:func:`rollout` calls a fresh one once.  The body keeps the
:class:`_RolloutGrid` of the latest start time before T, which computes
what every start shares (see its docstring).  The trajectory does not
keep the grid; ``costs_from(t1)`` evaluates the coefficients at t1 once.

:func:`value_v1` gives Player 1's value at many starts at one time, each
start's J1 bit for bit.  On one grid it takes most starts without a
rollout: a run of starts inside the band, certified event-free by the
scans of its two ends (node states are monotone in the start), and the
starts outside the band, each its own jump in front of the rollout of
the first start that jumps to the same target, alpha(t0) or beta(t0).
Every other start rolls out through the same body.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImpulseBudgetExceeded, InvalidParameterError, NonFiniteStateError
from .model import (
    MAX_CELLS,
    GameParams,
    StateBox,
    intervention_cost,
    min_intervention_cost,
    player1_impulse_cost,
    validate_box,
)
from .policy import ThresholdPolicy, reset, sides
from .riccati import DEFAULT_STEPS

# Resolution of the event locator: tau is the right end of bisection's
# final interval on the step, no wider than this.  _bisect_crossing
# finds that same point with fewer probes, or a probed point within this
# of it where the band margin is not monotone at rounding level.  A
# located exit this close to T carries no impulse; the flow carries the
# state on to T.
EVENT_TIME_TOL = 1e-10
ILLINOIS_MAX_ITER = 40   # safety cap on the bracket narrowing; tau stays exact past it
CHATTER_TOL = 1e-8       # two events closer than this abort the rollout
BOUNDARY_MATCH_TOL = 1e-6
HORIZON_TOL = 1e-12      # a start this close to T is at the horizon: terminal costs only
SCAN_BLOCK = 64          # nodes in a scan's first block; each later block doubles the scan


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
    state is the closed-form flow from the sample before (:func:`_flow`).
    ``ends`` holds, per segment, phi1 and phi2 at its first and at its
    last sample (:func:`_value_ends`), or None for a lone sample; a
    segment's running costs are their differences.  ``j1``, ``j2`` and
    :meth:`costs_from` read them, and the trajectory keeps no grid.
    """

    def __init__(self, segments, events, terminal_state, path, params, ends):
        self.segments = segments
        self.events = events
        self.terminal_state = terminal_state
        self._path = path
        self._params = params
        self._ends = ends
        self.j1, self.j2 = self.costs_from(self.start_time)

    @property
    def start_time(self):
        return float(self.segments[0][0][0])

    def state_at(self, t):
        """State at time ``t``, right-continuous across interventions."""
        t = float(t)
        for seg_t, seg_x in reversed(self.segments):
            if seg_t[0] <= t <= seg_t[-1]:
                k = int(np.searchsorted(seg_t, t, side="right")) - 1
                return float(seg_x[k]) if seg_t[k] == t else _flow(
                    self._path, float(seg_t[k]), float(seg_x[k]), t)
        raise ValueError(f"t={t!r} outside the trajectory span")

    def costs_from(self, t1):
        """Running, impulse and terminal costs accumulated on [t1, T].

        The segment holding t1 starts at t1 and its state there, where
        the coefficients are evaluated once.  Events with tau == t1 are
        counted; to measure the tail after a jump, pass a time strictly
        inside the following segment.
        """
        t1 = float(t1)
        pr = self._params
        if t1 < self.start_time - HORIZON_TOL:
            raise ValueError(f"t1={t1!r} precedes the trajectory start")
        if t1 > pr.T + HORIZON_TOL:
            raise ValueError(f"t1={t1!r} lies past the horizon T={pr.T!r}")
        j1 = j2 = 0.0
        for (seg_t, _), ends in zip(self.segments, self._ends):
            if ends is None or seg_t[-1] <= t1:
                continue
            a1, a2, b1, b2 = ends
            if seg_t[0] < t1:
                a1, a2 = _values(*_quadratics_by_time(self._path, [t1])[t1], self.state_at(t1))
            j1 += a1 - b1
            j2 += a2 - b2
        for ev in self.events:
            if ev.tau >= t1:
                j1 += ev.cost_p1
                j2 += ev.cost_p2
        xT = self.terminal_state
        j1 += 0.5 * pr.s1 * (xT - pr.rho1) ** 2
        j2 += 0.5 * pr.s2 * (xT - pr.rho2) ** 2
        return j1, j2


def _flow(path, t0, x0, t):
    """The closed-loop state at ``t`` (a float or an array) on the flow through (t0, x0)."""
    phi0, shift0, _, _ = path.coefficients_at(t0)
    phi, shift, _, _ = path.coefficients_at(t)
    return phi * (x0 / phi0 - shift0 + shift)


def _quadratics_by_time(path, times):
    """{t: (p1, q1, n1, p2, q2, n2)} over ``times`` (floats), from one
    :meth:`.riccati.CoefficientPath.quadratics_at` call."""
    return dict(zip(times, zip(*(c.tolist() for c in path.quadratics_at(times)))))


def _values(p1, q1, n1, p2, q2, n2, x):
    """(phi1, phi2) at x from the coefficients of both value quadratics."""
    return 0.5 * p1 * x * x + q1 * x + n1, 0.5 * p2 * x * x + q2 * x + n2


def _value_ends(grid, segments):
    """Per segment, (phi1, phi2) at its first sample and at its last, as one
    4-tuple, or None for a lone sample.

    Between interventions phi1 and phi2 fall by exactly the running costs
    the players accrue, so a segment's running costs are their
    differences.  The grid's coefficients serve t0 and T; the other end
    times, the event times, are evaluated in one array call.
    """
    coeffs = grid.quadratics
    ends = [(float(seg_t[0]), float(seg_x[0]), float(seg_t[-1]), float(seg_x[-1]))
            if len(seg_t) > 1 else None for seg_t, seg_x in segments]
    fresh = sorted({t for e in ends if e for t in e[::2]}.difference(coeffs))
    if fresh:
        coeffs = {**coeffs, **_quadratics_by_time(grid.path, fresh)}
    return [None if e is None else (*_values(*coeffs[e[0]], e[1]), *_values(*coeffs[e[2]], e[3]))
            for e in ends]


class _RolloutGrid:
    """Precomputed rollout data on one (t0, step) grid, shared by every start.

    None of the following depends on the start state, so it is cached here
    once:

    - ``phi``, ``shift``: the flow's Phi and H at every node, from one
      :meth:`.riccati.CoefficientPath.coefficients_at` call; between
      events the node states are ``phi*(c + shift)`` with one constant c;
    - ``ell1``, ``alpha``, ``beta``, ``ell2``: the band at every node, from
      the p2 and q2 of that same call (:meth:`.policy.ThresholdPolicy.band`);
    - ``quadratics``: the coefficients of both value quadratics at t0 and
      at T (:meth:`.riccati.CoefficientPath.quadratics_at`), by time, for
      :func:`_value_ends`.
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
        self.phi, self.shift, p2, q2 = path.coefficients_at(ts)
        self.ell1, self.alpha, self.beta, self.ell2 = policy.band(p2, q2)
        self.quadratics = _quadratics_by_time(path, [t0, float(T)])

    def terms(self, k):
        """The flow's Phi and H and the band (ell1, alpha, beta, ell2) at node k, as
        Python floats: :func:`_bisect_crossing`'s terms at a node, and at t0 the jump's."""
        return self.phi.item(k), self.shift.item(k), (
            self.ell1.item(k), self.alpha.item(k), self.beta.item(k), self.ell2.item(k))

    def scan(self, i0, x):
        """Node states from node i0, starting at ``x``, through the first
        later node :func:`.policy.sides` flags, or through the horizon, and
        whether a node was flagged.

        The states are ``phi*(c + shift)`` with c fixed by ``x`` at i0,
        evaluated and tested in blocks: the first SCAN_BLOCK nodes past i0,
        then as many again as the scan holds, until a block holds a flagged
        node.  ``xs`` grows with the blocks.  Raises NonFiniteStateError
        naming the first non-finite node at or before the first flagged
        one, so the result does not depend on SCAN_BLOCK.
        """
        c = x / self.phi[i0] - self.shift[i0]
        phi, shift = self.phi[i0:], self.shift[i0:]
        ell1, ell2, last = self.ell1[i0:], self.ell2[i0:], len(phi) - 1
        a, b = 0, min(last, SCAN_BLOCK)
        xs = np.empty(b + 1)
        xs[0] = x
        while True:
            np.multiply(phi[a + 1:b + 1], c + shift[a + 1:b + 1], out=xs[a + 1:b + 1])
            below, above = sides(ell1[a + 1:b + 1], ell2[a + 1:b + 1], xs[a + 1:b + 1])
            flags = below | above
            first = int(flags.argmax())
            flagged = bool(flags[first])
            end = a + 2 + first if flagged else b + 1     # through the first flagged node
            finite = np.isfinite(xs[a:end])
            if not finite.all():
                k = i0 + a + int(finite.argmin())
                raise NonFiniteStateError(
                    f"state non-finite at node {k} (t={float(self.ts[k])!r})")
            if flagged:
                return xs[:end], True
            if b == last:
                return xs, False
            a, b = b, min(last, 2 * b)
            xs = np.concatenate((xs, np.empty(b - a)))


def impulse_bound(params: GameParams, box: StateBox) -> int:
    """Analytic cap on the number of equilibrium interventions over ``box``."""
    return impulse_bound_parts(params, box)[0]


def impulse_bound_parts(params: GameParams, box: StateBox):
    """(K, sup of running cost, sup of terminal cost, minimal impulse cost).

    The suprema over the box are attained at the endpoint farther from
    Player 2's target, so they are evaluated exactly.  Raises
    InvalidParameterError where K = ceil(2*(T*h2_sup + s2_sup)/mu) overflows.
    """
    validate_box(box)
    far = max(abs(box.x_lo - params.rho2), abs(box.x_hi - params.rho2))
    h2_sup = 0.5 * params.w2 * far * far
    s2_sup = 0.5 * params.s2 * far * far
    mu = min_intervention_cost(params)
    k = 2.0 * (params.T * h2_sup + s2_sup) / mu
    if not math.isfinite(k):
        raise InvalidParameterError(f"the impulse bound over {box} overflows")
    return math.ceil(k), h2_sup, s2_sup, mu


def _cap(policy, lo, hi):
    """The analytic cap on events for starts in [lo, hi], which does not fall as
    the box grows: over [min(ell1) - 1, max(ell2) + 1] of the policy's nodes,
    widened to hold [lo - 1, hi + 1], a box that holds every state they reach.
    Raises InvalidParameterError where it overflows."""
    return impulse_bound(policy.params, StateBox(min(float(policy.ell1.min()), lo) - 1.0,
                                                 max(float(policy.ell2.max()), hi) + 1.0))


def _rollouts(path, policy, params, step):
    """The one rollout body: a checked ``run(t0, x0)``, and ``grid_at(t0)``,
    the :class:`_RolloutGrid` it runs on at t0 < T, kept for the latest t0
    only.  The step defaults to T/DEFAULT_STEPS."""
    T = params.T
    step = T / DEFAULT_STEPS if step is None else float(step)
    if not (math.isfinite(step) and step > 0.0 and T / step < MAX_CELLS):
        raise ValueError(f"step must be finite and > 0, with T/step < MAX_CELLS (got {step!r})")
    latest = None

    def grid_at(t0):
        nonlocal latest
        if latest is None or latest.t0 != t0:
            latest = _RolloutGrid(path, policy, params, float(t0), step)
        return latest

    def run(t0, x0):
        if not 0.0 <= t0 <= T:
            raise ValueError(f"t0 must lie in [0, T] (got {t0!r})")
        x0 = float(x0)
        if not math.isfinite(x0):
            raise ValueError(f"x0 must be finite (got {x0!r})")
        if T - t0 <= HORIZON_TOL:
            # no impulse fires at the horizon itself: the state stays, terminal costs
            # only, once the start passes the check on its cap that every start makes
            _cap(policy, x0, x0)
            return Trajectory([(np.array([T]), np.array([x0]))], [], x0, path, params, [None])
        return _rollout_on_grid(grid_at(t0), x0)

    return run, grid_at


def rollout(path, policy, params: GameParams, t0, x0, step=None):
    """Simulate equilibrium play from (t0, x0) until the horizon.

    If x0 is on or outside a threshold at t0 an intervention fires
    immediately.  Raises ValueError for t0 outside [0, T], a non-finite
    x0 or a step that is not finite and positive or cuts T into MAX_CELLS
    cells or more; InvalidParameterError where the analytic bound on its
    events overflows; ImpulseBudgetExceeded when the event count passes
    that bound or two events chatter; NonFiniteStateError if the state
    diverges.  Starting within HORIZON_TOL of the horizon yields the bare
    terminal evaluation.
    """
    return _rollouts(path, policy, params, step)[0](t0, x0)


def make_rollout_hook(path, policy, params, step=None):
    """:func:`rollout`'s checked body as a closure (t0, x0).

    Starts at one time share a grid; only the latest start time's is kept.
    """
    return _rollouts(path, policy, params, step)[0]


def value_v1(path, policy, params, t, xs, step=None):
    """Player 1's value at (t, x) for every x of ``xs``: the J1 of its rollout.

    The batched counterpart of :func:`.policy.value_v2`.  It equals
    ``[make_rollout_hook(path, policy, params, step)(t, x).j1 for x in xs]``
    bit for bit and raises what that raises; the hook stays the reference.
    Two kinds of start take no rollout of their own:

    - a run of starts inside the band that meet no band edge before T
      (:func:`_event_free`).  Each J1 is ``costs_from``'s sum on one
      segment: phi1 at (t, x) minus phi1 at (T, x_T), then the terminal
      cost, taken on Python floats as ``costs_from`` takes it (``** 2`` is
      libm's ``pow``, not numpy's product);
    - starts outside the band, once the first of them that jumps to the
      same target has rolled out: each adds its own t event, z1*|xi|, in
      front of that rollout's part from the target, whose event count is
      within the smallest cap any start has, ``_cap(policy, inf, -inf)``.

    Every other start rolls out through the hook, in the order of ``xs``;
    so does every start when t is within HORIZON_TOL of T or some start's
    cap overflows.
    """
    run, grid_at = _rollouts(path, policy, params, step)
    xs = np.asarray(xs, dtype=float)
    j1 = np.empty(len(xs))
    done = np.zeros(len(xs), bool)
    finite = np.isfinite(xs)
    targets = [None] * len(xs)
    T = params.T
    grid = None
    if 0.0 <= t <= T and T - t > HORIZON_TOL and finite.any():
        grid = grid_at(t)
        try:    # the widest box: no start's own cap raises unless this one does
            _cap(policy, float(xs[finite].min()), float(xs[finite].max()))
        except InvalidParameterError:
            grid = None
    if grid is not None:
        least = _cap(policy, math.inf, -math.inf)     # the smallest cap of any start
        ell1, alpha, beta, ell2 = grid.terms(0)[2]
        below, above = sides(ell1, ell2, xs)
        done = _event_free(grid, xs, finite & ~below & ~above)
        x = xs[done]
        x_T = grid.phi[-1] * (x / grid.phi[0] - grid.shift[0] + grid.shift[-1])
        j1[done] = 0.0 + (_values(*grid.quadratics[grid.t0], x)[0]
                          - _values(*grid.quadratics[float(T)], x_T)[0])
        j1[done] += [0.5 * params.s1 * (v - params.rho1) ** 2 for v in x_T.tolist()]
        targets = [alpha if lo else beta if hi else None
                   for lo, hi in zip((finite & below).tolist(), (finite & above).tolist())]
    followers = {}      # reset target: its first start's rollout, the starts that go on along it
    for i in np.flatnonzero(~done).tolist():
        target = targets[i]
        if target in followers:
            followers[target][1].append(i)
            continue
        traj = run(t, xs[i])
        j1[i] = traj.j1
        if target is not None and len(traj.events) <= least:    # the first event is the jump at t
            followers[target] = traj, []
    for target, (traj, idx) in followers.items():     # in costs_from's order
        v = 0.0
        for (seg_t, _), e in zip(traj.segments, traj._ends):
            if e is not None and seg_t[-1] > grid.t0:
                v += e[0] - e[2]
        v = v + params.z1 * np.abs(target - xs[idx])
        for ev in traj.events[1:]:
            v += ev.cost_p1
        j1[idx] = v + 0.5 * params.s1 * (traj.terminal_state - params.rho1) ** 2
    return j1


def _event_free(grid, xs, inside):
    """Mask of the starts of ``xs`` (a subset of ``inside``) whose scans from
    (grid.t0, x) reach T with every node state finite and inside the band.

    Where Phi > 0 and every node value is finite, a node state
    fl(Phi*fl(c + H)) does not fall as c grows, nor c = x/Phi(t0) - H(t0)
    as x grows: a start between two whose scans stay clear stays clear.
    The envelopes ell1/Phi - H and ell2/Phi - H bound the c of starts that
    stay inside; they choose the run, and the scans from its lowest and
    highest start certify it, a failing end giving way to the next start.
    """
    phi, shift, ell1, ell2 = grid.phi, grid.shift, grid.ell1, grid.ell2
    run = np.zeros_like(inside)
    if not (np.all(phi > 0.0) and all(np.isfinite(a).all() for a in (phi, shift, ell1, ell2))):
        return run
    c = xs / phi[0] - shift[0]
    run = inside & (c > np.max(ell1[1:] / phi[1:] - shift[1:])) \
        & (c < np.min(ell2[1:] / phi[1:] - shift[1:]))
    while run.any():
        lo, hi = float(xs[run].min()), float(xs[run].max())
        clear_lo, clear_hi = _clear(grid, lo), _clear(grid, hi)
        if clear_lo and clear_hi:
            return inside & (xs >= lo) & (xs <= hi)
        if not clear_lo:
            run &= xs > lo
        if not clear_hi:
            run &= xs < hi
    return run


def _clear(grid, x):
    """Whether the scan from (grid.t0, x) reaches T with no flagged or non-finite node."""
    try:
        return not grid.scan(0, x)[1]
    except NonFiniteStateError:
        return False


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


def _bisect_crossing(grid, t_lo, x_lo, h, terms):
    """Locate a threshold crossing inside one step to EVENT_TIME_TOL.

    ``terms`` are the flow's Phi and H and the band at t_lo: the grid's at a
    node (:meth:`_RolloutGrid.terms`), else the ones a probe returned.  The
    state at a trial offset s is the closed-form flow from ``(t_lo, x_lo)``
    to ``t_lo + s``, its constant fixed by the Phi and H of ``terms``.
    Returns ``(tau, x_minus, terms)`` at the crossing, or ``(None, x_end,
    terms)`` with the step's end state when the margin ``m(s) = min(x -
    ell1, ell2 - x)`` is positive at s = h; the terms are those of the
    returned point, from its probe's one ``coefficients_at`` call.
    Where m changes sign once on the step, tau is within EVENT_TIME_TOL
    past that crossing.  Where it changes sign more than once, tau is
    some point with m <= 0, not necessarily past the first crossing.

    tau is bisection's on [0, h]: midpoints ``0.5*(lo + hi)``, ``hi``
    moving where m <= 0, until ``hi - lo <= EVENT_TIME_TOL``; tau is
    ``t_lo`` plus the final ``hi``.  It takes fewer probes.  When
    m(0) > 0 >= m(h), :func:`_illinois` narrows the sign change to a
    bracket [a, b] with m(a) > 0 >= m(b).  Bisection is then replayed: a
    midpoint at or below a goes to lo, one at or above b goes to hi, and
    only a midpoint strictly inside (a, b) is probed, tightening the
    bracket.  That is bisection's tau bit for bit when every unprobed
    midpoint has the sign the bracket implies, which can fail where m is
    not monotone at rounding level: an unprobed final hi with m > 0 is
    replaced by b, probed and within EVENT_TIME_TOL of it.  Without a
    bracket (m(0) <= 0, or m(h) is NaN) every midpoint is probed: plain
    bisection.  Every evaluation is on the float path, which equals the
    array path bit for bit.
    """
    probed = {}     # offset: (state, terms) there
    c = x_lo / terms[0] - terms[1]

    def margin(x, ell1, _alpha, _beta, ell2):
        # <= 0 exactly where sides() fires; Illinois needs its signed value
        return min(x - ell1, ell2 - x)

    def probe(s):
        phi, shift, p2, q2 = grid.path.coefficients_at(t_lo + s)
        x = phi * (c + shift)
        band = grid.policy.band(p2, q2)
        probed[s] = x, (phi, shift, band)
        return margin(x, *band)

    m_h = probe(h)
    if m_h > 0.0:
        return None, *probed[h]
    a, b = 0.0, h
    if h > EVENT_TIME_TOL and m_h <= 0.0:    # m_h is not NaN
        m_0 = margin(x_lo, *terms[2])
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
    if hi not in probed and probe(hi) > 0.0:
        hi = b      # probed, with m(b) <= 0, and within EVENT_TIME_TOL of hi
    return t_lo + hi, *probed[hi]


def _event(params, tau, x_minus, jump):
    """The intervention at tau from x_minus, ``jump`` being :func:`.policy.reset`'s."""
    target, xi = jump
    return ImpulseEvent(float(tau), float(x_minus), float(target), float(xi),
                        player1_impulse_cost(params, xi), intervention_cost(params, xi))


def _record(events, ev, cap):
    """Append ``ev`` to ``events``; raise ImpulseBudgetExceeded on chatter or past ``cap``."""
    if events and ev.tau - events[-1].tau < CHATTER_TOL:
        raise ImpulseBudgetExceeded(
            f"chattering: events at tau={events[-1].tau!r} and tau={ev.tau!r}"
        )
    events.append(ev)
    if len(events) > cap:
        raise ImpulseBudgetExceeded(
            f"{len(events)} events exceed the analytic bound {cap}"
        )
    return ev


def _rollout_on_grid(grid, x0):
    """The rollout from (grid.t0, x0), its events capped by ``_cap(policy, x0, x0)``.

    A start outside the band at node 0 fires at t0: its first segment is
    the lone sample (t0, x0), and the flow goes on from the reset target.
    The first step scans from node 0.  Each step of the locator starts from
    the terms at t_cur: the grid's at a node, the ones it located at tau
    after an event.  The reset at tau reads the band among them."""
    path, params = grid.path, grid.params
    T, ts = params.T, grid.ts
    cap = _cap(grid.policy, x0, x0)
    t_cur, x_cur, events, segments = grid.t0, x0, [], []
    if (jump := reset(grid.terms(0)[2], x0)) is not None:
        segments.append((np.array([t_cur]), np.array([x0])))
        x_cur = _record(events, _event(params, t_cur, x0, jump), cap).x_plus
    seg_t, seg_x = [[t_cur]], [[x_cur]]     # the open segment, in array pieces
    node, terms = 0, None     # the node the next step ends on, or starts from if t_cur is on it
    while t_cur < T:
        if ts[node] == t_cur:
            # on the grid: scan to the first node sides() flags, or to the
            # horizon; a flagged node is left to the locator
            xs, flagged = grid.scan(node, x_cur)
            n = len(xs) - flagged
            seg_t.append(ts[node + 1:node + n])
            seg_x.append(xs[1:n])
            k = node + n - 1
            t_cur, x_cur, terms = float(ts[k]), float(xs[n - 1]), grid.terms(k)
            node += len(xs) - 1     # the flagged node, or the horizon
            continue
        # off the grid after an event, or before a flagged node (the flag
        # may be spurious): the locator steps onto ts[node] and decides
        tau, x_new, located = _bisect_crossing(grid, t_cur, x_cur, float(ts[node]) - t_cur, terms)
        if tau is None:
            t_cur, x_cur = float(ts[node]), x_new
        elif tau >= T - EVENT_TIME_TOL:
            # an exit this close to the horizon carries no impulse
            if tau < T:
                x_new = _flow(path, tau, x_new, T)
            t_cur, x_cur = T, x_new
        else:
            # the exit closes the segment; the next opens at the reset target.
            # The locator's margin at tau is <= 0 or NaN, and the band it
            # located there has no reset only where it is NaN
            if (jump := reset(located[2], x_new)) is None:
                raise NonFiniteStateError(
                    f"no reset at the located exit tau={tau!r}, x={x_new!r}: the "
                    f"thresholds there are not finite")
            segments.append((np.concatenate(seg_t + [[tau]]), np.concatenate(seg_x + [[x_new]])))
            seg_t, seg_x = [], []
            ev = _record(events, _event(params, tau, x_new, jump), cap)
            t_cur, x_cur, terms = tau, ev.x_plus, located
            node += tau > ts[node]     # tau past the flagged node only by rounding
        seg_t.append([t_cur])
        seg_x.append([x_cur])
    segments.append((np.concatenate(seg_t), np.concatenate(seg_x)))
    return Trajectory(segments, events, x_cur, path, params, _value_ends(grid, segments))


def admissibility_check(traj: Trajectory, policy: ThresholdPolicy) -> AdmissibilityReport:
    """Confirm the events of ``traj`` are exactly the first exit times.

    Every sample of a segment but its last, a reset target included, must
    lie strictly inside the band (:func:`sides` fires on none); each
    x_minus must sit on the crossed boundary or, for a start outside the
    band, beyond it; each reset must land on the matching target; and
    event times must increase strictly and stay below the horizon.
    """
    violations = []
    T = policy.params.T

    taus = np.array([ev.tau for ev in traj.events], dtype=float)
    bands = zip(*(v.tolist() for v in policy.thresholds_at(taus)))
    prev_tau = None
    for i, (ev, (ell1, alpha, beta, ell2)) in enumerate(zip(traj.events, bands)):
        if ev.tau >= T:
            violations.append(f"event {i}: tau={ev.tau!r} not strictly before T")
        if prev_tau is not None and ev.tau <= prev_tau:
            violations.append(f"event {i}: tau={ev.tau!r} not after previous {prev_tau!r}")
        prev_tau = ev.tau
        on_lower = abs(ev.x_minus - ell1) <= BOUNDARY_MATCH_TOL or ev.x_minus < ell1
        on_upper = abs(ev.x_minus - ell2) <= BOUNDARY_MATCH_TOL or ev.x_minus > ell2
        if ev.xi > 0:
            if not on_lower:
                violations.append(
                    f"event {i}: x_minus={ev.x_minus!r} not at the lower boundary {ell1!r}"
                )
            if abs(ev.x_plus - alpha) > BOUNDARY_MATCH_TOL:
                violations.append(f"event {i}: reset {ev.x_plus!r} differs from alpha {alpha!r}")
        else:
            if not on_upper:
                violations.append(
                    f"event {i}: x_minus={ev.x_minus!r} not at the upper boundary {ell2!r}"
                )
            if abs(ev.x_plus - beta) > BOUNDARY_MATCH_TOL:
                violations.append(f"event {i}: reset {ev.x_plus!r} differs from beta {beta!r}")

    inner_t, inner_x = (np.concatenate([seg[i][:-1] for seg in traj.segments]) for i in (0, 1))
    ell1, _, _, ell2 = policy.thresholds_at(inner_t)
    bad = np.flatnonzero(np.logical_or(*sides(ell1, ell2, inner_x)))
    seg = np.searchsorted(np.cumsum([len(seg_t) - 1 for seg_t, _ in traj.segments]), bad, "right")
    for i in np.unique(seg, return_index=True)[1]:     # each segment's first bad sample
        j = bad[i]
        violations.append(
            f"segment {seg[i]}: sample at t={float(inner_t[j])!r} (x={float(inner_x[j])!r}) "
            "is outside the open band before the segment end"
        )
    return AdmissibilityReport(ok=not violations, violations=violations)
