"""Numerical certification of the computed equilibrium.

Checks, on a rectangular (t, x) grid over the horizon and a declared
state box: the interior residual of Player 1's optimality equation, the
three coupled relations of Player 2's impulse-control inequality system
(residual sign, obstacle gap against the intervention operator, taken as
the exact minimum over the 1001-point target grid in linear time, and
their complementarity), Player 2's value continuous across both band
edges, the root conditions that certify the residual's sign outside the
band and the strict-convexity margin of Player 2's quadratic
coefficient.  Each check takes the whole grid in one call: the
times as a column ``t[:, None]`` against the row of states.  The coarse
dynamic programming oracle for Player 2's value, :func:`dp_oracle_v2`,
is a separate, independent check that :func:`run_verification` does not
call.  The intervention operator, :func:`_min_jump`, takes each state's
best target below and above it from :func:`_prefix_argmins`: on rows of
shifted values that fall strictly to their minimum, and rise strictly
after it, one comparison per side finds them, and a batch holding any
other row runs the running-argmin scan.  The oracle's layers check the
same condition and, where it holds, score only the layer's two winners
(the whole row's first argmin below and last argmin above); any other
layer is one :func:`_min_jump` call with every node a target.

The time derivatives in the residuals are central differences of the
value quadratics themselves (closed-form p1, p2, and q1, n1, q2, n2
interpolated with the node slopes of :func:`difference_slopes`, fourth-order
finite differences of the node values), never the defining equations,
so a residual measures how well the computed node values solve those
equations, at solver nodes as well as between them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .model import GameParams, StateBox, validate_box
from .policy import gamma_star, labels, phi2, sides, value_v2
from .riccati import CoefficientPath, RiccatiConstants, hermite
from .simulate import impulse_bound

RESIDUAL_TOL = 1e-5
GAP_BASE_TOL = 1e-6
XI_RESOLUTION = 1e-3     # intervention-target spacing, as a fraction of the box width
DEFAULT_GRID = 200       # intervals along each axis of the certification grid
# central-difference step for the time derivatives, as a fraction of T:
# the cube root of machine epsilon balances truncation against rounding
TIME_STEP = np.finfo(float).eps ** (1.0 / 3.0)
# one-sided fourth-order first-derivative stencils at the first and second
# of five uniform nodes, times 12h
_EDGE_STENCILS = ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0))
# 16u = 8 eps: the DP oracle's two-winner layers need fixed costs above
# this times the values' scale (see dp_oracle_v2)
_ROUNDING = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QviSample:
    """The three inequality-system quantities, the region and its interior mask:
    arrays of the broadcast shape of the times and states, 0-d for one of each.
    """

    residual: np.ndarray
    gap: np.ndarray
    complementarity: np.ndarray
    region: np.ndarray
    interior: np.ndarray


@dataclass(frozen=True)
class SufficiencySample:
    """Root conditions certifying the exterior residual sign: arrays of the
    times' shape, 0-d at one time.

    ``x11``/``x22`` are the relevant roots of the residual quadratics
    below and above the band; the sufficient conditions are
    ``ell1 <= x11`` and ``ell2 >= x22``.  A negative discriminant means
    the quadratic has no real root, the residual is positive throughout
    that region, and the corresponding condition holds vacuously
    (``applicable`` is False and the margin is +inf; no root is made up).
    A NaN discriminant is applicable with a NaN root and margin: it fails.
    """

    x11: np.ndarray
    x22: np.ndarray
    theta_alpha: np.ndarray
    theta_beta: np.ndarray
    margin_ell1: np.ndarray
    margin_ell2: np.ndarray
    alpha_applicable: np.ndarray
    beta_applicable: np.ndarray


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    worst: float
    t: float = None
    x: float = None
    note: str = ""


@dataclass
class VerificationReport:
    """Residual grids, margin curves and per-condition pass flags.

    Every flag is recomputable from the stored arrays and tolerances.
    ``p1_edge_gain`` is not a condition: per t, the larger of Player 1's
    gains from steering the state onto a band edge, phi1 there less phi1
    at Player 2's reset target and Player 1's share ``z1*|xi|`` of the
    jump.  Where it is positive, Player 1's feedback is not a best
    response to the band.
    """

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    region: np.ndarray
    hjb1: np.ndarray
    qvi_residual: np.ndarray
    gap: np.ndarray
    complementarity: np.ndarray
    x11: np.ndarray
    x22: np.ndarray
    theta_alpha: np.ndarray
    theta_beta: np.ndarray
    margin_ell1: np.ndarray
    margin_ell2: np.ndarray
    convexity_margin: np.ndarray
    continuity: np.ndarray
    p2: np.ndarray
    p1_edge_gain: np.ndarray
    tolerances: dict
    conditions: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)


def difference_slopes(path):
    """(q1', n1', q2', n2') at the path's nodes by fourth-order finite differences.

    The central five-point stencil inside, the one-sided stencils at the
    two nodes at each end (mirrored at the far end).  Unlike the
    interpolants' slopes these come from the node values alone, never the
    defining equations, so an error in the node values shows in them.
    """
    ts = path.time_grid
    if ts.size < 5:
        raise ValueError(f"difference slopes need at least 5 nodes (got {ts.size})")
    slopes = []
    for ys in (path.q1, path.n1, path.q2, path.n2):
        out = np.empty_like(ys)
        out[2:-2] = ys[:-4] - 8.0 * ys[1:-3] + 8.0 * ys[3:-1] - ys[4:]
        for k, stencil in enumerate(_EDGE_STENCILS):
            out[k] = np.dot(stencil, ys[:5])
            out[-1 - k] = -np.dot(stencil[::-1], ys[-5:])
        slopes.append(out / (12.0 * (ts[1] - ts[0])))
    return tuple(slopes)


def _phi_rates(path, t, x):
    """(dphi1/dt, dphi2/dt) at (t, x) by central differences; broadcasts.

    Both value quadratics are differenced through their coefficients:
    the closed forms of p1 and p2, and cubic Hermite interpolants of the
    q1, n1, q2 and n2 node values whose node slopes are
    :func:`difference_slopes`, so the rates depend on the node values
    alone.  The interpolants extrapolate past either end of the horizon.
    """
    h = TIME_STEP * path.params.T
    ts = path.time_grid
    integrated = list(zip((path.q1, path.n1, path.q2, path.n2), difference_slopes(path)))

    def coefficients(s):
        q1, n1, q2, n2 = (hermite(ts, ys, dys, s) for ys, dys in integrated)
        return np.array([path.p1_at(s), q1, n1, path.p2_at(s), q2, n2])

    p1, q1, n1, p2, q2, n2 = (coefficients(t + h) - coefficients(t - h)) / (2.0 * h)
    return 0.5 * p1 * x * x + q1 * x + n1, 0.5 * p2 * x * x + q2 * x + n2


def _hjb1(path, params, t, x):
    """Player 1's residual at (t, x) with no region check; broadcasts."""
    u = gamma_star(path, params, t, x)
    dphi1_dt, _ = _phi_rates(path, t, x)
    dphi1_dx = path.p1_at(t) * x + path.q1_at(t)
    return (
        dphi1_dt
        + 0.5 * params.w1 * (x - params.rho1) ** 2
        + 0.5 * params.r1 * u * u
        + dphi1_dx * (params.a * x + params.b * u)
    )


def _running_argmin(w):
    """The index of the first minimum of ``w[..., :i + 1]``, for every i, along the last axis."""
    run = np.minimum.accumulate(w, axis=-1)
    drop = np.ones(run.shape, dtype=bool)     # where a new running minimum starts
    drop[..., 1:] = run[..., 1:] < run[..., :-1]
    return np.maximum.accumulate(np.where(drop, np.arange(w.shape[-1]), 0), axis=-1)


def _prefix_argmins(w, ends):
    """The first minimum's index in ``w[..., :e + 1]`` for each e in ``ends``, per row of ``w``.

    ``ends`` broadcasts against the rows.  With p a row's first argmin,
    the answer is min(e, p) for every e when the row strictly decreases
    on [0, p], that is when the first i at which ``w[i + 1] < w[i]``
    fails (at the last index it fails) is p.  That i is never after p,
    so one comparison of the two index lists checks every row.  Unless
    every row qualifies (ties, or a NaN after index 0, where ``argmin``
    stops, do not), the rows run :func:`_running_argmin`.
    """
    p = w.argmin(axis=-1, keepdims=True)
    falls = np.zeros(w.shape, dtype=bool)
    np.less(w[..., 1:], w[..., :-1], out=falls[..., :-1])
    if falls.argmin(axis=-1, keepdims=True).tolist() == p.tolist():
        return np.minimum(ends, p)
    run = _running_argmin(w)
    return np.take_along_axis(run, np.broadcast_to(ends, w.shape[:-1] + np.shape(ends)[-1:]), -1)


def _falls_to(w, p, buf):
    """Whether ``w`` falls strictly on [0, p], compared into the bool buffer ``buf``."""
    np.less(w[1:p + 1], w[:p], out=buf[:p])
    return np.count_nonzero(buf[:p]) == p


def _min_jump(params, targets, v_targets, x, lo, hi):
    """Min over m of ``v_targets[..., m] + intervention_cost(targets[m] - x)``.

    ``targets`` is strictly increasing; ``x`` holds a row of states per row
    of ``v_targets``.  ``lo`` and ``hi``, broadcast to x, place it among
    the targets, ``targets[:lo] < x < targets[hi:]``, so ``lo < hi`` only
    on a target.  The jump cost is ``D - d*xi`` downward and ``C + c*xi``
    upward, so the best target below x minimises ``v - d*y`` over a prefix
    and the best above x minimises ``v + c*y`` over a suffix; a target
    equal to x is the zero-size jump, ``min(C, D)``.  On finite values it
    finds the two winners by :func:`_prefix_argmins` (the suffix on
    reversed rows) and scores the (at most) three winners with the dense
    minimum's arithmetic, O(m + len(x)) per row.
    """
    m = targets.size
    start = m * np.arange(np.prod(x.shape[:-1], dtype=int)).reshape(x.shape[:-1] + (1,))
    # prefix ends, clipped to the row: an absent candidate's score is masked anyway
    below = _prefix_argmins(v_targets - params.d * targets, np.maximum(lo - 1, 0))
    above = m - 1 - _prefix_argmins((v_targets + params.c * targets)[..., ::-1],
                                    m - 1 - np.minimum(hi, m - 1))     # in the reversed rows
    y_below, y_above = targets.take(below), targets.take(above)
    scores = (v_targets.take(start + below) + (params.D - params.d * (y_below - x)),
              v_targets.take(start + np.minimum(lo, m - 1)) + min(params.C, params.D),
              v_targets.take(start + above) + (params.C + params.c * (y_above - x)))
    for score, absent in zip(scores, (lo <= 0, hi <= lo, hi >= m)):
        np.copyto(score, np.inf, where=absent)
    return np.minimum(np.minimum(scores[0], scores[1]), scores[2])


def brute_force_rv2(path, policy, params, t, x, box: StateBox):
    """Intervention operator at time(s) ``t``: the exact minimum over the
    1001-point target grid of (value at the target) + (cost of jumping
    there), found in linear time.  Vectorized in x; a column of times
    ``t[:, None]`` evaluates every row of a (t, x) grid in one call, all
    rows sharing one placement of the states among the targets.  An array
    of the broadcast shape of ``t`` and ``x``, 0-d for scalars."""
    validate_box(box)
    targets = np.linspace(box.x_lo, box.x_hi, round(1.0 / XI_RESOLUTION) + 1)
    v2_targets = value_v2(path, policy, params, t, targets)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = (np.searchsorted(targets, x_arr, side=side) for side in ("left", "right"))
    lead = np.broadcast_shapes(v2_targets.shape[:-1], x_arr.shape[:-1])
    x_arr, v2_targets = (np.broadcast_to(a, lead + a.shape[-1:]) for a in (x_arr, v2_targets))
    out = _min_jump(params, targets, v2_targets, x_arr, lo, hi)
    return out.reshape(np.broadcast_shapes(np.shape(t), np.shape(x)))


def qvi_check(path, policy, params, t, x, box: StateBox) -> QviSample:
    """Evaluate the inequality-system triple at time(s) ``t`` and state(s) ``x``.

    ``t`` is a scalar or a column ``t[:, None]``, ``x`` a scalar or an
    array; the sample's fields are arrays of their broadcast shape.
    Inside the band the residual should vanish and the gap be strictly
    negative; outside, the residual should be nonnegative and the gap zero
    up to the target-grid resolution.
    """
    ell1, alpha, beta, ell2 = policy.thresholds_at(t)
    x_arr = np.asarray(x, dtype=float)
    gap = value_v2(path, policy, params, t, x_arr) - brute_force_rv2(
        path, policy, params, t, x_arr, box)
    below, above = sides(ell1, ell2, x_arr)
    interior = ~(below | above)

    # outside the band V2 is phi2 at the reset target plus a jump cost
    # affine in x; the target's stationarity cancels its own motion, so
    # dV2/dt there is phi2's time derivative at the target
    _, dv2_dt = _phi_rates(path, t, np.where(below, alpha, np.where(above, beta, x_arr)))
    dv2_dx = np.where(below, -params.c,
                      np.where(above, params.d, path.p2_at(t) * x_arr + path.q2_at(t)))
    # Player 1's feedback only acts while the state is inside the band.
    drift = params.a * x_arr + np.where(interior, params.b * gamma_star(path, params, t, x_arr), 0.0)
    residual = dv2_dt + 0.5 * params.w2 * (x_arr - params.rho2) ** 2 + dv2_dx * drift
    return QviSample(residual, gap, gap * residual, labels(below, above), interior)


def sufficiency_margins(path, policy, params, t) -> SufficiencySample:
    """Root conditions for the exterior residual sign at time(s) ``t``.

    ``t`` is a scalar or an array; the sample's fields are arrays of its shape.
    """
    a, c, d, w2, rho2 = params.a, params.c, params.d, params.w2, params.rho2
    ell1, alpha, beta, ell2 = policy.thresholds_at(t)
    _, (dphi2_alpha, dphi2_beta) = _phi_rates(path, t, np.array([alpha, beta]))
    theta_alpha = c * c * a * a + 2.0 * w2 * (c * a * rho2 - dphi2_alpha)
    theta_beta = d * d * a * a - 2.0 * w2 * (d * a * rho2 + dphi2_beta)
    alpha_ok = np.logical_not(theta_alpha < 0.0)
    beta_ok = np.logical_not(theta_beta < 0.0)
    x11 = np.where(
        alpha_ok,
        ((c * a + w2 * rho2) - np.sqrt(np.maximum(theta_alpha, 0.0))) / w2,
        np.nan,
    )
    x22 = np.where(
        beta_ok,
        (-(d * a - w2 * rho2) + np.sqrt(np.maximum(theta_beta, 0.0))) / w2,
        np.nan,
    )
    return SufficiencySample(x11, x22, theta_alpha, theta_beta,
                             np.where(alpha_ok, x11 - ell1, np.inf),
                             np.where(beta_ok, ell2 - x22, np.inf), alpha_ok, beta_ok)


def convexity_margin(consts: RiccatiConstants, params: GameParams, t):
    """Margin of the strict-convexity condition on Player 2's value.

    Positive iff h_const*theta + w2*(1 - e^(t*theta)*c1^2 - 2*t*theta*c1)
    is positive, elementwise over ``t``; its sign must agree with the sign
    of p2(t).
    """
    t = np.asarray(t, dtype=float)
    theta, c1 = consts.theta, consts.c1
    e = np.exp(t * theta)
    return consts.h_const * theta + params.w2 * (1.0 - e * c1 * c1 - 2.0 * t * theta * c1)


@dataclass
class DpOracleResult:
    """Backward-induction value grid and the intervention region it induces."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray      # shape (nt + 1, nx + 1), row 0 is t = 0
    intervene: np.ndarray   # same shape, True where jumping beat waiting

    def continuation_bracket(self, k=0):
        """(first, last) continuation-node state at time layer ``k``."""
        free = np.flatnonzero(~self.intervene[k])
        if free.size == 0:
            raise ValueError(f"no continuation nodes in layer {k}")
        return float(self.x_grid[free[0]]), float(self.x_grid[free[-1]])


def dp_oracle_v2(params: GameParams, path: CoefficientPath, box: StateBox,
                 nt: int, nx: int) -> DpOracleResult:
    """Independent first-order dynamic-programming oracle for Player 2's value.

    Backward induction on an (nt+1) x (nx+1) grid: at each layer the
    waiting value advances the state one explicit Euler step through
    Player 1's feedback and adds one rectangle of running cost; the
    jumping value is the best target-node value plus the jump cost, the
    exact minimum over all nodes found in linear time per layer.
    Against the closed-form value this scheme is first-order accurate.
    Before the loop, one call finds every layer's advected states and
    which layers extrapolate below or above the grid.

    Two winners per layer.  The best target below node i is the first
    argmin of ``w = cont - d*y`` over ``w[:i]``, and above it the last
    argmin of ``v = cont + c*y`` over the suffix past i.  With p the first
    argmin of the whole of w and q the last of v, every node past p takes
    target p and every node before q takes target q.  A layer in which w
    falls strictly on [0, p], v rises strictly on [q, nx] (one comparison
    per side) and q <= p scores only those two: ``cont[q] + head`` on
    [0, q), +inf on [q, p] and ``cont[p] + tail`` on (p, nx], with
    ``head = C + c*(y_q - x)`` and ``tail = D - d*(y_p - x)``, the dense
    minimum's arithmetic, so the values equal the every-target minimum
    bit for bit.  head and tail depend on the layer only through q and p,
    which move a node at a time, so each is rebuilt only when its winner
    moves.  Adding w[p] <= w[q] to v[q] <= v[p] gives (c + d)*(y_q - y_p)
    <= 0, so q <= p but for rounding; on the shipped configs every layer
    takes this path.

    Why no node at or before p jumps down.  Its only candidate is i - 1,
    scored ``s = cont[i-1] + fl(D + fl(-d*fl(y[i-1] - y[i])))``, and
    exactly s - cont[i] = D + w[i-1] - w[i] > D.  In floating point, with
    u = 2**-53, W the largest |w| on [0, p] (at most max(|w[0]|, |w[p]|),
    as w falls there) and Y the largest |d*y|, the strict fall gives
    cont[i] < cont[i-1] + g + 2u(W + Y)(1 + 2u), with g = d*(y[i] - y[i-1])
    <= 2Y(1 + 2u), and the rounded jump cost is at least (D + g)(1 - 3u).
    So D > 16u(W + Y) makes cont[i-1] plus that cost exceed cont[i], and
    rounding is monotone, so s >= cont[i]: the candidate never beats
    waiting.  The mirror argument with C, v and c covers the nodes at or
    after q.  A layer takes the two-winner path only when D and C clear
    these bounds, plus the smallest normal number for products that
    underflow.  The zero-size jump is never scored: it costs min(C, D) > 0
    on top of the node's own waiting value.

    Any other layer (a tie or a rise on the way to a winner, q > p, a NaN,
    or a fixed cost within rounding of the values) is one :func:`_min_jump`
    call with every node a target: the same winners and arithmetic.  Its
    one extra candidate, node i's zero-size jump ``cont[i] + min(C, D)``,
    never beats waiting: min(C, D) > 0 and rounding is monotone, so it is
    at least cont[i] (a NaN or infinite cont[i] decides the node alone).
    """
    if nt < 16 or nx < 16:
        raise ValueError(f"oracle grids need nt, nx >= 16 (got nt={nt}, nx={nx})")
    validate_box(box)
    xg = np.linspace(box.x_lo, box.x_hi, nx + 1)
    dt = params.T / nt
    dx = (box.x_hi - box.x_lo) / nx
    values = np.empty((nt + 1, nx + 1))
    intervene = np.zeros((nt + 1, nx + 1), dtype=bool)
    values[nt] = 0.5 * params.s2 * (xg - params.rho2) ** 2
    run_cost = dt * 0.5 * params.w2 * (xg - params.rho2) ** 2
    advected = xg + dt * (params.a * xg
                          + params.b * gamma_star(path, params, np.arange(nt)[:, None] * dt, xg))
    low_layers = (advected.min(axis=1) < xg[0]).tolist()
    high_layers = (advected.max(axis=1) > xg[-1]).tolist()
    # c*y reversed: the suffixes past each node are prefixes of the reversed row
    d_y, c_y_rev = params.d * xg, (params.c * xg)[::-1].copy()
    # the fixed costs' rounding bounds 16u(W + Y) + tiny, as 8 eps W + these
    slack_d = _ROUNDING * np.abs(d_y).max() + np.finfo(float).tiny
    slack_c = _ROUNDING * np.abs(c_y_rev).max() + np.finfo(float).tiny
    nodes = np.arange(nx + 1)     # every node a target: nodes[:i] below node i
    falls = np.empty(nx, dtype=bool)
    jump = np.zeros(nx + 1)     # each layer writes all of it; a range it missed would read 0
    p_tail = q_head = -1
    for k in range(nt - 1, -1, -1):
        v_next = values[k + 1]
        x_adv = advected[k]
        v_adv = np.interp(x_adv, xg, v_next)
        if low_layers[k]:
            low = x_adv < xg[0]
            v_adv[low] = v_next[0] + (v_next[1] - v_next[0]) / dx * (x_adv[low] - xg[0])
        if high_layers[k]:
            high = x_adv > xg[-1]
            v_adv[high] = v_next[-1] + (v_next[-1] - v_next[-2]) / dx * (x_adv[high] - xg[-1])
        cont = v_adv + run_cost
        # a second jump never helps: each jump pays a fixed cost, so the
        # obstacle uses waiting values at the targets
        below, above = cont - d_y, cont[::-1] + c_y_rev
        p = int(below.argmin())
        r = int(above.argmin())
        q = nx - r
        if (q <= p and _falls_to(below, p, falls) and _falls_to(above, r, falls)
                and params.D > _ROUNDING * max(abs(below[0]), abs(below[p])) + slack_d
                and params.C > _ROUNDING * max(abs(above[0]), abs(above[r])) + slack_c):
            if p != p_tail:
                tail, p_tail = params.D + -params.d * (xg[p] - xg), p
            if q != q_head:
                head, q_head = params.C + params.c * (xg[q] - xg), q
            np.add(cont[q], head[:q], out=jump[:q])
            jump[q:p + 1] = np.inf
            np.add(cont[p], tail[p + 1:], out=jump[p + 1:])
        else:
            jump[:] = _min_jump(params, xg, cont, xg, nodes, nodes + 1)
        np.minimum(cont, jump, out=values[k])
        np.less(jump, cont, out=intervene[k])
    return DpOracleResult(t_grid=np.linspace(0.0, params.T, nt + 1), x_grid=xg,
                          values=values, intervene=intervene)


def run_verification(path, policy, params: GameParams, box: StateBox,
                     nt: int = DEFAULT_GRID, nx: int = DEFAULT_GRID) -> VerificationReport:
    """Evaluate every certification condition on an (nt+1) x (nx+1) grid.

    Each worst-value condition is one row of a table: its values on the
    (t, x) grid or one per time, whether the worst is the max or the
    min, its pass rule and its note.  The worst node is the first argmax
    or argmin of the values as stored, in t-major order, so a NaN is the
    worst node and fails its condition.  Nodes a condition does not
    cover (outside or inside the band) are masked to -inf explicitly.

    ``gap_tol`` is GAP_BASE_TOL plus ``max p2 * dy**2 / 8``: a jump's value
    is quadratic in its target with curvature p2, so a minimum over targets
    ``dy = XI_RESOLUTION * (x_hi - x_lo)`` apart overshoots by at most that.
    Raises InvalidParameterError where it or the box's impulse bound overflows.
    """
    validate_box(box)
    t_nodes = np.linspace(0.0, params.T, nt + 1)
    x_nodes = np.linspace(box.x_lo, box.x_hi, nx + 1)
    xi_resolution = XI_RESOLUTION * (box.x_hi - box.x_lo)
    p2_vals = path.p2_at(t_nodes)
    try:    # a float's ** raises where its * gives inf
        gap_tol = GAP_BASE_TOL + float(np.max(p2_vals)) * xi_resolution ** 2 / 8.0
    except OverflowError:
        gap_tol = np.inf
    if np.isinf(gap_tol):
        raise InvalidParameterError(f"the obstacle tolerance over {box} overflows")
    impulse_bound(params, box)      # fails on a box too far from rho2, before V2 squares it

    qvi = qvi_check(path, policy, params, t_nodes[:, None], x_nodes, box)
    residual, gap, comp, interior_mask = qvi.residual, qvi.gap, qvi.complementarity, qvi.interior
    hjb1 = np.where(interior_mask, _hjb1(path, params, t_nodes[:, None], x_nodes), np.nan)

    # V2's jump across each band edge: value_v2 takes its outside form there
    ell1, alpha, beta, ell2 = policy.thresholds_at(t_nodes)
    jumps = [np.abs(value_v2(path, policy, params, t_nodes, e) - phi2(path, t_nodes, e))
             for e in (ell1, ell2)]
    continuity = np.maximum(*jumps)
    p1, q1 = path.p1_at(t_nodes), path.q1_at(t_nodes)
    # phi1(a) - phi1(b) = (a - b) * (0.5*p1*(a + b) + q1), so n1 cancels
    edge_gain = np.maximum((alpha - ell1) * (-0.5 * p1 * (ell1 + alpha) - q1 - params.z1),
                           (ell2 - beta) * (0.5 * p1 * (beta + ell2) + q1 - params.z1))
    suff = sufficiency_margins(path, policy, params, t_nodes)
    convexity = convexity_margin(path.constants, params, t_nodes)

    comp_tol = float(np.max(np.abs(gap))) * RESIDUAL_TOL \
        + float(np.max(np.abs(residual))) * gap_tol
    # name, values on the (t, x) grid or per t, worst pick, pass rule, note
    table = (
        ("hjb1_interior_residual", np.where(interior_mask, np.abs(hjb1), -np.inf), np.argmax,
         lambda w: w <= RESIDUAL_TOL, f"max interior |residual|, tol {RESIDUAL_TOL:g}"),
        ("qvi_residual_nonnegative", residual, np.argmin,
         lambda w: w >= -RESIDUAL_TOL, f"min residual over all nodes, tol -{RESIDUAL_TOL:g}"),
        ("qvi_interior_equality", np.where(interior_mask, np.abs(residual), -np.inf), np.argmax,
         lambda w: w <= RESIDUAL_TOL, f"max interior |residual|, tol {RESIDUAL_TOL:g}"),
        ("obstacle_gap", gap, np.argmax,
         lambda w: w <= gap_tol, f"max gap over all nodes, tol {gap_tol:g}"),
        ("exterior_obstacle_equality", np.where(interior_mask, -np.inf, np.abs(gap)), np.argmax,
         lambda w: w <= gap_tol, f"max exterior |gap|, tol {gap_tol:g}"),
        ("complementarity", np.abs(comp), np.argmax,
         lambda w: w <= comp_tol, f"max |gap*residual|, tol {comp_tol:g}"),
        ("value_continuity", continuity, np.argmax, lambda w: w <= RESIDUAL_TOL,
         f"max |V2 - phi2| at ell1 and ell2, tol {RESIDUAL_TOL:g}"),
        ("band_margin_lower", suff.margin_ell1, np.argmin, lambda w: w >= 0.0,
         f"min (x11 - ell1) over applicable nodes; "
         f"{int((~suff.alpha_applicable).sum())} inapplicable"),
        ("band_margin_upper", suff.margin_ell2, np.argmin, lambda w: w >= 0.0,
         f"min (ell2 - x22) over applicable nodes; "
         f"{int((~suff.beta_applicable).sum())} inapplicable"),
        ("convexity_margin", convexity, np.argmin, lambda w: w > 0.0, "min margin, must be > 0"),
    )
    conditions = []
    for name, values, pick, passes, note in table:
        node = np.unravel_index(pick(values), values.shape)
        worst = float(values[node])
        x = float(x_nodes[node[1]]) if values.ndim == 2 else None
        conditions.append(ConditionResult(name, passes(worst), worst, float(t_nodes[node[0]]),
                                          x, note))

    disagree = np.sign(convexity) != np.sign(p2_vals)     # a count, reported at the first
    n_bad = int(disagree.sum())
    conditions.append(ConditionResult(
        "convexity_sign_agreement", n_bad == 0, float(n_bad),
        float(t_nodes[np.argmax(disagree)]), None,
        "nodes where the convexity margin and p2 disagree in sign"))

    return VerificationReport(
        t_nodes=t_nodes,
        x_nodes=x_nodes,
        region=qvi.region,
        hjb1=hjb1,
        qvi_residual=residual,
        gap=gap,
        complementarity=comp,
        x11=suff.x11,
        x22=suff.x22,
        theta_alpha=suff.theta_alpha,
        theta_beta=suff.theta_beta,
        margin_ell1=suff.margin_ell1,
        margin_ell2=suff.margin_ell2,
        convexity_margin=convexity,
        continuity=continuity,
        p2=p2_vals,
        p1_edge_gain=edge_gain,
        tolerances={
            "residual_tol": RESIDUAL_TOL,
            "gap_tol": gap_tol,
            "xi_resolution": xi_resolution,
        },
        conditions=conditions,
    )
