"""Numerical certification of the computed equilibrium.

Checks, on a rectangular (t, x) grid over the horizon and a declared
state box: the interior residual of Player 1's optimality equation, the
three coupled relations of Player 2's impulse-control inequality system
(residual sign, obstacle gap against the intervention operator, taken as
the exact minimum over the 1001-point target grid in linear time, and
their complementarity), the root conditions that certify the residual's
sign outside the band, the strict-convexity margin of Player 2's
quadratic coefficient, and an independent coarse dynamic programming
oracle for Player 2's value.  Each check takes the whole grid in one
call: the times as a column ``t[:, None]`` against the row of states.

The time derivatives in the residuals are central differences of the
value quadratics themselves (closed-form p1, p2, and q1, n1, q2, n2
interpolated with finite-difference node slopes), never the defining
equations, so a residual measures how well the computed node values
solve those equations, at solver nodes as well as between them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import RegionError
from .model import GameParams, StateBox, intervention_cost, validate_box
from .policy import (
    REGION_ABOVE,
    REGION_BELOW,
    REGION_INTERIOR,
    ThresholdPolicy,
    gamma_star,
    value_v2,
)
from .riccati import CoefficientPath, RiccatiConstants, hermite

RESIDUAL_TOL = 1e-5
GAP_BASE_TOL = 1e-6
XI_RESOLUTION = 1e-3     # intervention-target spacing, as a fraction of the box width
DEFAULT_GRID = 200       # intervals along each axis of the certification grid
# central-difference step for the time derivatives, as a fraction of T:
# the cube root of machine epsilon balances truncation against rounding
TIME_STEP = np.finfo(float).eps ** (1.0 / 3.0)


@dataclass(frozen=True)
class QviSample:
    """The three inequality-system quantities and the region at one time.

    Scalars for one state, arrays of the states' shape for several.
    """

    residual: float
    gap: float
    complementarity: float
    region: str


@dataclass(frozen=True)
class SufficiencySample:
    """Root conditions certifying the exterior residual sign.

    Scalars at one time, arrays of the times' shape at several.

    ``x11``/``x22`` are the relevant roots of the residual quadratics
    below and above the band; the sufficient conditions are
    ``ell1 <= x11`` and ``ell2 >= x22``.  A negative discriminant means
    the quadratic has no real root, the residual is positive throughout
    that region, and the corresponding condition holds vacuously
    (``applicable`` is False and the margin is +inf; no root is made up).
    """

    x11: float
    x22: float
    theta_alpha: float
    theta_beta: float
    margin_ell1: float
    margin_ell2: float
    alpha_applicable: bool
    beta_applicable: bool


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
    p2: np.ndarray
    tolerances: dict
    conditions: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)


def _phi_rates(path, t, x):
    """(dphi1/dt, dphi2/dt) at (t, x) by central differences; broadcasts.

    Both value quadratics are differenced through their coefficients:
    the closed forms of p1 and p2, and cubic Hermite interpolants of the
    q1, n1, q2 and n2 node values whose node slopes are the paths'
    finite-difference slopes, so the rates depend on the node values
    alone.  The interpolants extrapolate past either end of the horizon.
    """
    h = TIME_STEP * path.params.T
    ts = path.time_grid
    integrated = list(zip((path.q1, path.n1, path.q2, path.n2), path.difference_slopes))

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


def hjb1_residual(path: CoefficientPath, policy: ThresholdPolicy,
                  params: GameParams, t, x) -> float:
    """Signed residual of Player 1's optimality equation at an interior point.

    The time derivative is a central difference of Player 1's value
    quadratic, independent of the defining equations, so the residual
    is zero only up to integration, interpolation and differencing
    error.  Raises RegionError outside the band, where Player 1's value
    is not differentiable in this sense.
    """
    if policy.region(t, x) != REGION_INTERIOR:
        raise RegionError(f"(t={t!r}, x={x!r}) is not in the continuation region")
    return float(_hjb1(path, params, t, x))


def _running_argmin(w):
    """Index of the first minimum of ``w[..., :i + 1]``, for every i, along the last axis."""
    run = np.minimum.accumulate(w, axis=-1)
    drop = np.ones(run.shape, dtype=bool)     # where a new running minimum starts
    drop[..., 1:] = run[..., 1:] < run[..., :-1]
    return np.maximum.accumulate(np.where(drop, np.arange(w.shape[-1]), 0), axis=-1)


def _min_jump(params, targets, v_targets, x):
    """min over m of ``v_targets[..., m] + intervention_cost(targets[m] - x)``.

    ``targets`` is strictly increasing, ``v_targets`` finite and ``x`` an
    array, each along its last axis; leading axes broadcast, one row of
    target values per row of states.  The jump cost is ``D - d*xi``
    downward and ``C + c*xi`` upward, so the best target below x
    minimises ``v - d*y`` over a prefix and the best above x minimises
    ``v + c*y`` over a suffix; a target equal to x is the zero-size jump.
    Those (at most) three winners are scored exactly as the dense minimum
    scores every target, in O(len(targets) + len(x)) time per row.
    """
    lead = np.broadcast_shapes(v_targets.shape[:-1], x.shape[:-1])
    v_targets = np.broadcast_to(v_targets, lead + v_targets.shape[-1:])
    x = np.broadcast_to(x, lead + x.shape[-1:])
    m = targets.size
    below = _running_argmin(v_targets - params.d * targets)
    above = m - 1 - _running_argmin((v_targets + params.c * targets)[..., ::-1])[..., ::-1]
    lo = np.searchsorted(targets, x, side="left")   # targets[:lo] < x
    hi = np.searchsorted(targets, x, side="right")  # targets[hi:] > x
    valid = np.stack([lo > 0, hi > lo, hi < m])
    idx = np.where(valid, np.stack([np.take_along_axis(below, lo - 1, axis=-1), lo,
                                    np.take_along_axis(above, np.minimum(hi, m - 1), axis=-1)]), 0)
    score = np.take_along_axis(v_targets[None], idx, axis=-1) \
        + intervention_cost(params, targets[idx] - x)
    return np.min(np.where(valid, score, np.inf), axis=0)


def brute_force_rv2(path, policy, params, t, x, box: StateBox):
    """Intervention operator at time(s) ``t``: the exact minimum over the
    1001-point target grid of (value at the target) + (cost of jumping
    there), found in linear time.  Vectorized in x; a column of times
    ``t[:, None]`` evaluates every row of a (t, x) grid in one call."""
    validate_box(box)
    targets = np.linspace(box.x_lo, box.x_hi, round(1.0 / XI_RESOLUTION) + 1)
    v2_targets = value_v2(path, policy, params, t, targets)
    out = _min_jump(params, targets, v2_targets, np.atleast_1d(np.asarray(x, dtype=float)))
    return float(out[0]) if np.ndim(x) == 0 and np.ndim(t) == 0 else out


def qvi_check(path, policy, params, t, x, box: StateBox) -> QviSample:
    """Evaluate the inequality-system triple at time(s) ``t`` and state(s) ``x``.

    ``t`` is a scalar or a column ``t[:, None]``, ``x`` a scalar or an
    array; the sample's fields have their broadcast shape.  Inside the
    band the residual should vanish and the gap be strictly negative;
    outside, the residual should be nonnegative and the gap zero up to
    the target-grid resolution.
    """
    ell1, alpha, beta, ell2 = policy.thresholds_at(t)
    x_arr = np.asarray(x, dtype=float)
    below = x_arr <= ell1
    above = x_arr >= ell2
    interior = ~(below | above)

    # outside the band V2 is phi2 at the reset target plus a jump cost
    # affine in x; the target's stationarity cancels its own motion, so
    # dV2/dt there is phi2's time derivative at the target
    _, dv2_dt = _phi_rates(path, t, np.where(below, alpha, np.where(above, beta, x_arr)))
    dv2_dx = np.where(below, -params.c,
                      np.where(above, params.d, path.p2_at(t) * x_arr + path.q2_at(t)))
    # Player 1's feedback only acts while the state is inside the band.
    drift = params.a * x_arr + np.where(
        interior, params.b * gamma_star(path, params, t, x_arr), 0.0
    )
    residual = dv2_dt + 0.5 * params.w2 * (x_arr - params.rho2) ** 2 + dv2_dx * drift
    gap = value_v2(path, policy, params, t, x_arr) - brute_force_rv2(
        path, policy, params, t, x_arr, box)
    region = np.where(below, REGION_BELOW, np.where(above, REGION_ABOVE, REGION_INTERIOR))
    if np.ndim(residual) == 0:
        return QviSample(float(residual), float(gap), float(gap * residual), str(region))
    return QviSample(residual, gap, gap * residual, region)


def sufficiency_margins(path, policy, params, t) -> SufficiencySample:
    """Root conditions for the exterior residual sign at time(s) ``t``.

    ``t`` is a scalar or an array; the sample's fields have its shape.
    """
    a, c, d, w2, rho2 = params.a, params.c, params.d, params.w2, params.rho2
    ell1, alpha, beta, ell2 = policy.thresholds_at(t)
    _, (dphi2_alpha, dphi2_beta) = _phi_rates(path, t, np.array([alpha, beta]))
    theta_alpha = c * c * a * a + 2.0 * w2 * (c * a * rho2 - dphi2_alpha)
    theta_beta = d * d * a * a - 2.0 * w2 * (d * a * rho2 + dphi2_beta)
    alpha_ok = theta_alpha >= 0.0
    beta_ok = theta_beta >= 0.0
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
    fields = (x11, x22, theta_alpha, theta_beta,
              np.where(alpha_ok, x11 - ell1, np.inf),
              np.where(beta_ok, ell2 - x22, np.inf))
    if np.ndim(t) == 0:
        return SufficiencySample(*map(float, fields), bool(alpha_ok), bool(beta_ok))
    return SufficiencySample(*fields, alpha_ok, beta_ok)


def convexity_margin(consts: RiccatiConstants, params: GameParams, t):
    """Margin of the strict-convexity condition on Player 2's value.

    Positive iff h_const*theta + w2*(1 - e^(t*theta)*c1^2 - 2*t*theta*c1)
    is positive; its sign must agree with the sign of p2(t).
    """
    t_arr = np.asarray(t, dtype=float)
    theta, c1 = consts.theta, consts.c1
    e = np.exp(t_arr * theta)
    out = consts.h_const * theta + params.w2 * (1.0 - e * c1 * c1 - 2.0 * t_arr * theta * c1)
    return float(out) if np.ndim(t) == 0 else out


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
        # a second jump never helps: each jump pays a fixed cost, so the
        # obstacle uses waiting values at the targets
        jump = _min_jump(params, xg, cont, xg)
        values[k] = np.minimum(cont, jump)
        intervene[k] = jump < cont
    return DpOracleResult(t_grid=np.linspace(0.0, params.T, nt + 1), x_grid=xg,
                          values=values, intervene=intervene)


def run_verification(path, policy, params: GameParams, box: StateBox,
                     nt: int = DEFAULT_GRID, nx: int = DEFAULT_GRID) -> VerificationReport:
    """Evaluate every certification condition on an (nt+1) x (nx+1) grid."""
    validate_box(box)
    t_nodes = np.linspace(0.0, params.T, nt + 1)
    x_nodes = np.linspace(box.x_lo, box.x_hi, nx + 1)
    xi_resolution = XI_RESOLUTION * (box.x_hi - box.x_lo)
    gap_tol = GAP_BASE_TOL + xi_resolution * (params.c + params.d)

    qvi = qvi_check(path, policy, params, t_nodes[:, None], x_nodes, box)
    residual, gap, comp, region = qvi.residual, qvi.gap, qvi.complementarity, qvi.region
    interior_mask = region == REGION_INTERIOR
    hjb1 = np.where(interior_mask, _hjb1(path, params, t_nodes[:, None], x_nodes), np.nan)

    suff = sufficiency_margins(path, policy, params, t_nodes)
    convexity = convexity_margin(path.constants, params, t_nodes)
    p2_vals = path.p2_at(t_nodes)

    def worst_node(values2d, pick):
        flat = pick(np.where(np.isnan(values2d), -np.inf if pick is np.argmax else np.inf,
                             values2d))
        k, j = np.unravel_index(flat, values2d.shape)
        return float(values2d[k, j]), float(t_nodes[k]), float(x_nodes[j])

    conditions = []

    abs_hjb = np.where(interior_mask, np.abs(hjb1), -np.inf)
    w, wt, wx = worst_node(abs_hjb, np.argmax)
    conditions.append(ConditionResult(
        "hjb1_interior_residual", w <= RESIDUAL_TOL, w, wt, wx,
        f"max interior |residual|, tol {RESIDUAL_TOL:g}"))

    w, wt, wx = worst_node(residual, np.argmin)
    conditions.append(ConditionResult(
        "qvi_residual_nonnegative", w >= -RESIDUAL_TOL, w, wt, wx,
        f"min residual over all nodes, tol -{RESIDUAL_TOL:g}"))

    abs_res_int = np.where(interior_mask, np.abs(residual), -np.inf)
    w, wt, wx = worst_node(abs_res_int, np.argmax)
    conditions.append(ConditionResult(
        "qvi_interior_equality", w <= RESIDUAL_TOL, w, wt, wx,
        f"max interior |residual|, tol {RESIDUAL_TOL:g}"))

    w, wt, wx = worst_node(gap, np.argmax)
    conditions.append(ConditionResult(
        "obstacle_gap", w <= gap_tol, w, wt, wx,
        f"max gap over all nodes, tol {gap_tol:g}"))

    abs_gap_ext = np.where(~interior_mask, np.abs(gap), -np.inf)
    w, wt, wx = worst_node(abs_gap_ext, np.argmax)
    conditions.append(ConditionResult(
        "exterior_obstacle_equality", w <= gap_tol, w, wt, wx,
        f"max exterior |gap|, tol {gap_tol:g}"))

    comp_tol = float(np.max(np.abs(gap))) * RESIDUAL_TOL \
        + float(np.max(np.abs(residual))) * gap_tol
    w, wt, wx = worst_node(np.abs(comp), np.argmax)
    conditions.append(ConditionResult(
        "complementarity", w <= comp_tol, w, wt, wx,
        f"max |gap*residual|, tol {comp_tol:g}"))

    def worst_t(values1d, pick):
        idx = pick(values1d)
        return float(values1d[idx]), float(t_nodes[idx])

    w, wt = worst_t(suff.margin_ell1, np.argmin)
    conditions.append(ConditionResult(
        "band_margin_lower", w >= 0.0, w, wt, None,
        f"min (x11 - ell1) over applicable nodes; "
        f"{int((~suff.alpha_applicable).sum())} inapplicable"))

    w, wt = worst_t(suff.margin_ell2, np.argmin)
    conditions.append(ConditionResult(
        "band_margin_upper", w >= 0.0, w, wt, None,
        f"min (ell2 - x22) over applicable nodes; "
        f"{int((~suff.beta_applicable).sum())} inapplicable"))

    w, wt = worst_t(convexity, np.argmin)
    conditions.append(ConditionResult(
        "convexity_margin", w > 0.0, w, wt, None, "min margin, must be > 0"))

    agree = np.sign(convexity) == np.sign(p2_vals)
    n_bad = int((~agree).sum())
    idx = int(np.argmax(~agree)) if n_bad else 0
    conditions.append(ConditionResult(
        "convexity_sign_agreement", n_bad == 0, float(n_bad), float(t_nodes[idx]), None,
        "nodes where the convexity margin and p2 disagree in sign"))

    return VerificationReport(
        t_nodes=t_nodes,
        x_nodes=x_nodes,
        region=region,
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
        p2=p2_vals,
        tolerances={
            "residual_tol": RESIDUAL_TOL,
            "gap_tol": gap_tol,
            "xi_resolution": xi_resolution,
        },
        conditions=conditions,
    )
