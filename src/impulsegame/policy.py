"""Equilibrium feedback objects for both players.

Player 1 plays the linear state feedback ``u = -(b/r1)*(p1(t)*x + q1(t))``.
Player 2 plays a band policy: wait while the state stays strictly between
the moving thresholds ``ell1(t)`` and ``ell2(t)``, and on exit reset it to
``alpha(t)`` from below or ``beta(t)`` from above.  The band is open and
the intervention set closed (:func:`sides`): a state on ``ell1`` or
``ell2`` triggers an impulse.  The band boundaries follow from value
matching and the reset targets from the stationarity conditions
``p2*alpha + q2 = -c`` and ``p2*beta + q2 = d``, so all four are explicit
functions of ``(p2(t), q2(t))``.
"""

import math

import numpy as np

from .errors import ConvexityViolation, OrderingViolation
from .model import GameParams
from .riccati import CoefficientPath


def sides(ell1, ell2, x):
    """(below, above) = (x <= ell1, x >= ell2), floats or arrays: both edges intervene."""
    return x <= ell1, x >= ell2


def labels(below, above):
    """Region names from the masks of :func:`sides`: a str for a scalar, else an array."""
    out = np.where(below, "below", np.where(above, "above", "interior"))
    return str(out) if np.ndim(out) == 0 else out


def _sqrt(x):
    """``np.sqrt``, taken on a nonnegative float by ``math.sqrt`` (both exact)."""
    return math.sqrt(x) if isinstance(x, float) and x >= 0.0 else np.sqrt(x)


def _band(p2, q2, params: GameParams):
    """(ell1, alpha, beta, ell2) from p2 and q2: floats or arrays, elementwise."""
    alpha = -(q2 + params.c) / p2
    beta = (params.d - q2) / p2
    ell1 = (-params.c - q2 - _sqrt(2.0 * params.C * p2)) / p2
    ell2 = (-q2 + params.d + _sqrt(2.0 * params.D * p2)) / p2
    return ell1, alpha, beta, ell2


class ThresholdPolicy:
    """Threshold curves ell1 < alpha < beta < ell2 as functions of time.

    The curves are evaluated from the path's p2 and q2 at any time, so
    ordering and value matching hold between grid nodes as they do on
    them.  The node arrays ``ell1, alpha, beta, ell2`` tabulate the
    curves on the path grid.
    """

    def __init__(self, path, params):
        self.path = path
        self.params = params
        self.ell1, self.alpha, self.beta, self.ell2 = _band(path.p2, path.q2, params)
        for arr in (self.ell1, self.alpha, self.beta, self.ell2):
            arr.flags.writeable = False

    def thresholds_at(self, t):
        """(ell1, alpha, beta, ell2) at time ``t``: floats for a scalar, else arrays."""
        return self.band(self.path.p2_at(t), self.path.q2_at(t))

    def band(self, p2, q2):
        """(ell1, alpha, beta, ell2) from p2 and q2, as ``path.coefficients_at`` gives them."""
        return _band(p2, q2, self.params)

    def region(self, t, x):
        """Classify ``x`` (scalar or array) at time ``t`` by :func:`sides`."""
        ell1, _, _, ell2 = self.thresholds_at(t)
        return labels(*sides(ell1, ell2, x))


def _check_ordering(time_grid, ell1, alpha, beta, ell2):
    """Raise OrderingViolation (with node index) unless ell1 < alpha < beta < ell2."""
    ok = (ell1 < alpha) & (alpha < beta) & (beta < ell2)
    if not np.all(ok):
        idx = int(np.flatnonzero(~ok)[0])
        t, e1, a, b, e2 = (float(v[idx]) for v in (time_grid, ell1, alpha, beta, ell2))
        raise OrderingViolation(
            f"threshold ordering failed at node {idx} (t={t!r}): "
            f"ell1={e1!r} alpha={a!r} beta={b!r} ell2={e2!r}"
        )


def build_policy(path: CoefficientPath, params: GameParams) -> ThresholdPolicy:
    """Fill all four threshold curves at every path node and verify ordering."""
    p2 = path.p2
    if np.any(p2 <= 0.0):
        idx = int(np.flatnonzero(p2 <= 0.0)[0])
        raise ConvexityViolation(
            f"p2(t) <= 0 at node {idx} (t={float(path.time_grid[idx])!r}, p2={float(p2[idx])!r})"
        )
    policy = ThresholdPolicy(path, params)
    _check_ordering(path.time_grid, policy.ell1, policy.alpha, policy.beta, policy.ell2)
    return policy


def gamma_star(path: CoefficientPath, params: GameParams, t, x):
    """Player 1's equilibrium control -(b/r1)*(p1(t)*x + q1(t)).

    Defined from the continuation region but evaluable anywhere; the
    resulting closed-loop drift is a_x(t)*x + b_x*q1(t).
    """
    return -(params.b / params.r1) * (path.p1_at(t) * x + path.q1_at(t))


def impulse_map(policy: ThresholdPolicy, t, x):
    """Player 2's reset rule at (t, x): :func:`reset` on the band at t."""
    return reset(policy.thresholds_at(t), x)


def reset(band, x):
    """Player 2's reset rule at x on the band (ell1, alpha, beta, ell2) of one time.

    Returns None while ell1 < x < ell2; otherwise (:func:`sides`) the
    pair (target, xi) with target alpha from below or beta from above
    and xi = target - x.
    """
    ell1, alpha, beta, ell2 = band
    below, above = sides(ell1, ell2, x)
    if below:
        return alpha, alpha - x
    if above:
        return beta, beta - x
    return None


def phi2(path: CoefficientPath, t, x):
    """Interior quadratic of Player 2's value, 0.5*p2*x^2 + q2*x + n2."""
    return 0.5 * path.p2_at(t) * np.asarray(x, dtype=float) ** 2 \
        + path.q2_at(t) * np.asarray(x, dtype=float) + path.n2_at(t)


def value_v2(path: CoefficientPath, policy: ThresholdPolicy, params: GameParams, t, x):
    """Player 2's value at (t, x): quadratic inside the band, linear outside.

    The edges take the linear form (:func:`sides`); it meets the quadratic
    there by construction of ell1 and ell2, as ``value_continuity`` checks.
    Accepts scalars or arrays ``t`` and ``x``, broadcast together.
    """
    x_arr = np.asarray(x, dtype=float)
    ell1, alpha, beta, ell2 = policy.thresholds_at(t)
    v_below = phi2(path, t, alpha) + params.C + params.c * (alpha - x_arr)
    v_above = phi2(path, t, beta) + params.D + params.d * (x_arr - beta)
    below, above = sides(ell1, ell2, x_arr)
    out = np.where(below, v_below, np.where(above, v_above, phi2(path, t, x_arr)))
    return float(out) if np.ndim(out) == 0 else out

