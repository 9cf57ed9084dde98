"""Time-varying coefficients of both players' quadratic value terms.

Player 1's quadratic coefficient ``p1`` and Player 2's ``p2`` have closed
forms built from the constants ``theta``, ``c1`` and ``h_const``.  The
linear and constant coefficients ``q1, n1, q2, n2`` solve a
lower-triangular affine system: q1 stands alone, q2 is forced by q1, and
n1, n2 are quadratures of them.  Each is integrated backward from its
terminal condition with classical fourth-order Runge-Kutta on a uniform
grid, every step written as an affine map by :func:`affine_rk4`.  Between
grid nodes the integrated paths are evaluated with the cubic Hermite
interpolant :func:`hermite`, whose node slopes come from the defining
equations, while ``p1``, ``p2`` and the closed-loop gain ``a_x`` always
use their closed forms.

Every formula here has one body that serves a Python float and an array.
A scalar time (float, int or 0-d array) runs through it on Python floats
and returns a float: no array round trip, and :func:`_interpolate` finds
the cell with :func:`bisect.bisect_right` on node lists that each
``CoefficientPath`` builds once.  A rollout's event locator evaluates
:meth:`CoefficientPath.coefficients_at` twice per probe: a_x, b_x*q1, p2
and q2 from one exponential and one Hermite cell.  The float path equals
the array path bit for bit: both round each operation once, and both use
``np.exp`` (``math.exp`` differs from it in the last ulp for some arguments).
"""

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateParameterError, NonFiniteStateError
from .model import GameParams, validate

DEFAULT_STEPS = 4096


@dataclass(frozen=True)
class RiccatiConstants:
    """Scalar constants of the closed-form coefficient solutions.

    theta    decay rate 2*sqrt(a^2 + w1*b^2/r1) of the controlled dynamics
    c1       integration constant fixing p1(T) = s1
    h_const  integration constant fixing p2(T) = s2
    b_x      effective control gain -b^2/r1 of the closed loop
    """

    theta: float
    c1: float
    h_const: float
    b_x: float


def constants(params: GameParams) -> RiccatiConstants:
    """Evaluate theta, c1, h_const and b_x for a validated parameter set."""
    validate(params)
    a, b, r1, s1, w1 = params.a, params.b, params.r1, params.s1, params.w1
    w2, s2, T = params.w2, params.s2, params.T

    b_x = -b * b / r1
    theta = float(2.0 * np.sqrt(a * a + w1 * b * b / r1))

    divisor = theta + 2.0 * (b * b / r1) * s1 - 2.0 * a
    if divisor == 0.0:
        raise DegenerateParameterError(
            f"theta + 2*(b^2/r1)*s1 - 2*a vanished (theta={theta!r})"
        )
    c1 = (2.0 * theta / divisor - 1.0) * float(np.exp(-theta * T))

    if theta == 0.0:
        raise DegenerateParameterError("theta = 0: control has no authority")
    eT = float(np.exp(theta * T))
    h_const = (
        2.0 * c1 * s2
        + s2 / eT
        - (w2 / eT - c1 * c1 * w2 * eT) / theta
        + c1 * c1 * s2 * eT
        + 2.0 * c1 * T * w2
    )
    return RiccatiConstants(theta=theta, c1=c1, h_const=h_const, b_x=b_x)


def _float_or_array(t):
    """``t`` as a Python float if it is a scalar, else as a float array."""
    if isinstance(t, float):
        return t
    t = np.asarray(t, dtype=float)
    return float(t) if t.ndim == 0 else t


def _closed_forms(consts: RiccatiConstants, params, t, band):
    """(a_x, p2) at a float or array ``t`` from one exponential e^(theta*t);
    p2 is None unless ``band``.  The one body of both closed forms."""
    theta, c1 = consts.theta, consts.c1
    e = float(np.exp(theta * t)) if isinstance(t, float) else np.exp(theta * t)
    den = c1 * e + 1.0
    if den == 0.0 if isinstance(den, float) else np.any(den == 0.0):
        raise DegenerateParameterError("c1*exp(theta*t) + 1 vanished")
    ax = theta / 2.0 - theta / den
    if not band:
        return ax, None
    h, w2 = consts.h_const, params.w2
    num = -w2 * e * e * c1 * c1 - 2.0 * t * theta * w2 * e * c1 + w2 + h * theta * e
    return ax, num / (theta * (den * den))


def a_x(consts: RiccatiConstants, t):
    """Closed-loop drift gain, theta/2 - theta/(c1*e^(theta*t) + 1).

    Identically equal to a + b_x*p1(t).
    """
    return _closed_forms(consts, None, _float_or_array(t), False)[0]


def p1_closed_form(consts: RiccatiConstants, params: GameParams, t):
    """Player 1 quadratic coefficient p1(t); p1(T) = s1 by construction."""
    if consts.b_x == 0.0:
        raise DegenerateParameterError("b = 0: p1 closed form undefined")
    return (a_x(consts, t) - params.a) / consts.b_x


def p2_closed_form(consts: RiccatiConstants, params: GameParams, t):
    """Player 2 quadratic coefficient p2(t); p2(T) = s2 by construction."""
    return _closed_forms(consts, params, _float_or_array(t), True)[1]


def affine_rk4(h, a, b):
    """One classical RK4 step of ``y' = a(t)*y + b(t)`` written as affine maps.

    ``a`` and ``b`` hold the coefficients at the four stages, at times
    t, t + h/2, t + h/2 and t + h; each entry may be a scalar or an array
    (one step per element).  Returns ``(stages, mult, add)``: stage j's
    state is ``s_j*y + r_j`` with ``stages[j] = (s_j, r_j)``, and the step
    is ``y -> mult*y + add``.  Stage j's slope is ``u_j*y + v_j``; the
    stages are written out, and the weighted sums start from 0.0.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
    c = 0.5 * h
    v0 = a0 * 0.0 + b0                  # u0 = a0
    s1, r1 = 1.0 + c * a0, c * v0
    u1, v1 = a1 * s1, a1 * r1 + b1
    s2, r2 = 1.0 + c * u1, c * v1
    u2, v2 = a2 * s2, a2 * r2 + b2
    s3, r3 = 1.0 + h * u2, h * v2
    u3, v3 = a3 * s3, a3 * r3 + b3
    u_sum = 0.0 + a0 + 2.0 * u1 + 2.0 * u2 + u3
    v_sum = 0.0 + v0 + 2.0 * v1 + 2.0 * v2 + v3
    return [(1.0, 0.0), (s1, r1), (s2, r2), (s3, r3)], 1.0 + h / 6.0 * u_sum, h / 6.0 * v_sum


def _interpolate(ts, t, first, second=None):
    """Cubic Hermite interpolants at ``t`` through ``first`` and ``second``
    (None if not given), each (node values, node slopes) on the nodes ``ts``,
    from one cell search and one set of weights.  See :func:`hermite`."""
    if isinstance(t, float):
        k = bisect.bisect_right(ts, t, 1, len(ts) - 1) - 1
    else:
        k = np.searchsorted(ts[1:-1], t, side="right")
    t0 = ts[k]
    h = ts[k + 1] - t0
    s = (t - t0) / h
    s1 = 1.0 - s
    w_y0, w_b0, w_f0, w_y1, w_b1, w_f1 = s1 * s1, 1.0 + 2.0 * s, s * h, s * s, 3.0 - 2.0 * s, s1 * h
    ys, dys = first
    y = w_y0 * (w_b0 * ys[k] + w_f0 * dys[k]) + w_y1 * (w_b1 * ys[k + 1] - w_f1 * dys[k + 1])
    if second is None:
        return y, None
    ys, dys = second
    return y, w_y0 * (w_b0 * ys[k] + w_f0 * dys[k]) + w_y1 * (w_b1 * ys[k + 1] - w_f1 * dys[k + 1])


def hermite(ts, ys, dys, t):
    """Cubic Hermite interpolant through ``(ts, ys)`` with slopes ``dys``.

    ``ts`` is increasing with at least two nodes; ``t`` is a float or an
    array.  Outside ``[ts[0], ts[-1]]`` the end cubics extrapolate.  A
    float ``t`` takes the cell by bisection, which is cheapest when
    ``ts``, ``ys`` and ``dys`` are lists; the arithmetic is the same.
    """
    return _interpolate(ts, t, (ys, dys))[0]


def _slopes(params: GameParams, b_x, ax, p2, q1, q2):
    """(q1', n1', q2', n2') from their defining equations, elementwise."""
    return (
        -ax * q1 + params.w1 * params.rho1,
        -0.5 * b_x * q1 * q1 - 0.5 * params.w1 * params.rho1 ** 2,
        -ax * q2 - b_x * p2 * q1 + params.w2 * params.rho2,
        -b_x * q1 * q2 - 0.5 * params.w2 * params.rho2 ** 2,
    )


class CoefficientPath:
    """Coefficient paths on a uniform grid over [0, T].

    Node arrays are read-only.  Evaluation at arbitrary times uses the
    exact closed forms for p1, p2 and a_x, and cubic Hermite
    interpolation for the integrated paths q1, n1, q2, n2, with node
    slopes taken from their defining equations.
    """

    def __init__(self, time_grid, p1, q1, n1, p2, q2, n2, ax_vals, consts, params):
        self.time_grid = time_grid
        self.p1 = p1
        self.q1 = q1
        self.n1 = n1
        self.p2 = p2
        self.q2 = q2
        self.n2 = n2
        self.a_x = ax_vals
        self.constants = consts
        self.params = params
        slopes = _slopes(params, consts.b_x, ax_vals, p2, q1, q2)
        for arr in (time_grid, p1, q1, n1, p2, q2, n2, ax_vals):
            arr.flags.writeable = False
        # (nodes, node slopes) of q1, n1, q2, n2 for the interpolants
        self._tables = dict(zip(("q1", "n1", "q2", "n2"), zip((q1, n1, q2, n2), slopes)))

    @cached_property
    def _lists(self):
        """The grid and ``_tables`` as lists, for float times; built on first use."""
        tables = {k: (ys.tolist(), dys.tolist()) for k, (ys, dys) in self._tables.items()}
        return self.time_grid.tolist(), tables

    # closed-form evaluations
    def p1_at(self, t):
        return p1_closed_form(self.constants, self.params, t)

    def p2_at(self, t):
        return p2_closed_form(self.constants, self.params, t)

    def a_x_at(self, t):
        return a_x(self.constants, t)

    def coefficients_at(self, t, band=True):
        """(a_x, b_x*q1, p2, q2) at ``t``, or (a_x, b_x*q1) without the band's p2, q2,
        from one exponential and one Hermite cell: :func:`a_x`, :meth:`q1_at`,
        :func:`p2_closed_form` and :meth:`q2_at` bit for bit."""
        t = _float_or_array(t)
        ax, p2 = _closed_forms(self.constants, self.params, t, band)
        grid, tables = self._lists if isinstance(t, float) else (self.time_grid, self._tables)
        q1, q2 = _interpolate(grid, t, tables["q1"], tables["q2"] if band else None)
        bq1 = self.constants.b_x * q1
        return (ax, bq1, p2, q2) if band else (ax, bq1)

    # interpolated evaluations
    def _interp(self, which, t):
        t = _float_or_array(t)
        if isinstance(t, float):
            grid, tables = self._lists
            return hermite(grid, *tables[which], t)
        return hermite(self.time_grid, *self._tables[which], t)

    def q1_at(self, t):
        return self._interp("q1", t)

    def n1_at(self, t):
        return self._interp("n1", t)

    def q2_at(self, t):
        return self._interp("q2", t)

    def n2_at(self, t):
        return self._interp("n2", t)


def _scan_back(mult, add, y_end):
    """Nodes of the backward recurrence y[i] = mult[i]*y[i+1] + add[i].

    A plain loop over floats: a cumulative product of ``mult`` would
    underflow on long horizons where the recurrence itself does not.  A
    quadrature (``mult`` the float 1.0, as for n1 and n2) is the same
    sequential sum, which ``np.add.accumulate`` takes in the loop's order.
    """
    if isinstance(mult, float) and mult == 1.0:
        return np.add.accumulate(np.r_[y_end, add[::-1]])[::-1].copy()
    mult = np.broadcast_to(mult, np.shape(add)).tolist()
    ys = [y_end]
    for m, c in zip(reversed(mult), reversed(add.tolist())):
        ys.append(m * ys[-1] + c)
    return np.array(ys[::-1])


def solve_backward(params: GameParams, n_steps: int = DEFAULT_STEPS) -> CoefficientPath:
    """Integrate q1, n1, q2, n2 backward from their terminal conditions.

    Classical RK4 on a uniform grid of ``n_steps`` intervals over [0, T];
    p1, p2 and a_x are filled from their closed forms at every node.
    q1 is integrated first; its stage values force q2 and are integrated
    into n1, and both stage values are integrated into n2.
    """
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2 (got {n_steps})")
    consts = constants(params)

    ts = np.linspace(0.0, params.T, n_steps + 1)
    h = -params.T / n_steps             # step i runs from node i + 1 to node i
    mids = ts[1:] + 0.5 * h
    (ax_n, p2_n), (ax_m, p2_m) = (_closed_forms(consts, params, t, True) for t in (ts, mids))
    ax_st = (ax_n[1:], ax_m, ax_m, ax_n[:-1])
    p2_st = (p2_n[1:], p2_m, p2_m, p2_n[:-1])
    neg_ax = [-ax for ax in ax_st]      # q1 and q2 share the linear part -a_x*y
    zeros = (0.0,) * 4                  # n1 and n2 have none

    def slopes(q1_st, q2_st):
        return [_slopes(params, consts.b_x, ax, p2, q1, q2)
                for ax, p2, q1, q2 in zip(ax_st, p2_st, q1_st, q2_st)]

    def integrate(coef, rates, y_end):
        stages, mult, add = affine_rk4(h, coef, rates)
        ys = _scan_back(mult, add, y_end)
        return ys, [s * ys[1:] + r for s, r in stages]

    # with an equation's own state at zero, its slope is its forcing term
    q1, q1_st = integrate(neg_ax, [s[0] for s in slopes(zeros, zeros)], -params.s1 * params.rho1)
    sl = slopes(q1_st, zeros)
    n1, _ = integrate(zeros, [s[1] for s in sl], 0.5 * params.s1 * params.rho1 ** 2)
    q2, q2_st = integrate(neg_ax, [s[2] for s in sl], -params.s2 * params.rho2)
    n2, _ = integrate(zeros, [s[3] for s in slopes(q1_st, q2_st)],
                      0.5 * params.s2 * params.rho2 ** 2)

    bad = np.flatnonzero(~np.isfinite([q1, n1, q2, n2]).all(axis=0))
    if bad.size:
        raise NonFiniteStateError(f"coefficient integration diverged at node {bad[-1]}")
    p1_vals = p1_closed_form(consts, params, ts)
    for name, arr in (("p1", p1_vals), ("p2", p2_n), ("a_x", ax_n)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteStateError(f"{name} non-finite at node {bad[0]}")

    return CoefficientPath(
        time_grid=ts,
        p1=p1_vals,
        q1=q1,
        n1=n1,
        p2=p2_n,
        q2=q2,
        n2=n2,
        ax_vals=ax_n,
        consts=consts,
        params=params,
    )
