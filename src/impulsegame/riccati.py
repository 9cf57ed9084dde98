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
use their closed forms.  ``CoefficientPath.difference_slopes`` gives the
verifier node slopes from finite differences of the node values instead.

Every formula here has one body that serves a Python float and an array.
A scalar time (float, int or 0-d array) runs through it on Python floats
and returns a float: no array round trip, and :func:`hermite` finds the
cell with :func:`bisect.bisect_right` on node lists that each
``CoefficientPath`` builds once.  This is the path a rollout's event
locator takes on every probe.  The float path equals the array path bit
for bit: both round each operation once, and both use ``np.exp``
(``math.exp`` differs from it in the last ulp for some arguments).
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
    c1 = (2.0 * theta / divisor - 1.0) * _exp(-theta * T)

    if theta == 0.0:
        raise DegenerateParameterError("theta = 0: control has no authority")
    eT = _exp(theta * T)
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


def _exp(x):
    """``np.exp``, returned as a Python float for a float argument."""
    return float(np.exp(x)) if isinstance(x, float) else np.exp(x)


def _denominator(consts: RiccatiConstants, t):
    den = consts.c1 * _exp(consts.theta * t) + 1.0
    if den == 0.0 if isinstance(den, float) else np.any(den == 0.0):
        raise DegenerateParameterError("c1*exp(theta*t) + 1 vanished")
    return den


def a_x(consts: RiccatiConstants, t):
    """Closed-loop drift gain, theta/2 - theta/(c1*e^(theta*t) + 1).

    Identically equal to a + b_x*p1(t).
    """
    return consts.theta / 2.0 - consts.theta / _denominator(consts, _float_or_array(t))


def p1_closed_form(consts: RiccatiConstants, params: GameParams, t):
    """Player 1 quadratic coefficient p1(t); p1(T) = s1 by construction."""
    if consts.b_x == 0.0:
        raise DegenerateParameterError("b = 0: p1 closed form undefined")
    return (a_x(consts, t) - params.a) / consts.b_x


def p2_closed_form(consts: RiccatiConstants, params: GameParams, t):
    """Player 2 quadratic coefficient p2(t); p2(T) = s2 by construction."""
    t = _float_or_array(t)
    theta, c1, h = consts.theta, consts.c1, consts.h_const
    w2 = params.w2
    e = _exp(theta * t)
    num = -w2 * e * e * c1 * c1 - 2.0 * t * theta * w2 * e * c1 + w2 + h * theta * e
    den = _denominator(consts, t)
    return num / (theta * (den * den))


def affine_rk4(h, a, b):
    """One classical RK4 step of ``y' = a(t)*y + b(t)`` written as affine maps.

    ``a`` and ``b`` hold the coefficients at the four stages, at times
    t, t + h/2, t + h/2 and t + h; each entry may be a scalar or an array
    (one step per element).  Returns ``(stages, mult, add)``: stage j's
    state is ``s_j*y + r_j`` with ``stages[j] = (s_j, r_j)``, and the step
    is ``y -> mult*y + add``.
    """
    stages = [(1.0, 0.0)]
    u_sum = v_sum = 0.0
    for aj, bj, weight, c in zip(a, b, (1.0, 2.0, 2.0, 1.0), (0.5 * h, 0.5 * h, h, None)):
        s, r = stages[-1]
        u, v = aj * s, aj * r + bj            # stage slope k_j = u*y + v
        u_sum = u_sum + weight * u
        v_sum = v_sum + weight * v
        if c is not None:
            stages.append((1.0 + c * u, c * v))
    return stages, 1.0 + h / 6.0 * u_sum, h / 6.0 * v_sum


def hermite(ts, ys, dys, t):
    """Cubic Hermite interpolant through ``(ts, ys)`` with slopes ``dys``.

    ``ts`` is increasing with at least two nodes; ``t`` is a float or an
    array.  Outside ``[ts[0], ts[-1]]`` the end cubics extrapolate.  A
    float ``t`` takes the cell by bisection, which is cheapest when
    ``ts``, ``ys`` and ``dys`` are lists; the arithmetic is the same.
    """
    if isinstance(t, float):
        k = bisect.bisect_right(ts, t, 1, len(ts) - 1) - 1
    else:
        k = np.searchsorted(ts[1:-1], t, side="right")
    t0 = ts[k]
    h = ts[k + 1] - t0
    s = (t - t0) / h
    s1 = 1.0 - s
    return (s1 * s1 * ((1.0 + 2.0 * s) * ys[k] + s * h * dys[k])
            + s * s * ((3.0 - 2.0 * s) * ys[k + 1] - s1 * h * dys[k + 1]))


def _slopes(params: GameParams, b_x, ax, p2, q1, q2):
    """(q1', n1', q2', n2') from their defining equations, elementwise."""
    return (
        -ax * q1 + params.w1 * params.rho1,
        -0.5 * b_x * q1 * q1 - 0.5 * params.w1 * params.rho1 ** 2,
        -ax * q2 - b_x * p2 * q1 + params.w2 * params.rho2,
        -b_x * q1 * q2 - 0.5 * params.w2 * params.rho2 ** 2,
    )


# one-sided fourth-order first-derivative stencils at the first and second
# of five uniform nodes, times 12h
_EDGE_STENCILS = ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0))


def _difference_slope(ys, h):
    """Fourth-order finite-difference slopes of node values ``ys`` at spacing ``h``.

    The central five-point stencil inside, the one-sided stencils at the
    two nodes at each end (mirrored at the far end).
    """
    out = np.empty_like(ys)
    out[2:-2] = ys[:-4] - 8.0 * ys[1:-3] + 8.0 * ys[3:-1] - ys[4:]
    for k, stencil in enumerate(_EDGE_STENCILS):
        out[k] = np.dot(stencil, ys[:5])
        out[-1 - k] = -np.dot(stencil[::-1], ys[-5:])
    return out / (12.0 * h)


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

    @cached_property
    def difference_slopes(self):
        """(q1', n1', q2', n2') at the nodes by fourth-order finite differences.

        Unlike the interpolants' slopes these come from the node values
        alone, never the defining equations, so an error in the node
        values shows in them.
        """
        if self.time_grid.size < 5:
            raise ValueError(
                f"difference slopes need at least 5 nodes (got {self.time_grid.size})")
        h = self.time_grid[1] - self.time_grid[0]
        return tuple(_difference_slope(ys, h) for ys in (self.q1, self.n1, self.q2, self.n2))


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
    ax_n, ax_m = a_x(consts, ts), a_x(consts, mids)
    p2_n, p2_m = p2_closed_form(consts, params, ts), p2_closed_form(consts, params, mids)
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
