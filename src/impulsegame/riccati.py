"""Time-varying coefficients of both players' quadratic value terms.

Player 1's layer is closed.  With Phi = exp(integral of a_x), its
integral Psi, G an integral of Phi^-2 (:func:`_layer1`) and the constant
K (``k1``), the quadratic, linear and constant coefficients ``p1``,
``q1``, ``n1`` are closed forms of e^(theta*t), and so is the closed loop
between interventions (:meth:`CoefficientPath.coefficients_at`).
Player 2's quadratic coefficient ``p2`` is closed too.  Its linear and
constant coefficients ``q2, n2`` are quadratures of closed forms through
the same integrating factor Phi (:func:`solve_backward`): Gauss-Legendre
sums on the cells of a uniform grid, exact at T.  Between nodes the band
reads them through the cubic Hermite interpolant :func:`hermite`, whose
node slopes come from the defining equations; the rollout's costs read
them from :meth:`CoefficientPath.quadratics_at`, the node sums plus one
on the partial cell, exact at any time.  Nothing here integrates an ODE.

Every formula here has one body that serves a Python float and an array.
A Python float time (``np.float64`` included) runs through it on Python
floats and returns a float: no array round trip, and :func:`hermite` finds
the cell with :func:`bisect.bisect_right` on node lists that each
``CoefficientPath`` builds once.  Any other time, an int or a 0-d array
included, gives an array of its shape.  A rollout's event locator
evaluates :meth:`CoefficientPath.coefficients_at` once per probe.  The
float path equals the array path bit for bit: both round each operation
once, both use ``np.exp`` (``math.exp`` differs from it in the last ulp
for some arguments), and a square root is correctly rounded either way.
"""

import bisect
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateParameterError, NonFiniteStateError
from .model import GameParams, validate

DEFAULT_STEPS = 4096
# Gauss-Legendre nodes and weights on [-1, 1]: three points, exact for quintics
GAUSS_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
GAUSS_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


def gauss_points(t0, h):
    """The Gauss-Legendre points of the cells [t0, t0 + h], a row per point
    (``t0`` an array, ``h`` a float or an array like it)."""
    return t0 + (0.5 * h) * (1.0 + np.array(GAUSS_NODES))[:, None]


def gauss_sum(h, y):
    """Each cell's integral from the rows ``y`` of values at its :func:`gauss_points`."""
    out = GAUSS_WEIGHTS[0] * y[0]
    for w, row in zip(GAUSS_WEIGHTS[1:], y[1:]):
        out += w * row
    return 0.5 * h * out


@dataclass(frozen=True)
class RiccatiConstants:
    """Scalar constants of the closed-form coefficient solutions.

    theta    decay rate 2*sqrt(a^2 + w1*b^2/r1) of the controlled dynamics
    c1       integration constant fixing p1(T) = s1
    h_const  integration constant fixing p2(T) = s2
    b_x      effective control gain -b^2/r1 of the closed loop
    k1       integration constant K = Phi(T)*q1(T) - w1*rho1*Psi(T) fixing
             q1(T) = -s1*rho1 (see :func:`q1_closed_form`)
    """

    theta: float
    c1: float
    h_const: float
    b_x: float
    k1: float


def constants(params: GameParams) -> RiccatiConstants:
    """Evaluate theta, c1, h_const, b_x and k1 for a validated parameter set."""
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
    consts = RiccatiConstants(theta=theta, c1=c1, h_const=h_const, b_x=b_x, k1=0.0)
    phi_end, psi_end, _ = _layer1(consts, *_exponential(consts, float(T)))
    return replace(consts, k1=phi_end * (-params.s1 * params.rho1) - w1 * params.rho1 * psi_end)


def _float_or_array(t):
    """``t`` itself if it is a Python float, else ``t`` as a float array."""
    return t if isinstance(t, float) else np.asarray(t, dtype=float)


def _exponential(consts: RiccatiConstants, t):
    """(e, den) = (e^(theta*t), c1*e + 1) at a float or array ``t``: the one
    exponential every closed form takes.  Raises where den vanishes."""
    theta = consts.theta
    e = float(np.exp(theta * t)) if isinstance(t, float) else np.exp(theta * t)
    den = consts.c1 * e + 1.0
    if den == 0.0 if isinstance(den, float) else np.any(den == 0.0):
        raise DegenerateParameterError("c1*exp(theta*t) + 1 vanished")
    return e, den


def _p2(consts: RiccatiConstants, params, t, e, den):
    """p2 at ``t`` from its :func:`_exponential` terms."""
    theta, c1, h, w2 = consts.theta, consts.c1, consts.h_const, params.w2
    num = -w2 * e * e * c1 * c1 - 2.0 * t * theta * w2 * e * c1 + w2 + h * theta * e
    return num / (theta * (den * den))


def _layer1(consts: RiccatiConstants, e, den):
    """(Phi, Psi, G) from :func:`_exponential`'s terms: Phi = exp(integral of
    a_x) = den/sqrt(e), its integral Psi = (2/theta)*(c1*e - 1)/sqrt(e), and
    G = e/(theta*den), an integral of Phi^-2."""
    theta = consts.theta
    root = math.sqrt(e) if isinstance(e, float) else np.sqrt(e)
    return den / root, (2.0 / theta) * (consts.c1 * e - 1.0) / root, e / (theta * den)


def a_x(consts: RiccatiConstants, t):
    """Closed-loop drift gain, theta/2 - theta/(c1*e^(theta*t) + 1).

    Identically equal to a + b_x*p1(t).
    """
    _, den = _exponential(consts, _float_or_array(t))
    return consts.theta / 2.0 - consts.theta / den


def p1_closed_form(consts: RiccatiConstants, params: GameParams, t):
    """Player 1 quadratic coefficient p1(t); p1(T) = s1 by construction."""
    if consts.b_x == 0.0:
        raise DegenerateParameterError("b = 0: p1 closed form undefined")
    return (a_x(consts, t) - params.a) / consts.b_x


def p2_closed_form(consts: RiccatiConstants, params: GameParams, t):
    """Player 2 quadratic coefficient p2(t); p2(T) = s2 by construction."""
    t = _float_or_array(t)
    return _p2(consts, params, t, *_exponential(consts, t))


def q1_closed_form(consts: RiccatiConstants, params: GameParams, t):
    """Player 1 linear coefficient q1 = (K + w1*rho1*Psi)/Phi.

    Phi*q1 has the rate w1*rho1*Phi, so Phi*q1 - w1*rho1*Psi is the
    constant K.  Written as q1(T) plus a correction that vanishes at T,
    so q1(T) = -s1*rho1 exactly.
    """
    phi, psi, _ = _layer1(consts, *_exponential(consts, _float_or_array(t)))
    return _q1(consts, params, phi, psi)


def _q1(consts: RiccatiConstants, params, phi, psi):
    """q1 from :func:`_layer1`'s Phi and Psi."""
    q1_end = -params.s1 * params.rho1
    return q1_end + (consts.k1 - (phi * q1_end - params.w1 * params.rho1 * psi)) / phi


def _m(consts: RiccatiConstants, params, phi, g):
    """M = K*G - w1*rho1*(4/theta^2)/Phi, an antiderivative of q1/Phi (as
    Phi' = (theta^2/4)*Psi), from :func:`_layer1`'s Phi and G."""
    w = params.w1 * params.rho1
    return consts.k1 * g - w * (4.0 / consts.theta ** 2) / phi


def n1_closed_form(consts: RiccatiConstants, params: GameParams, t):
    """Player 1 constant coefficient n1(t) = n1(T) + integral over [t, T] of
    0.5*b_x*q1^2 + 0.5*w1*rho1^2.

    With W = w1*rho1, k = 4/theta^2 and Phi^2 - Psi^2/k = 4*c1, an
    antiderivative of q1^2 is K^2*G - 2*K*W*k/Phi + W^2*k*(t - 4*c1*G).  Its
    increment over [t, T] is taken term by term, so n1(T) is exact.
    """
    t = _float_or_array(t)
    T = float(params.T)
    phi, _, g = _layer1(consts, *_exponential(consts, t))
    phi_end, _, g_end = _layer1(consts, *_exponential(consts, T))
    k1, w, k = consts.k1, params.w1 * params.rho1, 4.0 / consts.theta ** 2
    q1_squared = ((k1 * k1 - 4.0 * consts.c1 * w * w * k) * (g_end - g)
                  - 2.0 * k1 * w * k * (1.0 / phi_end - 1.0 / phi) + w * w * k * (T - t))
    return (0.5 * params.s1 * params.rho1 ** 2 + 0.5 * consts.b_x * q1_squared
            + 0.5 * params.w1 * params.rho1 ** 2 * (T - t))


def _integrands(consts: RiccatiConstants, params, t):
    """(f, f*M) at ``t``: the integrands of q2 and n2 (:func:`solve_backward`),
    f = Phi*(w2*rho2 - b_x*p2*q1), from one exponential."""
    e, den = _exponential(consts, t)
    phi, psi, g = _layer1(consts, e, den)
    f = phi * (params.w2 * params.rho2
               - consts.b_x * _p2(consts, params, t, e, den) * _q1(consts, params, phi, psi))
    return f, f * _m(consts, params, phi, g)


def _quadratics(consts: RiccatiConstants, params, t, big_f, big_fm):
    """(p1, q1, n1, p2, q2, n2) at ``t``, q2 and n2 from the integrals F and
    f*M over [t, T] (:func:`solve_backward`); q2(T) and n2(T) are exact."""
    e, den = _exponential(consts, t)
    phi, psi, g = _layer1(consts, e, den)
    phi_end, _, g_end = _layer1(consts, *_exponential(consts, float(params.T)))
    m = _m(consts, params, phi, g)
    s2, rho2, w2 = params.s2, params.rho2, params.w2
    q2_end = -s2 * rho2
    q2 = q2_end * (phi_end / phi) - big_f / phi        # not A/Phi: exact at T
    n2 = (0.5 * s2 * rho2 ** 2
          + consts.b_x * (phi_end * q2_end * (_m(consts, params, phi_end, g_end) - m)
                          + m * big_f - big_fm)
          + 0.5 * w2 * rho2 ** 2 * (params.T - t))
    return (p1_closed_form(consts, params, t), _q1(consts, params, phi, psi),
            n1_closed_form(consts, params, t), _p2(consts, params, t, e, den), q2, n2)


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
    """(q2', n2') from their defining equations, elementwise."""
    return (
        -ax * q2 - b_x * p2 * q1 + params.w2 * params.rho2,
        -b_x * q1 * q2 - 0.5 * params.w2 * params.rho2 ** 2,
    )


class CoefficientPath:
    """Coefficient paths on a uniform grid over [0, T].

    Node arrays are read-only.  Evaluation at arbitrary times uses the
    exact closed forms for p1, q1, n1 and p2, and cubic Hermite
    interpolation between the quadrature nodes of q2 and n2, with node
    slopes taken from their defining equations; ``integrals`` (F and the
    integral of f*M over [t, T] at the nodes, see :func:`solve_backward`)
    let :meth:`quadratics_at` evaluate q2 and n2 exactly instead.
    """

    def __init__(self, time_grid, p1, q1, n1, p2, q2, n2, ax_vals, consts, params,
                 integrals=None):
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
        self._integrals = integrals
        slopes = _slopes(params, consts.b_x, ax_vals, p2, q1, q2)
        for arr in (time_grid, p1, q1, n1, p2, q2, n2, ax_vals):
            arr.flags.writeable = False
        # (nodes, node slopes) of q2 and n2 for the interpolants
        self._tables = {"q2": (q2, slopes[0]), "n2": (n2, slopes[1])}

    @cached_property
    def _lists(self):
        """The grid and ``_tables`` as lists, for float times; built on first use."""
        tables = {k: (ys.tolist(), dys.tolist()) for k, (ys, dys) in self._tables.items()}
        return self.time_grid.tolist(), tables

    # closed-form evaluations
    def p1_at(self, t):
        return p1_closed_form(self.constants, self.params, t)

    def q1_at(self, t):
        return q1_closed_form(self.constants, self.params, t)

    def n1_at(self, t):
        return n1_closed_form(self.constants, self.params, t)

    def p2_at(self, t):
        return p2_closed_form(self.constants, self.params, t)

    def coefficients_at(self, t):
        """(Phi, H, p2, q2) at ``t``: the flow's terms and the band's
        coefficients, from one exponential and one Hermite cell.

        Between interventions the closed loop's state is Phi*(c + H) with c
        constant: (x/Phi)' = b_x*q1/Phi, so H = b_x*M (:func:`_m`).
        """
        t = _float_or_array(t)
        consts = self.constants
        e, den = _exponential(consts, t)
        phi, _, g = _layer1(consts, e, den)
        shift = consts.b_x * _m(consts, self.params, phi, g)
        return phi, shift, _p2(consts, self.params, t, e, den), self._interp("q2", t)

    def quadratics_at(self, t):
        """(p1, q1, n1, p2, q2, n2) at the times ``t`` (an array): both value
        quadratics, with q2 and n2 exact between nodes as at them.

        q2 and n2 take their integrals over [t, T] (:func:`solve_backward`)
        as the solver's at the first node at or past t plus a Gauss-Legendre
        sum on the partial cell up to it; at a node that cell is empty.
        Needs the ``integrals`` that :func:`solve_backward` keeps.
        """
        t = np.asarray(t, dtype=float)
        ts = self.time_grid
        k = ts.searchsorted(t)
        h = ts[k] - t
        f, fm = _integrands(self.constants, self.params, gauss_points(t, h))
        big_f, big_fm = self._integrals
        return _quadratics(self.constants, self.params, t,
                           big_f[k] + gauss_sum(h, f), big_fm[k] + gauss_sum(h, fm))

    # interpolated evaluations
    def _interp(self, which, t):
        t = _float_or_array(t)
        grid, tables = self._lists if isinstance(t, float) else (self.time_grid, self._tables)
        return hermite(grid, *tables[which], t)

    def q2_at(self, t):
        return self._interp("q2", t)

    def n2_at(self, t):
        return self._interp("n2", t)


def solve_backward(params: GameParams, n_steps: int = DEFAULT_STEPS) -> CoefficientPath:
    """Fill every coefficient at the nodes of a uniform grid over [0, T].

    p1, q1, n1, p2 and a_x come from their closed forms, q2 and n2 from
    quadratures.  With f = Phi*(w2*rho2 - b_x*p2*q1), F(t) its integral
    over [t, T] and A = Phi(T)*q2(T), (Phi*q2)' = f gives q2 = (A - F)/Phi.
    Integrating q1*q2 = M'*(A - F) by parts (M from :func:`_m`) gives
    n2 = n2(T) + b_x*(A*(M(T) - M) + M*F - integral of f*M over [t, T])
    + 0.5*w2*rho2^2*(T - t).  Both integrals are Gauss-Legendre sums on
    the ``n_steps`` cells, accumulated backward from T; q2(T) and n2(T)
    are exact.  The path keeps both at the nodes for
    :meth:`CoefficientPath.quadratics_at`, which shares this formula
    (:func:`_quadratics`).
    """
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2 (got {n_steps})")
    consts = constants(params)
    ts = np.linspace(0.0, params.T, n_steps + 1)
    h = params.T / n_steps
    f, fm = _integrands(consts, params, gauss_points(ts[:-1], h))

    def integral_to_end(y):         # at every node, from the cells' Gauss sums
        return np.add.accumulate(np.r_[0.0, gauss_sum(h, y)[::-1]])[::-1]

    integrals = integral_to_end(f), integral_to_end(fm)
    p1_vals, q1, n1, p2, q2, n2 = _quadratics(consts, params, ts, *integrals)
    ax = a_x(consts, ts)

    bad = np.flatnonzero(~np.isfinite([q1, n1, q2, n2]).all(axis=0))
    if bad.size:
        raise NonFiniteStateError(f"coefficient integration diverged at node {bad[-1]}")
    for name, arr in (("p1", p1_vals), ("p2", p2), ("a_x", ax)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteStateError(f"{name} non-finite at node {bad[0]}")

    return CoefficientPath(ts, p1_vals, q1, n1, p2, q2, n2, ax, consts, params,
                           integrals=integrals)
