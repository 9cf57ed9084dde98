"""Scalar game data model: parameters, intervention costs, validation.

The game couples a continuous controller (Player 1) steering
``xdot = a*x + b*u`` toward a target ``rho1`` against an impulse
controller (Player 2) who can displace the state instantaneously and
wants it near ``rho2``.  Every constant of the model lives in
:class:`GameParams`; all downstream modules treat it as immutable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# Fields that must be strictly positive for the game to be well posed.
POSITIVE_FIELDS = ("w1", "r1", "z1", "s1", "w2", "s2", "C", "D", "c", "d", "T")


@dataclass(frozen=True)
class GameParams:
    """All scalar constants of the game.

    a, b        drift and control gain of the state equation
    w1, r1      Player 1 running weights on state deviation and control effort
    z1          Player 1 marginal cost per unit of impulse magnitude
    s1, rho1    Player 1 terminal weight and target state
    w2, s2      Player 2 running and terminal weights
    rho2        Player 2 target state
    C, c        fixed and marginal cost of an upward impulse
    D, d        fixed and marginal cost of a downward impulse
    T           horizon length
    """

    a: float
    b: float
    w1: float
    r1: float
    z1: float
    s1: float
    rho1: float
    w2: float
    s2: float
    rho2: float
    C: float
    D: float
    c: float
    d: float
    T: float


@dataclass(frozen=True)
class StateBox:
    """Compact state interval used for sup-norm bounds and verification grids."""

    x_lo: float
    x_hi: float


def validate(params: GameParams) -> GameParams:
    """Check every invariant of ``params`` and return it unchanged.

    Raises InvalidParameterError naming *all* violated constraints, not
    just the first one found.
    """
    problems = []
    for name in POSITIVE_FIELDS:
        value = getattr(params, name)
        if not np.isfinite(value) or value <= 0.0:
            problems.append(f"{name} must be > 0 (got {value!r})")
    for name in ("a", "b", "rho1", "rho2"):
        if not np.isfinite(getattr(params, name)):
            problems.append(f"{name} must be finite (got {getattr(params, name)!r})")
    if problems:
        raise InvalidParameterError("; ".join(problems))
    return params


def validate_box(box: StateBox) -> StateBox:
    """Check ``x_lo < x_hi`` with finite endpoints."""
    if not (np.isfinite(box.x_lo) and np.isfinite(box.x_hi)):
        raise InvalidParameterError(f"state box endpoints must be finite (got {box})")
    if not box.x_lo < box.x_hi:
        raise InvalidParameterError(f"state box needs x_lo < x_hi (got {box})")
    return box


def intervention_cost(params: GameParams, xi):
    """Player 2's cost of an impulse of size ``xi``.

    Piecewise linear with a fixed part: ``C + c*xi`` upward, ``D - d*xi``
    downward, and ``min(C, D)`` for a zero-size intervention.  Accepts
    scalars or arrays; the infimum over all sizes is ``min(C, D) > 0``.
    A float takes the same comparisons and arithmetic without numpy.
    """
    if isinstance(xi, float):
        if xi > 0.0:
            return float(params.C + params.c * xi)
        return float(params.D - params.d * xi if xi < 0.0 else min(params.C, params.D))
    xi = np.asarray(xi, dtype=float)
    cost = np.where(
        xi > 0.0,
        params.C + params.c * xi,
        np.where(xi < 0.0, params.D - params.d * xi, min(params.C, params.D)),
    )
    return float(cost) if cost.ndim == 0 else cost


def player1_impulse_cost(params: GameParams, xi):
    """Cost ``z1*|xi|`` borne by Player 1 when Player 2 intervenes.

    A float takes the same arithmetic without numpy.
    """
    if isinstance(xi, float):
        return float(params.z1 * abs(xi))
    out = params.z1 * np.abs(np.asarray(xi, dtype=float))
    return float(out) if out.ndim == 0 else out


def min_intervention_cost(params: GameParams) -> float:
    """Infimum of the intervention cost over all impulse sizes, min(C, D)."""
    return min(params.C, params.D)
