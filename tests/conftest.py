import dataclasses
import functools

import pytest
from scipy.integrate import quad, solve_ivp

from impulsegame import (
    GameParams,
    StateBox,
    a_x,
    build_policy,
    constants,
    solve_backward,
)

# Baseline scenario used throughout the suite.
BASELINE = GameParams(
    a=0.1, b=-0.3, w1=1.0, r1=1.0, z1=2.0, s1=1.0, rho1=2.5,
    w2=4.0, s2=1.0, rho2=5.0, C=3.0, D=5.0, c=2.0, d=3.0, T=1.0,
)


def variant(**overrides) -> GameParams:
    return dataclasses.replace(BASELINE, **overrides)


def defining_rates(path, t):
    """(p1', q1', n1', p2', q2', n2') at ``t`` from the six defining equations.

    Written out here from the model constants, apart from the solver's
    own right-hand sides, and evaluated on the path's closed forms (p1,
    p2, a_x) and interpolants (q1, q2).  Broadcasts over ``t``.
    """
    pr = path.params
    b_x = -pr.b * pr.b / pr.r1
    ax, p1, p2 = a_x(path.constants, t), path.p1_at(t), path.p2_at(t)
    q1, q2 = path.q1_at(t), path.q2_at(t)
    return (
        -pr.w1 - b_x * p1 * p1 - 2.0 * pr.a * p1,
        -ax * q1 + pr.w1 * pr.rho1,
        -0.5 * b_x * q1 * q1 - 0.5 * pr.w1 * pr.rho1 ** 2,
        -pr.w2 - 2.0 * p2 * ax,
        -ax * q2 - b_x * p2 * q1 + pr.w2 * pr.rho2,
        -b_x * q1 * q2 - 0.5 * pr.w2 * pr.rho2 ** 2,
    )


@functools.lru_cache(maxsize=8)
def q1_reference(params):
    """q1 on [0, T] as a function of t, integrated backward from q1(T) =
    -s1*rho1 by scipy's DOP853 (rtol = atol = 1e-13), not from its closed form.

    Steps of at most 0.25 keep the dense output near that accuracy: with
    DOP853's own steps it is off by up to 2e-12 relative at T=200.
    """
    consts = constants(params)
    sol = solve_ivp(lambda t, y: -a_x(consts, t) * y + params.w1 * params.rho1,
                    (params.T, 0.0), [-params.s1 * params.rho1], method="DOP853",
                    rtol=1e-13, atol=1e-13, dense_output=True, max_step=0.25)
    return lambda t: sol.sol(t)[0]


def n1_reference(params, t):
    """n1(t) = n1(T) plus ``quad`` over [t, T] of 0.5*b_x*q1^2 + 0.5*w1*rho1^2,
    the negative of n1's defining rate, with q1 from :func:`q1_reference`."""
    q1 = q1_reference(params)
    b_x = -params.b * params.b / params.r1
    forcing = 0.5 * params.w1 * params.rho1 ** 2
    integral, _ = quad(lambda s: 0.5 * b_x * q1(s) ** 2 + forcing, t, params.T,
                       epsrel=1e-12, epsabs=0.0, limit=500)
    return 0.5 * params.s1 * params.rho1 ** 2 + integral


@pytest.fixture(scope="session")
def params():
    return BASELINE


@pytest.fixture(scope="session")
def params_w2_1():
    return variant(w2=1.0)


@pytest.fixture(scope="session")
def box():
    return StateBox(0.0, 10.0)


@pytest.fixture(scope="session")
def consts(params):
    return constants(params)


@pytest.fixture(scope="session")
def path(params):
    return solve_backward(params)


@pytest.fixture(scope="session")
def policy(path, params):
    return build_policy(path, params)


@pytest.fixture(scope="session")
def path_w2_1(params_w2_1):
    return solve_backward(params_w2_1)


@pytest.fixture(scope="session")
def policy_w2_1(path_w2_1, params_w2_1):
    return build_policy(path_w2_1, params_w2_1)
