import dataclasses

import pytest

from impulsegame import (
    GameParams,
    StateBox,
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
