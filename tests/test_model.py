import numpy as np
import pytest

from impulsegame import (
    InvalidParameterError,
    StateBox,
    intervention_cost,
    min_intervention_cost,
    player1_impulse_cost,
    validate,
    validate_box,
)

from conftest import BASELINE, variant


def test_baseline_is_valid():
    assert validate(BASELINE) is BASELINE


def test_zero_weight_rejected_by_name():
    with pytest.raises(InvalidParameterError, match="w1"):
        validate(variant(w1=0.0))


def test_negative_fixed_cost_rejected_by_name():
    with pytest.raises(InvalidParameterError, match=r"\bC\b"):
        validate(variant(C=-3.0))


def test_every_violation_is_reported():
    with pytest.raises(InvalidParameterError) as err:
        validate(variant(w1=0.0, r1=-1.0, d=0.0, T=-2.0))
    msg = str(err.value)
    for name in ("w1", "r1", "d", "T"):
        assert name in msg


def test_nonfinite_drift_rejected():
    with pytest.raises(InvalidParameterError, match="a"):
        validate(variant(a=float("nan")))


def test_box_ordering_enforced():
    assert validate_box(StateBox(0.0, 10.0)) == StateBox(0.0, 10.0)
    with pytest.raises(InvalidParameterError):
        validate_box(StateBox(5.0, 5.0))
    with pytest.raises(InvalidParameterError):
        validate_box(StateBox(2.0, 1.0))


def test_intervention_cost_baseline_values():
    # direct evaluation of the piecewise formula with the baseline constants
    assert intervention_cost(BASELINE, 1.0) == pytest.approx(3.0 + 2.0 * 1.0)
    assert intervention_cost(BASELINE, 0.0) == pytest.approx(min(3.0, 5.0))
    assert intervention_cost(BASELINE, -1.0) == pytest.approx(5.0 + 3.0 * 1.0)


def test_intervention_cost_positive_with_min_cd_infimum():
    xi = np.linspace(-50.0, 50.0, 20001)
    costs = intervention_cost(BASELINE, xi)
    assert np.all(costs > 0.0)
    assert np.min(costs) == pytest.approx(min_intervention_cost(BASELINE))
    assert min_intervention_cost(BASELINE) == 3.0


def test_intervention_cost_one_sided_continuity():
    eps = 1e-12
    assert intervention_cost(BASELINE, eps) == pytest.approx(BASELINE.C, abs=1e-9)
    assert intervention_cost(BASELINE, -eps) == pytest.approx(BASELINE.D, abs=1e-9)
    # lower semicontinuous at zero: h(0) is the smaller one-sided limit
    assert intervention_cost(BASELINE, 0.0) == min(BASELINE.C, BASELINE.D)


@pytest.mark.parametrize("fixed", [(3.0, 5.0), (5, 3)], ids=["floats", "ints"])
def test_intervention_cost_float_path_equals_array_path(fixed):
    prm = variant(C=fixed[0], D=fixed[1])
    xi = [-2.75, -1e-300, -0.0, 0.0, 1e-300, 0.1, 7.3, float("nan")]
    array = intervention_cost(prm, np.array(xi))
    for k, x in enumerate(xi):
        for one in (x, np.float64(x)):
            cost = intervention_cost(prm, one)
            assert type(cost) is float, (x, type(cost))
            assert np.float64(cost).tobytes() == array[k].tobytes(), (x, cost, array[k])
    assert intervention_cost(prm, -0.0) == intervention_cost(prm, float("nan")) == min(fixed)


def test_player1_impulse_cost_values():
    assert player1_impulse_cost(BASELINE, 2.5) == pytest.approx(5.0)
    assert player1_impulse_cost(BASELINE, 0.0) == 0.0
    assert player1_impulse_cost(BASELINE, -2.5) == pytest.approx(5.0)


def test_player1_impulse_cost_even_and_homogeneous():
    rng = np.random.default_rng(7)
    xi = rng.uniform(-10.0, 10.0, size=200)
    cost = player1_impulse_cost(BASELINE, xi)
    assert np.allclose(cost, player1_impulse_cost(BASELINE, -xi))
    assert np.allclose(player1_impulse_cost(BASELINE, 3.0 * xi), 3.0 * cost)
    assert np.all(cost[xi != 0.0] > 0.0)


def test_params_are_immutable():
    with pytest.raises(Exception):
        BASELINE.w1 = 2.0  # frozen dataclass
