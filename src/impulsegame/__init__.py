"""Equilibrium solver, simulator and verifier for a scalar linear-quadratic
differential game in which one player steers the state continuously and the
other intervenes with costly impulses behind a moving threshold band."""

from .errors import (
    ConfigError,
    ConvexityViolation,
    DegenerateParameterError,
    ImpulseBudgetExceeded,
    InvalidParameterError,
    NonFiniteStateError,
    OrderingViolation,
)
from .model import (
    GameParams,
    StateBox,
    intervention_cost,
    min_intervention_cost,
    player1_impulse_cost,
    validate,
    validate_box,
)
from .policy import (
    ThresholdPolicy,
    build_policy,
    gamma_star,
    value_v2,
)
from .riccati import (
    CoefficientPath,
    RiccatiConstants,
    a_x,
    constants,
    p1_closed_form,
    p2_closed_form,
    solve_backward,
)
from .simulate import (
    AdmissibilityReport,
    ImpulseEvent,
    Trajectory,
    admissibility_check,
    impulse_bound,
    impulse_bound_parts,
    make_rollout_hook,
    rollout,
    value_v1,
)
from .verify import (
    DpOracleResult,
    QviSample,
    SufficiencySample,
    VerificationReport,
    brute_force_rv2,
    convexity_margin,
    dp_oracle_v2,
    qvi_check,
    run_verification,
    sufficiency_margins,
)

__all__ = [
    "GameParams", "StateBox", "validate", "validate_box",
    "intervention_cost", "player1_impulse_cost", "min_intervention_cost",
    "RiccatiConstants", "CoefficientPath", "constants",
    "p1_closed_form", "p2_closed_form", "a_x", "solve_backward",
    "ThresholdPolicy", "build_policy", "gamma_star",
    "value_v2",
    "ImpulseEvent", "Trajectory", "AdmissibilityReport", "rollout",
    "impulse_bound", "impulse_bound_parts", "admissibility_check",
    "make_rollout_hook", "value_v1",
    "QviSample", "SufficiencySample", "VerificationReport", "DpOracleResult",
    "qvi_check", "brute_force_rv2", "sufficiency_margins",
    "convexity_margin", "dp_oracle_v2", "run_verification",
    "InvalidParameterError", "DegenerateParameterError", "ConvexityViolation",
    "OrderingViolation", "ImpulseBudgetExceeded", "NonFiniteStateError",
    "ConfigError",
]
