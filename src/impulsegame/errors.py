"""Exception types shared across the solver modules."""


class InvalidParameterError(ValueError):
    """A parameter set violates a positivity or ordering constraint."""


class DegenerateParameterError(ArithmeticError):
    """A closed-form divisor vanished for the given parameters."""


class ConvexityViolation(RuntimeError):
    """Player 2's quadratic value coefficient is not positive on the grid."""


class OrderingViolation(RuntimeError):
    """The threshold curves lost their required ordering at some node."""


class ImpulseBudgetExceeded(RuntimeError):
    """A rollout produced more interventions than the analytic bound allows."""


class NonFiniteStateError(RuntimeError):
    """The integrated state or a coefficient path became non-finite."""


class ConfigError(ValueError):
    """A run configuration file could not be parsed."""
