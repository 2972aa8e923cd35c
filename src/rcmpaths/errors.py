"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A parameter, table, or configuration value violates its contract."""


class UnsupportedClosedFormError(ValueError):
    """A closed-form routine was called outside the regime where it holds."""


class QuadratureConfigError(ValueError):
    """A quadrature grid is unusable (or too coarse while in strict mode)."""


class ReplicationError(RuntimeError):
    """Replications of a grid point could not be computed."""
