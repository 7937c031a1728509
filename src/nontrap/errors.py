"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised when a grid, model or experiment configuration is invalid.

    Carries enough context (field name, offending value, documented range)
    for the CLI to print a line/field diagnostic.
    """


class ConstructionError(RuntimeError):
    """Raised when a certified construction step fails.

    Examples: the intermediate-band lower bound comes out non-positive,
    an orbit at a window energy is trapped (its dwell time is infinite),
    or a constant cascade exhausts its halving budget.  The message lists
    the violating data (witness points, energies) where available.
    """


class ConvergenceError(RuntimeError):
    """Raised when an iterative numerical procedure fails to converge."""


class IntegrationError(RuntimeError):
    """Raised when trajectory integration fails, a required flow condition
    is never certified, or an escaped verdict drifts past its energy bound."""
