"""Exception types shared across the package.

Each maps to a distinct process exit code in the CLI so scripted callers
can tell configuration mistakes from resource limits from numerical
failures (see the list of exit codes in the cli module docstring).
"""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad flag value, malformed config file)."""


class CapExceededError(RuntimeError):
    """A request exceeded a configured resource cap (table size, ball radius, ...)."""


class SolverConvergenceError(RuntimeError):
    """An iterative linear solve stopped before reaching its tolerance."""


class QuadratureError(RuntimeError):
    """A quadrature's error estimate on its mesh is above its tolerance."""
