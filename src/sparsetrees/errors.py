"""Error types shared across the package.

Two failure categories are distinguished because the command line maps them
to different exit codes: bad input (exit 2) versus a size guard stopping a
computation that would not finish at desk scale (exit 3).
"""


class ValidationError(ValueError):
    """Input violates a documented precondition. Message names the field."""


class GuardError(RuntimeError):
    """A size guard refused the computation (too many vertices, too much work)."""
