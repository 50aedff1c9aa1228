"""Exception types raised across the toolkit.

Every toolkit failure is a :class:`PolyevalError`, so callers (and the CLI)
can tell it from a programming error.  A failure caused by input data that
violates a documented contract is also a :class:`ValidationError`.  The
message says what went wrong; there are no finer classes to catch.
"""


class PolyevalError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(PolyevalError):
    """Input data violates a documented contract."""
