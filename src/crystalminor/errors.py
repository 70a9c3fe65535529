"""Exception types shared across the package.

Every error raised on purpose by this library derives from CrystalMinorError,
so callers (and the command line driver) can catch domain failures without
swallowing genuine bugs.
"""

from __future__ import annotations


class CrystalMinorError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ColorOutOfRange(CrystalMinorError):
    """A crystal color i was outside [1, r]."""

    def __init__(self, i: int, r: int):
        super().__init__(f"color {i} out of range [1, {r}]")


class CapExceeded(CrystalMinorError):
    """A graph search visited, or a path family holds, more than the cap."""

    def __init__(self, cap: int):
        super().__init__(f"node cap {cap} exceeded")


class NotTauRenderable(CrystalMinorError):
    """A variable has no single-index alias under the current rank."""

    def __init__(self, var):
        super().__init__(f"{var} has no tau alias")


class MissingAssignment(CrystalMinorError):
    """Evaluation hit a variable with no assigned value."""

    def __init__(self, var):
        super().__init__(f"no value assigned to {var}")


class ZeroAssignment(CrystalMinorError):
    """Evaluation hit a variable assigned zero (inverses would blow up)."""

    def __init__(self, var):
        super().__init__(f"{var} assigned zero; all values must be invertible")


class NotInTorus(CrystalMinorError):
    """A diagonal vector failed the torus constraint (product must be 1)."""


class IndexOutOfRange(CrystalMinorError):
    """A word position or mutation direction was not valid."""

    def __init__(self, k, what: str):
        super().__init__(f"{what} {k} out of range")


class ExponentOverflow(CrystalMinorError, OverflowError):
    """A polynomial exponent, or a bound on one, reached the packed limit
    (``laurent.EXPONENT_LIMIT``, 2**31: half of a 32-bit packed digit)."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"{what} reaches the limit 2**{limit.bit_length() - 1}")


class RankTooSmall(CrystalMinorError):
    """A path label needs variables that do not exist at this rank."""
