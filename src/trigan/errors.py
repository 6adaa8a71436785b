"""Exception hierarchy.

Every error raised by the library derives from TriganError so callers can
catch library failures without masking programming errors.
"""

import math


class TriganError(Exception):
    """Base class for all library errors."""


class NonPositiveDensity(TriganError):
    """A density value is zero or negative where strict positivity is required."""


class DegenerateJacobian(TriganError):
    """A Jacobian (or diagonal partial) is at or below the positivity floor."""


class RootNotBracketed(TriganError):
    """Monotone solve failed to bracket its root; signals an internal bug."""


class ParamsOutOfBox(TriganError):
    """Parameter vector leaves the certified parameter box."""


class NetTooLarge(TriganError):
    """Requested net cardinality exceeds the configured cap."""


class ConfigInvalid(TriganError):
    """Run configuration failed schema validation."""


class IntegralDivergent(TriganError):
    """Entropy integral diverges: d / (2(alpha + k - 1)) >= 1."""


def _finite_number(raw, key: str) -> float:
    """raw as a float; ConfigInvalid unless it is a finite int or float
    (a bool or a numeric string is refused)."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            val = float(raw)
        except OverflowError:
            val = math.inf
        if math.isfinite(val):
            return val
    raise ConfigInvalid(f"{key} must be a number: finite, not a boolean or a string")
