"""Argument-validation helpers with consistent error messages.

Also home to the repo's deprecation machinery:
:class:`ReproDeprecationWarning` (a :class:`DeprecationWarning` subclass
the test suite escalates to an error, so internal code can never ship on
a shimmed path) and the :func:`warn_deprecated` helper the ``repro.api``
migration shims are built from.
"""

from __future__ import annotations

import math
import warnings

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_probability",
    "ReproDeprecationWarning",
    "warn_deprecated",
]


class ReproDeprecationWarning(DeprecationWarning):
    """A deprecated ``repro.*`` API path was used.

    Distinct from the stdlib's so the test suite can turn exactly these
    into errors (``filterwarnings`` in ``pyproject.toml``) without
    tripping on third-party DeprecationWarnings.
    """


def warn_deprecated(message: str, *, stacklevel: int = 3) -> None:
    """Emit a :class:`ReproDeprecationWarning` pointing at the caller."""
    warnings.warn(message, ReproDeprecationWarning, stacklevel=stacklevel)


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number > 0 and return it."""
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number >= 0 and return it."""
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    lo: float,
    hi: float,
    *,
    inclusive: bool = True,
) -> float:
    """Validate ``lo <= value <= hi`` (or strict when ``inclusive=False``)."""
    value = float(value)
    ok = (lo <= value <= hi) if inclusive else (lo < value < hi)
    if not math.isfinite(value) or not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must be in {bracket[0]}{lo}, {hi}{bracket[1]}, got {value!r}"
        )
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in [0, 1] and return it."""
    return check_in_range(name, value, 0.0, 1.0)
