"""Argument-validation helpers with consistent error messages.

Also home to :class:`ReproDeprecationWarning`, the category the
``repro.api`` deprecation policy warns with (a :class:`DeprecationWarning`
subclass the test suite escalates to an error, so internal code can never
ship on a shimmed path).
"""

from __future__ import annotations

import math
from typing import Any, Mapping

__all__ = [
    "lookup",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_probability",
    "ReproDeprecationWarning",
]


class ReproDeprecationWarning(DeprecationWarning):
    """A deprecated ``repro.*`` API path was used.

    Distinct from the stdlib's so the test suite can turn exactly these
    into errors (``filterwarnings`` in ``pyproject.toml``) without
    tripping on third-party DeprecationWarnings.
    """


def lookup(kind: str, table: Mapping[str, Any], name: str) -> Any:
    """``table[name]``, or a ValueError naming the ``kind`` and the options."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {name!r}; expected one of {sorted(table)}") from None


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
