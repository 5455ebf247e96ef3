"""Float sums in a fixed order, for tests that swap ``builtins.sum``.

Python 3.12 compensates ``sum()`` of floats (Neumaier), which moves the
last bit of e.g. ten 0.1s.  Code whose results feed recorded
fingerprints adds left to right in explicit loops instead.  Tests check
that by swapping ``builtins.sum`` for :func:`neumaier_sum`, which does on
any Python what 3.12's ``sum()`` does, and asserting nothing moved.
"""

import builtins

_BUILTIN_SUM = builtins.sum


def left_to_right(values):
    """``sum()`` as Python 3.11 and earlier do it for floats."""
    total = 0.0
    for v in values:
        total += v
    return total


def neumaier_sum(values, start=0):
    """``sum()`` as Python 3.12 does it for floats: Neumaier-compensated."""
    items = list(values)
    if not all(type(v) is float for v in items):
        return _BUILTIN_SUM(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp
