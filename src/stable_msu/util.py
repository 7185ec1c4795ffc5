"""Small numeric helpers used across modules."""

from __future__ import annotations

import math


def sinpi(y: float) -> float:
    """sin(pi*y) with exact zeros at integer y.

    The argument is reduced with IEEE remainder (exact), so huge or
    nearly-integer arguments do not suffer the catastrophic phase loss
    of ``math.sin(math.pi * y)``.
    """
    r = math.remainder(y, 2.0)
    if r == 0.0 or abs(r) == 1.0:
        return 0.0
    return math.sin(math.pi * r)


def cospi(y: float) -> float:
    """cos(pi*y) with exact zeros at half-integer y."""
    return sinpi(y + 0.5)

