"""Small numeric helpers, and the estimate record, used across modules."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class EvalResult:
    """A value, its absolute error estimate, the work it took (series
    terms or DE levels; 1 for an elementary form) and whether it met its
    tolerance: False where a series' cancellation guard tripped or its
    term budget ran out, or a DE row stopped at ``max_level``.  The
    ``*_grid`` operations return one EvalResult whose fields are arrays.
    """

    value: float
    abs_error_estimate: float
    terms_used: int
    reliable: bool


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


def bisect_log(below, lo: float, hi: float,
               steps: int = 60) -> tuple[float, float]:
    """The last (lo, hi) of up to ``steps`` geometric bisections of
    [lo, hi] onto where ``below`` turns false, from true at lo to false
    at hi.  It stops early once sqrt(lo hi) rounds onto lo or hi: the
    bracket cannot move again."""
    for _ in range(steps):
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return lo, hi
