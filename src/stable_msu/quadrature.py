"""Double-exponential (tanh-sinh family) quadrature.

Two transformations cover every integral in this library:

* :func:`tanh_sinh` -- finite interval; tolerates integrable endpoint
  singularities of algebraic or logarithmic type.
* :func:`de_halfline` -- (0, inf); tolerates an algebraic singularity at
  zero and any decay at infinity fast enough to beat the
  double-exponential node growth (exponential decay certainly is).

Both refine a trapezoid rule in the transformed variable t, halving the
step per level, and report the difference between the last two levels
as a conservative error estimate.  The levels are nested: level 0 holds
the nodes t = k, level L > 0 only the odd multiples of 2^-L, all with
|t| <= ``_T_MAX``.  The level-L trapezoid sum is the running sum over
the nodes of levels 0..L times 2^-L, so no node is evaluated twice.

The integrand is evaluated a whole level at a time: ``f`` takes a 1-D
float ndarray of nodes and returns an array of the same shape.  It is
called under ``np.errstate(all="ignore")``; a weighted value that is
not finite counts as 0, and so does every node where ``f`` is 0.  The
node tables of a level are built on first use and cached.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

_HALF_PI = math.pi / 2.0
# Cap on the exponent of the node map; keeps exp() finite in doubles.
_EXP_CAP = 700.0
_T_MAX = math.asinh(_EXP_CAP / _HALF_PI)  # ~6.86
# tanh-sinh nodes with |pi/2 sinh t| above this have underflowing weights
_U_CAP = 350.0
_TINY = 1e-300
# deepest refinement level accepted; its table holds about 450k nodes,
# and each level doubles that
_LEVEL_CAP = 16

Integrand = Callable[[np.ndarray], np.ndarray]


class QuadResult(NamedTuple):
    value: float
    error: float
    levels: int


class _Nodes(NamedTuple):
    """The new nodes of one level, for both maps (read-only arrays)."""

    t: np.ndarray
    # exp-sinh: x = exp(pi/2 sinh t), weight dx/dt = x pi/2 cosh t
    half_x: np.ndarray
    half_w: np.ndarray
    # tanh-sinh on [-1, 1], nodes with |u| <= _U_CAP only (u = pi/2 sinh t):
    # distance 1 - |tanh u| = 2 / (1 + e^{2|u|}) from the endpoint on
    # the side of u, and weight pi/2 cosh t sech^2 u
    fin_right: np.ndarray
    fin_d: np.ndarray
    fin_w: np.ndarray


def _level_t(level: int) -> np.ndarray:
    """t = k for level 0, the odd multiples of 2^-level otherwise."""
    h = 0.5 ** level
    k_max = math.floor(_T_MAX / h)
    k = np.arange(-k_max, k_max + 1)
    if level > 0:
        k = k[k % 2 != 0]
    return k * h


@lru_cache(maxsize=None)
def _nodes(level: int) -> _Nodes:
    t = _level_t(level)
    u = _HALF_PI * np.sinh(t)
    half_x = np.exp(u)
    half_w = half_x * (_HALF_PI * np.cosh(t))
    keep = np.abs(u) <= _U_CAP
    tk, uk = t[keep], u[keep]
    au = np.abs(uk)
    fin_d = 2.0 / (1.0 + np.exp(2.0 * au))
    fin_w = _HALF_PI * np.cosh(tk) / np.cosh(uk) ** 2
    nodes = _Nodes(t, half_x, half_w, uk >= 0.0, fin_d, fin_w)
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _level_sum(values: np.ndarray) -> float:
    """Sum of the finite values (the sum of all of them, unless that is
    not finite)."""
    total = float(np.add.reduce(values))
    if math.isfinite(total):
        return total
    return float(np.add.reduce(np.where(np.isfinite(values), values, 0.0)))


def _refine(level_terms: Callable[[int], np.ndarray], rel_tol: float,
            max_level: int) -> QuadResult:
    """Refine until two levels agree to rel_tol; level_terms(L) are the
    weighted integrand values at the new nodes of level L."""
    if not 0 <= max_level <= _LEVEL_CAP:
        raise ValueError(f"max_level must be in [0, {_LEVEL_CAP}]")
    with np.errstate(all="ignore"):
        total = _level_sum(level_terms(0))
        value = total
        error = math.inf
        level = 0
        for level in range(1, max_level + 1):
            total += _level_sum(level_terms(level))
            new = total * 0.5 ** level
            error = abs(new - value)
            value = new
            if error <= rel_tol * (abs(value) + _TINY):
                break
    return QuadResult(value, error, level)


def tanh_sinh(f: Integrand, a: float, b: float,
              rel_tol: float = 1e-10, max_level: int = 10) -> QuadResult:
    """Integrate f over the finite interval [a, b]; f is never called at
    an endpoint."""
    if not (a < b):
        raise ValueError("tanh_sinh requires a < b")
    half = 0.5 * (b - a)

    def level_terms(level: int) -> np.ndarray:
        nodes = _nodes(level)
        # distance from the nearer endpoint, cancellation-free
        d = half * nodes.fin_d
        x = np.where(nodes.fin_right, b - d, a + d)
        inside = (x > a) & (x < b)
        return f(x[inside]) * (half * nodes.fin_w[inside])

    return _refine(level_terms, rel_tol, max_level)


def de_halfline(f: Integrand, rel_tol: float = 1e-10,
                max_level: int = 10) -> QuadResult:
    """Integrate f over (0, inf) via the exp-sinh map x = exp(pi/2 sinh t)."""

    def level_terms(level: int) -> np.ndarray:
        nodes = _nodes(level)
        return f(nodes.half_x) * nodes.half_w

    return _refine(level_terms, rel_tol, max_level)
