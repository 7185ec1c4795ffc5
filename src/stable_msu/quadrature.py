"""Double-exponential (tanh-sinh family) quadrature.

Two transformations cover every integral in this library:

* :func:`tanh_sinh` -- finite interval; tolerates integrable endpoint
  singularities of algebraic or logarithmic type.
* :func:`de_halfline` -- (0, inf); tolerates an algebraic singularity at
  zero and any decay at infinity fast enough to beat the
  double-exponential node growth (exponential decay certainly is).

Both refine a trapezoid rule in the transformed variable t, halving the
step per level, and report the difference between the last two levels
as the error estimate.  The levels are nested: level 0 holds the
nodes t = k, level L > 0 only the odd multiples of 2^-L, all with
|t| <= ``_T_MAX``.  The level-L trapezoid sum is the running sum over
the nodes of levels 0..L times 2^-L, so no node is evaluated twice.

``f`` takes a 1-D float ndarray of nodes.  Its first call covers the
nodes of levels 0.._HEAD at once (the head: their tables concatenated
in level order), and each later call the nodes of one level.  One
``np.add.reduceat`` per call (a run) takes every level's sum in it, and
the stopping test then runs level by level over those sums, so the head
only changes how many calls the integrand gets, not a bit of the
result.  It relies on numpy's ufuncs giving an argument the same bits
at any position and in any array length, and on ``reduceat`` giving a
level's sum the same bits wherever the level starts in the array.

``f`` returns either an array of the nodes' shape, for one integral, or
a ``(k, n)`` array, for k sibling integrals over the same nodes (rows).
Each row stops at its own level; the result then holds float64 arrays
of length k for ``value`` and ``error``, each row's level and stopping
verdict in ``row_levels`` and ``converged``, and ``levels`` is the
deepest level any row took.  Rows that have stopped are still
evaluated, and ignored, while others refine.  One integral is summed as
one row, and the ``reduceat`` along the rows' axis gives each row the
bits of a ``reduceat`` over that row alone.

``f`` is called under ``np.errstate(all="ignore")``; a weighted value
that is not finite counts as 0 (in its own row), and so does every node
where ``f`` is 0: where a run's sums are not all finite, its non-finite
values are set to 0 and the ``reduceat`` is taken again, which leaves
the sums of the other levels and rows as they were.

The node tables of a level, and those of the head, are built on first
use, cached and read-only.  Besides the nodes and weights of both maps,
they hold log x and log1p x at the exp-sinh nodes x, so that an
integrand of :func:`de_halfline` can read them instead of computing
them on every call: ``_half_table(x)`` gives the table of the array
that ``f`` is handed.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError

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
# deepest level of the first integrand call (435 exp-sinh nodes in all);
# most integrals stop within it
_HEAD = 5

Integrand = Callable[[np.ndarray], np.ndarray]


class QuadResult(NamedTuple):
    """floats for one integral; float64 arrays of length k for k rows.
    ``levels`` is the deepest level any row took; ``row_levels`` and
    ``converged`` give each row's own level and whether it passed the
    stopping test, as an int and a bool for one integral and as tuples
    of length k for k rows."""

    value: Union[float, np.ndarray]
    error: Union[float, np.ndarray]
    levels: int
    row_levels: Union[int, tuple[int, ...]]
    converged: Union[bool, tuple[bool, ...]]


class _Nodes(NamedTuple):
    """The new nodes of one level, for both maps (read-only arrays)."""

    t: np.ndarray
    # exp-sinh: x = exp(pi/2 sinh t), weight dx/dt = x pi/2 cosh t
    half_x: np.ndarray
    half_w: np.ndarray
    # log x and log1p x at those nodes, read by integrands that would
    # otherwise recompute them on every call (see _half_table)
    half_log: np.ndarray
    half_log1p: np.ndarray
    # tanh-sinh on [-1, 1], nodes with |u| <= _U_CAP only (u = pi/2 sinh t):
    # distance 1 - |tanh u| = 2 / (1 + e^{2|u|}) from the endpoint on
    # the side of u, and weight pi/2 cosh t sech^2 u
    fin_right: np.ndarray
    fin_d: np.ndarray
    fin_w: np.ndarray


class _Run(NamedTuple):
    """The new nodes of consecutive levels, one integrand call's worth:
    each field of ``nodes`` is the levels' tables concatenated in level
    order, and the ends are the offsets where each level stops, in the
    exp-sinh fields and in the tanh-sinh fields."""

    nodes: _Nodes
    half_ends: tuple[int, ...]
    fin_ends: tuple[int, ...]


def _level_t(level: int) -> np.ndarray:
    """t = k for level 0, the odd multiples of 2^-level otherwise."""
    h = 0.5 ** level
    k_max = math.floor(_T_MAX / h)
    k = np.arange(-k_max, k_max + 1)
    if level > 0:
        k = k[k % 2 != 0]
    return k * h


# Every node table built, by the id of its half_x.  The entries keep
# the tables alive, so no id is reused; there is one per table of
# _nodes and _head.
_HALF_TABLES: dict[int, _Nodes] = {}


def _register(nodes: _Nodes) -> _Nodes:
    """nodes, made read-only and registered under its half_x."""
    for a in nodes:
        a.flags.writeable = False
    _HALF_TABLES[id(nodes.half_x)] = nodes
    return nodes


def _half_table(x: np.ndarray) -> _Nodes:
    """The node table of x, the nodes de_halfline handed its integrand."""
    return _HALF_TABLES[id(x)]


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
    return _register(_Nodes(t, half_x, half_w, np.log(half_x),
                            np.log1p(half_x), uk >= 0.0, fin_d, fin_w))


@lru_cache(maxsize=None)
def _head(top: int) -> _Run:
    """The nodes of levels 0..top as one run."""
    levels = [_nodes(level) for level in range(top + 1)]
    nodes = _Nodes(*(np.concatenate(field) for field in zip(*levels)))
    return _Run(_register(nodes),
                tuple(itertools.accumulate(n.t.size for n in levels)),
                tuple(itertools.accumulate(n.fin_d.size for n in levels)))


def _runs(max_level: int) -> Iterator[_Run]:
    """The head, then one level at a time up to max_level."""
    top = min(_HEAD, max_level)
    yield _head(top)
    for level in range(top + 1, max_level + 1):
        nodes = _nodes(level)
        yield _Run(nodes, (nodes.t.size,), (nodes.fin_d.size,))


RunTerms = Callable[[_Run], tuple[np.ndarray, Sequence[int]]]


def _run_sums(terms: np.ndarray, ends: Sequence[int]) -> list[list[float]]:
    """Each row's sum over each level of a run (a list per row, a float
    per level).  One reduceat covers every row and level, and gives each
    row the bits of a reduceat over that row alone.  Where a sum is not
    finite, it is taken again with the run's non-finite terms as 0, so a
    level's sum is that of its finite terms unless those overflow."""
    rows = terms.reshape(-1, terms.shape[-1])
    starts = (0, *ends[:-1])
    sums = np.add.reduceat(rows, starts, axis=1).tolist()
    # a sum of the sums is finite only if every sum is
    if not math.isfinite(sum(map(sum, sums))):
        sums = np.add.reduceat(np.where(np.isfinite(rows), rows, 0.0),
                               starts, axis=1).tolist()
    return sums


def _refine(run_terms: RunTerms, rel_tol: float, max_level: int) -> QuadResult:
    """Refine each row until two levels agree to rel_tol; run_terms(run)
    gives the weighted integrand values at a run's nodes and the end of
    each of its levels in them (no level empty).  A row whose value is
    not finite (its running sum overflowed) never counts as converged,
    and its error is inf."""
    if not 0 <= max_level <= _LEVEL_CAP:
        raise ValueError(f"max_level must be in [0, {_LEVEL_CAP}]")
    with np.errstate(all="ignore"):
        runs = _runs(max_level)
        terms, ends = run_terms(next(runs))
        one = terms.ndim == 1
        sums = _run_sums(terms, ends)
        # level 0 has no error estimate; the stopping test starts at 1
        totals = [row[0] for row in sums]
        values = list(totals)
        errors = [math.inf] * len(sums)
        levels = [0] * len(sums)
        converged = [False] * len(sums)
        running = range(len(sums))
        level, first = 0, 1  # the deepest level summed; sums' next column
        while True:
            for i in running:
                total, value, error, depth = (totals[i], values[i],
                                              errors[i], level)
                for s in sums[i][first:]:
                    depth += 1
                    total += s
                    new = total * 0.5 ** depth
                    if not math.isfinite(new):
                        value, error = new, math.inf
                        continue
                    value, error = new, abs(new - value)
                    if error <= rel_tol * (abs(value) + _TINY):
                        converged[i] = True
                        break
                totals[i], values[i], errors[i], levels[i] = (
                    total, value, error, depth)
            running = [i for i in running if not converged[i]]
            level += len(ends) - first
            run = next(runs, None) if running else None
            if run is None:
                break
            terms, ends = run_terms(run)
            sums, first = _run_sums(terms, ends), 0
    if one:
        return QuadResult(values[0], errors[0], levels[0], levels[0],
                          converged[0])
    return QuadResult(np.array(values), np.array(errors),
                      max(levels, default=0), tuple(levels),
                      tuple(converged))


def tanh_sinh(f: Integrand, a: float, b: float,
              rel_tol: float = 1e-10, max_level: int = 10) -> QuadResult:
    """Integrate f over the finite interval [a, b]; f is never called at
    an endpoint.

    A node that rounds onto an endpoint is dropped with its weight.
    Raises :class:`DomainError` for an interval too narrow for its
    endpoints: where the nodes dropped so carry more than ``rel_tol`` of
    a run's weight, or a level has no node inside (a, b), since the
    result would then miss that share of the integral (1e-4 of it on
    [1e6, 1e6 + 1e-6], half on [1, 1 + 2 eps]) below an error estimate
    that does not show it.  Elsewhere a node rounds onto an endpoint
    only where its weight is below the endpoint's relative spacing, a
    share of about 1e-16 on [0, 1]."""
    if not (a < b):
        raise ValueError("tanh_sinh requires a < b")
    half = 0.5 * (b - a)

    def run_terms(run: _Run) -> tuple[np.ndarray, Sequence[int]]:
        nodes = run.nodes
        # distance from the nearer endpoint, cancellation-free
        d = half * nodes.fin_d
        x = np.where(nodes.fin_right, b - d, a + d)
        inside = (x > a) & (x < b)
        ends = np.cumsum(inside)[[end - 1 for end in run.fin_ends]]
        lost = float(np.sum(nodes.fin_w, where=~inside) / np.sum(nodes.fin_w))
        if lost > rel_tol or np.any(np.diff(ends, prepend=0) == 0):
            raise DomainError(
                f"[{a!r}, {b!r}] is too narrow for tanh_sinh: the nodes that "
                f"round onto its endpoints carry {lost:.2g} of the weight")
        return f(x[inside]) * (half * nodes.fin_w[inside]), ends.tolist()

    return _refine(run_terms, rel_tol, max_level)


def de_halfline(f: Integrand, rel_tol: float = 1e-10,
                max_level: int = 10) -> QuadResult:
    """Integrate f over (0, inf) via the exp-sinh map x = exp(pi/2 sinh t)."""

    def run_terms(run: _Run) -> tuple[np.ndarray, Sequence[int]]:
        nodes = run.nodes
        return f(nodes.half_x) * nodes.half_w, run.half_ends

    return _refine(run_terms, rel_tol, max_level)
