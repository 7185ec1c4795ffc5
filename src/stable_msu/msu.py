"""Multiplicative strong unimodality diagnostics.

A positive variable with density f is MSU exactly when t -> f(e^t) is
log-concave, i.e. when the residual

    g(x) = (x^2 f''(x) + x f'(x)) f(x) - x^2 (f'(x))^2

is nonpositive for all x > 0.  With theta = x d/dx, g = S0 S2 - S1^2
from the series' theta-sums S0 = f, S1 = x f', S2 = x^2 f'' + x f', and
g / f^2 = S2/S0 - (S1/S0)^2 is theta^2 log f, the second derivative of
log f(e^t).  This module evaluates g, scans grids for sign violations,
computes the closed tail-sign coefficient, and carries two independent
cross-checks: the alternative expansion of the log-density through the
1/Gamma(1+z) Taylor coefficients, and the log-difference law whose
density dichotomy is elementary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import specfun
from .density import (DEFAULT_SERIES_CONFIG, Alpha, EvalResult, _hp_sums,
                      _hp_sums_grid, as_alpha)
from .errors import DomainError, PoleError, UnreliableScanError
from .util import bisect_log, cospi

NO_VIOLATION = "no_violation_found"
VIOLATION = "violation_found"


# ---------------------------------------------------------------------------
# residual and tail sign
# ---------------------------------------------------------------------------

def _residual(sums) -> EvalResult:
    """g = S0 S2 - S1^2 and its first-order bar from the theta-sums as
    _hp_sums_grid returns them at order 2, as arrays over a grid.  A point
    is reliable where all three sums are, g and its bar are finite (else
    they are nan and inf) and a product is a normal double: where f
    underflows, g and its bar are 0 or subnormal and tell nothing."""
    (s0, s1, s2), (e0, e1, e2), flags, terms_used, _ = sums
    with np.errstate(over="ignore", invalid="ignore"):
        p0, p1 = s2 * s0, s1 * s1
        g = p0 - p1
        err = (np.abs(s0) * (e2 + 2.0 * e1) + np.abs(s2) * e0
               + 2.0 * np.abs(s1) * e1)
    # the products overflow at a tiny alpha and x and underflow where f does
    finite = np.isfinite(g) & np.isfinite(err)
    normal = np.maximum(np.abs(p0), p1) >= np.finfo(float).tiny
    return EvalResult(np.where(finite, g, math.nan),
                      np.where(finite, err, math.inf),
                      terms_used, flags.all(axis=0) & finite & normal)


def _points(r: EvalResult) -> list[EvalResult]:
    """One scalar EvalResult per grid point of an array EvalResult."""
    return [EvalResult(*p) for p in zip(
        r.value.tolist(), r.abs_error_estimate.tolist(),
        r.terms_used.tolist(), r.reliable.tolist())]


def lce_residual(alpha, x: float) -> EvalResult:
    """g(x) = (x^2 f'' + x f') f - x^2 (f')^2; MSU at x iff g(x) <= 0.

    g comes from the float loop's theta-sums, which enter msu_scan's
    residual formula as one-point arrays, so it is msu_scan's residual
    bit for bit.  g / f^2 is theta^2 log f."""
    sums = _hp_sums(as_alpha(alpha), x, DEFAULT_SERIES_CONFIG, order=2)
    return _points(_residual(tuple(np.array(v)[..., None] for v in sums)))[0]


def tail_residual_sign(alpha) -> tuple[float, bool]:
    """Leading tail coefficient of -g and its MSU verdict.

    x^2 (f')^2 - (x^2 f'' + x f') f  ~  c(a) x^{-(2+3a)}  with
    c(a) = a^2 / (2 Gamma(-a) Gamma(-2a)); the law is MSU-compatible at
    infinity iff c(a) > 0, which happens exactly for a < 1/2.  At
    a = 1/2 the coefficient degenerates through the Gamma(-1) pole.
    """
    alpha = as_alpha(alpha)
    a = alpha.value
    if a == 0.5:
        raise PoleError("tail coefficient degenerates at alpha = 1/2")
    g1, sign1 = specfun.log_gamma(-a)
    g2, sign2 = specfun.log_gamma(-2.0 * a)
    log_c = 2.0 * math.log(a) - math.log(2.0) - g1.value - g2.value
    coefficient = sign1 * sign2 * math.exp(log_c)
    return coefficient, coefficient > 0.0


# ---------------------------------------------------------------------------
# grid scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MsuReport:
    """Result of a residual scan over a log-spaced grid."""

    alpha: Alpha
    grid: tuple[float, ...]
    residuals: tuple[EvalResult, ...]
    normalized_residuals: tuple[float, ...]
    classification: str
    witness: Optional[float]
    mode_estimate: float
    inflection_estimate: Optional[float]
    unreliable_fraction: float
    pre_inflection_ok: bool

    def summary(self) -> dict:
        return {
            "alpha": self.alpha.value,
            "classification": self.classification,
            "witness": self.witness,
            "mode": self.mode_estimate,
            "inflection": self.inflection_estimate,
            "unreliable_fraction": self.unreliable_fraction,
            "pre_inflection_ok": self.pre_inflection_ok,
        }


def _turn(alpha: Alpha, combo, lo: float, hi: float) -> float:
    """Where combo(S0, S1, S2) of the float loop's theta-sums turns from
    negative to nonnegative in [lo, hi]: the midpoint of bisect_log's
    last bracket."""
    lo, hi = bisect_log(
        lambda x: combo(_hp_sums(alpha, x, DEFAULT_SERIES_CONFIG,
                                 order=2)[0]) < 0.0, lo, hi)
    return 0.5 * (lo + hi)


def msu_scan(alpha, x_lo: float, x_hi: float, points: int) -> MsuReport:
    """Scan g over a log-spaced grid and classify.

    A violation witness must exceed its own error estimate, so noise is
    never classified as a violation.  The scan also locates the mode and
    the first inflection point beyond it, and checks that g <= 0 (within
    error) up to that inflection point.  Raises
    :class:`UnreliableScanError` when more than half the grid is
    unreliable.
    """
    alpha = as_alpha(alpha)
    if not (0.0 < x_lo < x_hi < math.inf):
        raise DomainError("need 0 < x_lo < x_hi < inf")
    if points < 16:
        raise DomainError("need at least 16 grid points")
    grid = np.geomspace(x_lo, x_hi, points)

    sums = _hp_sums_grid(alpha, grid, DEFAULT_SERIES_CONFIG, order=2)
    res = _residual(sums)
    g, err = res.value, res.abs_error_estimate
    f, s1, s2 = sums[0]
    curv = s2 - s1  # x^2 f'', with the sign of f''
    # g / f^2 as theta^2 log f, which forms no f^2 to underflow
    ok = res.reliable & (f > 0.0)
    norm = np.full(points, math.nan)
    norm[ok] = s2[ok] / f[ok] - (s1[ok] / f[ok]) ** 2

    # the reliable points, in grid order; g and the sums are finite there
    idx = np.flatnonzero(res.reliable)
    unreliable_fraction = 1.0 - len(idx) / points
    if unreliable_fraction > 0.5:
        raise UnreliableScanError(
            f"{unreliable_fraction:.0%} of grid points unreliable")

    # witness: strongest normalized violation beyond its error bar, the
    # first on ties; a first candidate whose g / f^2 is nan (f <= 0) wins
    witness = None
    above = idx[g[idx] > err[idx]]
    if above.size:
        scores = norm[above]
        i = 0 if math.isnan(scores[0]) else np.nanargmax(scores)
        witness = float(grid[above[i]])
    classification = VIOLATION if witness is not None else NO_VIOLATION

    # mode: first argmax of f over the reliable points; when both
    # neighbours are reliable, refined between them to where S1 = x f'
    # turns nonpositive
    i_mode = idx[np.argmax(f[idx])]
    if 0 < i_mode < points - 1 and res.reliable[i_mode - 1:i_mode + 2].all():
        mode = _turn(alpha, lambda s: -s[1], float(grid[i_mode - 1]),
                     float(grid[i_mode + 1]))
    else:
        mode = float(grid[i_mode])

    # inflection: the first pair of consecutive reliable points, the
    # right one at or beyond the mode, where f'' goes from < 0 to >= 0
    inflection = None
    left, right = idx[:-1], idx[1:]
    turns = np.flatnonzero((grid[right] >= mode) & (curv[left] < 0.0)
                           & (curv[right] >= 0.0))
    if turns.size:
        inflection = _turn(alpha, lambda s: s[2] - s[1],
                           float(grid[left[turns[0]]]),
                           float(grid[right[turns[0]]]))

    # g <= 0 (within error) must hold up to the inflection point; when no
    # sign change of f'' is visible and the grid starts convex the
    # inflection lies below the grid and the check is vacuous
    if inflection is not None:
        check_upto = inflection
    elif curv[idx[0]] > 0.0:
        check_upto = -math.inf
    else:
        check_upto = grid[-1]
    upto = idx[grid[idx] <= check_upto]
    pre_ok = bool(np.all(g[upto] <= err[upto]))

    return MsuReport(
        alpha=alpha,
        grid=tuple(grid.tolist()),
        residuals=tuple(_points(res)),
        normalized_residuals=tuple(norm.tolist()),
        classification=classification,
        witness=witness,
        mode_estimate=mode,
        inflection_estimate=inflection,
        unreliable_fraction=unreliable_fraction,
        pre_inflection_ok=pre_ok,
    )


# ---------------------------------------------------------------------------
# alternative log-density expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BbExpansion:
    """Taylor data for the alternative log-density expansion.

    ``b_coeffs[j]`` are the Taylor coefficients of 1/Gamma(1+z);
    ``r_polys[j]`` are the exact integer coefficients of the polynomials
    R_j defined by e^{z + x e^z} = sum_j R_j(x) e^x z^j / j!, which obey
    R_0 = 1 and R_{j+1}(x) = R_j(x) + x * sum_m C(j,m) R_{j-m}(x).
    """

    b_coeffs: tuple[float, ...]
    r_polys: tuple[tuple[int, ...], ...]
    order: int

    def __post_init__(self) -> None:
        if self.b_coeffs[0] != 1.0 or self.r_polys[0] != (1,):
            raise ValueError("b_0 and R_0 must both be 1")


def bb_expansion(order: int) -> BbExpansion:
    """Coefficients b_j (exponentiated log-series of 1/Gamma(1+z), via
    the Euler-Mascheroni constant and zeta values) and the exact R_j
    recurrence, up to the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    # log(1/Gamma(1+z)) = gamma z + sum_{k>=2} (-1)^{k-1} zeta(k) z^k / k
    log_coeffs = [0.0, float(np.euler_gamma)]
    for kk in range(2, order + 1):
        log_coeffs.append((-1.0) ** (kk - 1) * specfun._zeta(kk) / kk)
    b = [1.0]
    for j in range(1, order + 1):
        acc = 0.0
        for kk in range(1, j + 1):
            acc += kk * log_coeffs[kk] * b[j - kk]
        b.append(acc / j)

    r: list[tuple[int, ...]] = [(1,)]
    for j in range(order):
        # R_{j+1} = R_j + x * sum_{m=0..j} C(j, m) R_{j-m}
        conv = [0] * (j + 1)
        for m in range(j + 1):
            cjm = math.comb(j, m)
            for e, coef in enumerate(r[j - m]):
                conv[e] += cjm * coef
        new = list(r[j]) + [0] * (len(conv) + 1 - len(r[j]))
        for e, coef in enumerate(conv):
            new[e + 1] += coef
        r.append(tuple(new))
    return BbExpansion(tuple(b), tuple(r), order)


def _poly_eval(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _bb_terms(a: float, x: float, expansion: BbExpansion) -> list[float]:
    """Terms b_j a^{j+1} (-1)^j R_j(-x), j = 0..order, of the sum P(x)
    that bb_log_density multiplies by its envelope."""
    return [expansion.b_coeffs[j] * a ** (j + 1) * (-1.0) ** j
            * _poly_eval(expansion.r_polys[j], -x)
            for j in range(expansion.order + 1)]


def bb_log_density(alpha, t: float, expansion: BbExpansion) -> EvalResult:
    """Density of log Z_alpha at t via the alternative expansion;
    must equal f_alpha(e^t) e^t wherever reliable.

    The terms alternate in sign and only collapse once b_j does, so for
    strongly negative t (large e^{-a t}) the truncation error dominates
    and the result is flagged unreliable.
    """
    a = as_alpha(alpha).value
    x = math.exp(-a * t)
    terms = _bb_terms(a, x, expansion)
    p = math.fsum(terms)
    tail = max(abs(terms[-1]), abs(terms[-2]))
    envelope = math.exp(-a * t - x)
    value = envelope * p
    err = envelope * 2.0 * tail
    reliable = tail <= 1e-9 * abs(p)
    return EvalResult(value, err, expansion.order + 1, reliable)


# ---------------------------------------------------------------------------
# log-difference law
# ---------------------------------------------------------------------------

def ualpha_logconcavity_margin(alpha, x):
    """Margin whose nonnegativity for all x is equivalent to
    log-concavity of the log-difference density u(x) = sin(pi a) / (pi h(x)).

    With h(x) = e^{a x} + 2 cos(pi a) + e^{-a x} = 2(cosh(a x) + cos(pi a)),
    differentiating twice gives
    (log h)'' = 4 a^2 (1 + cos(pi a) cosh(a x)) / h^2,
    so the margin is 1 + cos(pi a) cosh(a x); it stays >= 0 everywhere
    iff cos(pi a) >= 0, i.e. iff a <= 1/2.  ``x`` may be a float or an
    array; the result has the same shape.
    """
    a = as_alpha(alpha).value
    ax = a * np.asarray(x, dtype=float)
    if np.isnan(ax).any():
        raise DomainError("ualpha_logconcavity_margin requires x that is "
                          "not NaN")
    c = cospi(a)
    far = np.abs(ax) > 700.0
    limit = math.inf if c > 0.0 else (1.0 if c == 0.0 else -math.inf)
    out = np.where(far, limit, 1.0 + c * np.cosh(np.where(far, 0.0, ax)))
    return out if out.ndim else float(out)
