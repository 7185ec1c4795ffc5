"""Multiplicative strong unimodality diagnostics.

A positive variable with density f is MSU exactly when t -> f(e^t) is
log-concave, i.e. when the residual

    g(x) = (x^2 f''(x) + x f'(x)) f(x) - x^2 (f'(x))^2

is nonpositive for all x > 0 (g / f^2 is the second derivative of
log f(e^t)).  This module evaluates g from the density jets, scans grids
for sign violations, computes the closed tail-sign coefficient, and
carries two independent cross-checks: the alternative expansion of the
log-density through the 1/Gamma(1+z) Taylor coefficients, and the
log-difference law whose density dichotomy is elementary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate, special

from . import specfun
from .density import (Alpha, DEFAULT_SERIES_CONFIG, DensityJet, EvalResult,
                      SeriesConfig, as_alpha, density_jet, density_series,
                      reliable_x_min)
from .errors import DomainError, PoleError, UnreliableScanError
from .util import cospi

_TINY = 1e-300

NO_VIOLATION = "no_violation_found"
VIOLATION = "violation_found"


# ---------------------------------------------------------------------------
# residual and tail sign
# ---------------------------------------------------------------------------

def _residual(x: float, jet: DensityJet) -> EvalResult:
    """g(x) and its error bound from the density jet at x."""
    f, fp, fpp = jet.f.value, jet.fp.value, jet.fpp.value
    # magnitude cap keeps the products below the overflow threshold;
    # anything that large is cancellation garbage anyway
    if not (math.isfinite(jet.fpp.abs_error_estimate)
            and all(math.isfinite(v) and abs(v) < 1e120
                    for v in (f, fp, fpp))):
        return EvalResult(math.nan, math.inf, jet.f.terms_used, False)
    ef, efp, efpp = (jet.f.abs_error_estimate, jet.fp.abs_error_estimate,
                     jet.fpp.abs_error_estimate)
    theta2 = x * x * fpp + x * fp
    g = theta2 * f - (x * fp) ** 2
    err = (abs(f) * (x * x * efpp + x * efp) + abs(theta2) * ef
           + 2.0 * abs(x * fp) * x * efp)
    return EvalResult(g, err, jet.f.terms_used, jet.f.reliable)


def lce_residual(alpha, x: float,
                 cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """g(x) = (x^2 f'' + x f') f - x^2 (f')^2; MSU at x iff g(x) <= 0."""
    return _residual(x, density_jet(alpha, x, cfg))


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
    g1 = specfun.log_gamma(-a)
    g2 = specfun.log_gamma(-2.0 * a)
    log_c = 2.0 * math.log(a) - math.log(2.0) - g1.value - g2.value
    sign = g1.sign * g2.sign
    coefficient = sign * math.exp(log_c)
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


def _golden_max(fun, a: float, b: float, iters: int = 60) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
    return 0.5 * (a + b)


def msu_scan(alpha, x_lo: float, x_hi: float, points: int,
             cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> MsuReport:
    """Scan g over a log-spaced grid and classify.

    A violation witness must exceed its own error estimate, so noise is
    never classified as a violation.  The scan also locates the mode and
    the first inflection point beyond it, and checks that g <= 0 (within
    error) up to that inflection point.  Raises
    :class:`UnreliableScanError` when more than half the grid is
    unreliable.
    """
    alpha = as_alpha(alpha)
    if not (0.0 < x_lo < x_hi):
        raise DomainError("need 0 < x_lo < x_hi")
    if points < 16:
        raise DomainError("need at least 16 grid points")
    grid = np.geomspace(x_lo, x_hi, points)

    jets = [density_jet(alpha, float(x), cfg) for x in grid]
    residuals = [_residual(float(x), jet) for x, jet in zip(grid, jets)]
    normalized = [r.value / (jet.f.value * jet.f.value)
                  if (r.reliable and jet.f.value > 0.0) else math.nan
                  for r, jet in zip(residuals, jets)]

    reliable_idx = [i for i, r in enumerate(residuals) if r.reliable]
    unreliable_fraction = 1.0 - len(reliable_idx) / points
    if unreliable_fraction > 0.5:
        raise UnreliableScanError(
            f"{unreliable_fraction:.0%} of grid points unreliable")

    # witness: strongest normalized violation beyond its error bar
    witness = None
    best = 0.0
    for i in reliable_idx:
        r = residuals[i]
        if r.value > r.abs_error_estimate:
            score = normalized[i]
            if witness is None or score > best:
                witness, best = float(grid[i]), score
    classification = VIOLATION if witness is not None else NO_VIOLATION

    # mode: argmax of f over the reliable points, golden-section refined
    # when the bracket is interior
    fvals = {i: jets[i].f.value for i in reliable_idx}
    i_mode = max(fvals, key=fvals.get)
    if 0 < i_mode < points - 1 and (i_mode - 1) in fvals and (i_mode + 1) in fvals:
        mode = _golden_max(
            lambda x: density_series(alpha, x, cfg).value,
            float(grid[i_mode - 1]), float(grid[i_mode + 1]))
    else:
        mode = float(grid[i_mode])

    # first f'' sign change at or beyond the mode
    inflection = None
    prev = None
    for i in reliable_idx:
        if grid[i] < mode:
            prev = i
            continue
        if prev is not None and jets[prev].fpp.value < 0.0 <= jets[i].fpp.value:
            lo, hi = float(grid[prev]), float(grid[i])
            for _ in range(60):
                midp = math.sqrt(lo * hi)
                if density_jet(alpha, midp, cfg).fpp.value < 0.0:
                    lo = midp
                else:
                    hi = midp
            inflection = 0.5 * (lo + hi)
            break
        prev = i

    # g <= 0 (within error) must hold up to the inflection point; when no
    # sign change of f'' is visible and the grid starts convex the
    # inflection lies below the grid and the check is vacuous
    if inflection is not None:
        check_upto = inflection
    elif reliable_idx and jets[reliable_idx[0]].fpp.value > 0.0:
        check_upto = -math.inf
    else:
        check_upto = float(grid[-1])
    pre_ok = all(residuals[i].value <= residuals[i].abs_error_estimate
                 for i in reliable_idx if grid[i] <= check_upto)

    return MsuReport(
        alpha=alpha,
        grid=tuple(float(x) for x in grid),
        residuals=tuple(residuals),
        normalized_residuals=tuple(normalized),
        classification=classification,
        witness=witness,
        mode_estimate=float(mode),
        inflection_estimate=inflection,
        unreliable_fraction=unreliable_fraction,
        pre_inflection_ok=pre_ok,
    )


# ---------------------------------------------------------------------------
# integral criterion
# ---------------------------------------------------------------------------

def integral_criterion(alpha, x: float,
                       cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """Quadrature of int_0^x (f'(x-y) f(x) - f(x-y) f'(x)) y^{-a} dy.

    The endpoint singularity is removed by y = u^{1/(1-a)}.  Direct
    computation shows this integral equals Gamma(1-a)/a * f(x)^2 up to
    quadrature error (differentiate the classical identity
    x f(x) = a/Gamma(1-a) * int_0^x f(x-y) y^{-a} dy), so its positivity
    is structural; it is kept as a cross-diagnostic of the jets.
    Evaluations with x - y below the reliable region are dropped and
    bounded into the error estimate.
    """
    alpha = as_alpha(alpha)
    if x <= 0.0:
        raise DomainError("integral_criterion requires x > 0")
    a = alpha.value
    x_min = reliable_x_min(alpha, cfg)
    jet_x = density_jet(alpha, x, cfg)
    fx, fpx = jet_x.f.value, jet_x.fp.value
    if x <= x_min:
        raise DomainError("x below the reliable domain of the series")
    expo = 1.0 / (1.0 - a)

    def integrand(u: float) -> float:
        y = u ** expo
        t = x - y
        if t < x_min:
            return 0.0
        j = density_jet(alpha, t, cfg)
        return j.fp.value * fx - j.f.value * fpx

    upper = (x - x_min) ** (1.0 - a)
    # break near the u-image of the mode region, where the integrand spikes
    t_breaks = [t for t in (x_min * 4.0, 0.05, 0.2, 0.5, 1.0, 2.0, x / 2.0)
                if x_min < t < x * 0.95]
    u_breaks = sorted({(x - t) ** (1.0 - a) for t in t_breaks} | {0.0, upper})
    total = 0.0
    quad_err = 0.0
    for lo, hi in zip(u_breaks[:-1], u_breaks[1:]):
        if hi <= lo:
            continue
        val, err = integrate.quad(integrand, lo, hi, limit=200)
        total += val
        quad_err += err
    value = total / (1.0 - a)
    quad_err /= (1.0 - a)
    # dropped band y in (x - x_min, x): bound by the band width times the
    # magnitudes at the reliability edge
    edge = density_jet(alpha, x_min * 1.0001, cfg)
    band = (abs(edge.fp.value) * abs(fx) + edge.f.value * abs(fpx)) \
        * x_min * max(x - x_min, x_min) ** (-a)
    err = quad_err + band
    reliable = jet_x.f.reliable and band <= 0.05 * abs(value) + err
    return EvalResult(value, err, jet_x.f.terms_used, reliable)


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
        log_coeffs.append((-1.0) ** (kk - 1) * float(special.zeta(kk)) / kk)
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


def bb_p(alpha, x: float, expansion: BbExpansion) -> float:
    """P(x) = sum_j b_j a^{j+1} (-1)^j R_j(-x), truncated at the
    expansion order."""
    a = as_alpha(alpha).value
    acc = 0.0
    for j in range(expansion.order + 1):
        acc += (expansion.b_coeffs[j] * a ** (j + 1) * (-1.0) ** j
                * _poly_eval(expansion.r_polys[j], -x))
    return acc


def bb_p_prime(alpha, x: float, expansion: BbExpansion) -> float:
    """d/dx of bb_p (termwise, using the exact derivative polynomials)."""
    a = as_alpha(alpha).value
    acc = 0.0
    for j in range(expansion.order + 1):
        coeffs = expansion.r_polys[j]
        deriv = tuple(e * coeffs[e] for e in range(1, len(coeffs)))
        acc -= (expansion.b_coeffs[j] * a ** (j + 1) * (-1.0) ** j
                * _poly_eval(deriv, -x))
    return acc


def bb_log_density(alpha, t: float, expansion: BbExpansion,
                   rel_tol: float = 1e-9) -> EvalResult:
    """Density of log Z_alpha at t via the alternative expansion;
    must equal f_alpha(e^t) e^t wherever reliable.

    The terms alternate in sign and only collapse once b_j does, so for
    strongly negative t (large e^{-a t}) the truncation error dominates
    and the result is flagged unreliable.
    """
    a = as_alpha(alpha).value
    x = math.exp(-a * t)
    terms = []
    for j in range(expansion.order + 1):
        terms.append(expansion.b_coeffs[j] * a ** (j + 1) * (-1.0) ** j
                     * _poly_eval(expansion.r_polys[j], -x))
    p = math.fsum(terms)
    tail = max(abs(terms[-1]), abs(terms[-2]))
    envelope = math.exp(-a * t - x)
    value = envelope * p
    err = envelope * 2.0 * tail
    reliable = tail <= rel_tol * abs(p)
    return EvalResult(value, err, expansion.order + 1, reliable)


# ---------------------------------------------------------------------------
# log-difference law
# ---------------------------------------------------------------------------

def ualpha_density(alpha, x: float) -> float:
    """Density of the difference of two independent copies of log Z:
    u(x) = sin(pi a) / (pi (e^{a x} + 2 cos(pi a) + e^{-a x}))."""
    a = as_alpha(alpha).value
    ax = a * x
    if abs(ax) > 700.0:
        return 0.0
    denom = math.pi * (math.exp(ax) + 2.0 * cospi(a) + math.exp(-ax))
    return math.sin(math.pi * a) / denom


def ualpha_logconcavity_margin(alpha, x: float) -> float:
    """Margin whose nonnegativity for all x is equivalent to
    log-concavity of the log-difference density.

    With h(x) = e^{a x} + 2 cos(pi a) + e^{-a x} = 2(cosh(a x) + cos(pi a)),
    differentiating twice gives
    (log h)'' = 4 a^2 (1 + cos(pi a) cosh(a x)) / h^2,
    so the margin is 1 + cos(pi a) cosh(a x); it stays >= 0 everywhere
    iff cos(pi a) >= 0, i.e. iff a <= 1/2.
    """
    a = as_alpha(alpha).value
    ax = a * x
    c = cospi(a)
    if abs(ax) > 700.0:
        return math.inf if c > 0.0 else (1.0 if c == 0.0 else -math.inf)
    return 1.0 + c * math.cosh(ax)
