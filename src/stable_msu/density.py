"""Positive stable densities on (0, inf), normalized so that
``int_0^inf e^{-lambda t} f_a(t) dt = exp(-lambda**a)`` for 0 < a < 1.

The density and its first two derivatives are evaluated from the
convergent large-x expansion

    f_a(x) = (1/pi) sum_{n>=1} (-1)^{n-1}/n! sin(pi a n) Gamma(1+a n) x^{-(1+a n)}

which may be differentiated term by term; the logarithmic-derivative
combinations x f' and x^2 f'' + x f' share the same coefficients with
multipliers -(1+a n) and +(1+a n)^2.  The sine form makes terms with
``a n`` integer vanish exactly, and summation is compensated
(Neumaier).  At small x the terms grow before they decay and the sum
cancels catastrophically; a configurable guard flags such evaluations
as unreliable instead of returning noise.  An optional extended
precision mode (``SeriesConfig.dps``) pushes the reliable region down
by evaluating with mpmath.

The series engine has two paths with one set of rules (truncation,
compensation, overflow cut, error bars and flags):

* ``_hp_sums`` sums one float x in a plain Python loop.  The scalar
  operations (``density_series``, ``density_jet``, ``survival_series``)
  use it, and so do their pointwise callers: scipy ``quad`` integrands,
  golden-section and bisection refinements, and ``reliable_x_min``.
* ``_hp_sums_grid`` sums a whole x array in one numpy loop over n, one
  column per point; columns leave the working arrays once they have
  converged or overflowed.  The ``*_grid`` operations use it, and every
  caller with a grid goes through them: ``msu.msu_scan`` and
  ``msu.lce_residual``, both segments of ``verify.build_cdf``, the
  closed-form and expansion acceptance checks, the fixed Gauss-Legendre
  segment of ``laplace_check`` and the ``density`` CLI.

Both paths return bit-identical values, error bars, term counts and
flags.  Scalar callers stay on the float loop because the array loop
costs about ten float-loop calls for one point (0.4-0.8 ms against
0.03-0.07 ms for a jet on a 2-vCPU x86 host), while on grids of 400 to
6000 points it takes a fifth to a tenth of the float loop's time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import mpmath as mp
import numpy as np
from scipy import integrate

from . import specfun
from .errors import DomainError, UnsupportedAlphaError
from .util import neumaier_add, sinpi

_LN_PI = math.log(math.pi)
_EPS = 2.220446049250313e-16
_TINY = 1e-300


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alpha:
    """Stability index in (0, 1), optionally carrying an exact rational form.

    When ``rational_form = (p, n)`` is present it is stored reduced and
    exact; series coefficients then decide ``a*n in N`` by integer
    arithmetic instead of floating point.
    """

    value: float
    rational_form: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.value < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.value}")
        if self.rational_form is not None:
            p, n = self.rational_form
            if p < 1 or n < 2 or math.gcd(p, n) != 1:
                raise DomainError(f"bad rational form {self.rational_form}")
            if p / n != self.value:
                raise DomainError("rational_form does not match value")

    @classmethod
    def from_fraction(cls, p: int, n: int) -> "Alpha":
        g = math.gcd(p, n)
        p, n = p // g, n // g
        return cls(p / n, (p, n))


def as_alpha(a) -> Alpha:
    """Coerce a float or Alpha to Alpha."""
    if isinstance(a, Alpha):
        return a
    return Alpha(float(a))


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation and reliability policy for the series evaluators.

    ``cancellation_guard`` is the maximal tolerated ratio of the largest
    |term| to the |sum|; with ``dps`` set the guard scales up by
    10**(dps-16) since the extra digits absorb the cancellation.
    """

    max_terms: int = 400
    rel_tol: float = 1e-12
    cancellation_guard: float = 1e8
    dps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.cancellation_guard < 1.0:
            raise ValueError("cancellation_guard must be >= 1")
        if self.dps is not None and self.dps < 5:
            raise ValueError("dps must be >= 5")

    def effective_guard(self) -> float:
        if self.dps is None:
            return self.cancellation_guard
        return self.cancellation_guard * 10.0 ** max(0, self.dps - 16)


DEFAULT_SERIES_CONFIG = SeriesConfig()


@dataclass(frozen=True)
class EvalResult:
    """A series value with error estimate and reliability flag.

    ``reliable`` is False whenever the cancellation guard tripped or the
    term budget ran out before the relative tolerance was met.  The
    ``*_grid`` operations return one EvalResult whose fields are arrays.
    """

    value: float
    abs_error_estimate: float
    terms_used: int
    reliable: bool


@dataclass(frozen=True)
class DensityJet:
    """f, f' and f'' at one point (or, from density_jet_grid, at every
    point of the array ``x``), sharing term generation and policy."""

    f: EvalResult
    fp: EvalResult
    fpp: EvalResult
    x: float


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def _sin_pi_alpha_n(alpha: Alpha, n: int) -> float:
    """sin(pi*alpha*n) with exact zeros when alpha*n is an integer."""
    if alpha.rational_form is not None:
        p, den = alpha.rational_form
        r = (p * n) % (2 * den)
        if r % den == 0:
            return 0.0
        return math.sin(math.pi * r / den)
    return sinpi(alpha.value * n)


@lru_cache(maxsize=64)
def _coef_table(alpha: Alpha, n_max: int):
    """log-magnitudes and signs of c_n = (-1)^{n-1} sin(pi a n) G(1+a n)/(pi n!)."""
    logs = [0.0] * (n_max + 1)
    signs = [0] * (n_max + 1)
    a = alpha.value
    for n in range(1, n_max + 1):
        s = _sin_pi_alpha_n(alpha, n)
        if s == 0.0:
            continue
        logs[n] = (math.log(abs(s)) + math.lgamma(1.0 + a * n)
                   - math.lgamma(n + 1.0) - _LN_PI)
        signs[n] = (1 if n % 2 == 1 else -1) * (1 if s > 0.0 else -1)
    return tuple(logs), tuple(signs)


# ---------------------------------------------------------------------------
# series engine
# ---------------------------------------------------------------------------

_BUDGET, _CONVERGED, _BLOWN = 0, 1, 2


def _bars(totals, maxabs, lastnz, n_used: int, status: int,
          cfg: SeriesConfig, ulp):
    """Error bars and reliability flags of one point's finished sums.

    ``ulp`` is the unit roundoff of the loop that summed: _EPS for the
    float loop, 10**-dps for the mpmath loop, which passes its maxima and
    last terms as mpf and calls this under its working precision.
    _hp_sums_grid applies the same rule to whole arrays.
    """
    if status == _BLOWN:
        return [math.inf] * len(totals), [False] * len(totals)
    converged = status == _CONVERGED
    guard = cfg.effective_guard()
    errors = []
    flags = []
    for total, mx, last in zip(totals, maxabs, lastnz):
        noise = float(mx * ulp) * min(n_used, 64)
        mx, last = float(mx), float(last)
        if converged:
            trunc = 3.0 * last + cfg.rel_tol * abs(total)
        else:
            trunc = abs(last) + mx * cfg.rel_tol
        errors.append(trunc + 2.0 * noise)
        flags.append(converged and mx <= guard * (abs(total) + _TINY))
    return errors, flags


def _hp_sums(alpha: Alpha, x: float, cfg: SeriesConfig, order: int,
             survival: bool = False):
    """Shared evaluator for the density series and its theta-derivatives.

    Returns (totals, errors, reliable_flags, terms_used, converged):
    totals[i] is the sum with per-term multiplier 1, -(1+a n), (1+a n)^2
    for i = 0, 1, 2.  With ``survival=True`` (order 0 only) the termwise
    integrated tail ``sum c_n x^{-a n}/(a n)`` is produced instead.
    """
    if x <= 0.0:
        raise DomainError("series evaluation requires x > 0")
    if cfg.dps is not None:
        return _hp_sums_mp(alpha, x, cfg, order, survival)
    logs, signs = _coef_table(alpha, cfg.max_terms)
    a = alpha.value
    lx = math.log(x)
    k = order + 1
    sums = [0.0] * k
    comps = [0.0] * k
    maxabs = [0.0] * k
    lastnz = [0.0] * k
    small_run = 0
    status = _BUDGET
    n_used = 0
    for n in range(1, cfg.max_terms + 1):
        n_used = n
        sgn = signs[n]
        if sgn == 0:
            t0 = 0.0
        else:
            if survival:
                lt = logs[n] - math.log(a * n) - (a * n) * lx
            else:
                lt = logs[n] - (1.0 + a * n) * lx
            if lt > 690.0:
                # terms overflow doubles; the sum is hopeless here
                status = _BLOWN
                break
            t0 = sgn * math.exp(lt)
        if k == 1:
            multipliers = (1.0,)
        else:
            m = 1.0 + a * n
            multipliers = (1.0, -m, m * m)
        for i in range(k):
            t = t0 * multipliers[i]
            sums[i], comps[i] = neumaier_add(sums[i], comps[i], t)
            at = abs(t)
            if at > maxabs[i]:
                maxabs[i] = at
            if at > 0.0:
                lastnz[i] = at
        denom = abs(sums[0] + comps[0]) + _TINY
        if abs(t0) <= cfg.rel_tol * denom:
            small_run += 1
            if small_run >= 3 and n >= 4:
                status = _CONVERGED
                break
        else:
            small_run = 0
    totals = [sums[i] + comps[i] for i in range(k)]
    errors, flags = _bars(totals, maxabs, lastnz, n_used, status, cfg, _EPS)
    return totals, errors, flags, n_used, status == _CONVERGED


def _hp_sums_mp(alpha: Alpha, x: float, cfg: SeriesConfig, order: int,
                survival: bool):
    """mpmath mirror of _hp_sums for the extended precision mode."""
    k = order + 1
    with mp.workdps(cfg.dps):
        if alpha.rational_form is not None:
            a = mp.mpf(alpha.rational_form[0]) / alpha.rational_form[1]
        else:
            a = mp.mpf(alpha.value)
        xm = mp.mpf(x)
        sums = [mp.mpf(0)] * k
        maxabs = [mp.mpf(0)] * k
        lastnz = [mp.mpf(0)] * k
        small_run = 0
        status = _BUDGET
        n_used = 0
        floor = mp.mpf(10) ** -2000
        for n in range(1, cfg.max_terms + 1):
            n_used = n
            if alpha.rational_form is not None:
                p, den = alpha.rational_form
                s = mp.mpf(0) if (p * n) % den == 0 \
                    else mp.sinpi(mp.mpf(p * n) / den)
            else:
                s = mp.sinpi(a * n)
            if s == 0:
                t0 = mp.mpf(0)
            else:
                sign = 1 if n % 2 == 1 else -1
                base = sign * s * mp.gamma(1 + a * n) / (mp.pi * mp.factorial(n))
                if survival:
                    t0 = base * xm ** (-a * n) / (a * n)
                else:
                    t0 = base * xm ** (-(1 + a * n))
            if k == 1:
                multipliers = (mp.mpf(1),)
            else:
                m = 1 + a * n
                multipliers = (mp.mpf(1), -m, m * m)
            for i in range(k):
                t = t0 * multipliers[i]
                sums[i] += t
                at = abs(t)
                if at > maxabs[i]:
                    maxabs[i] = at
                if at > 0:
                    lastnz[i] = at
            if abs(t0) <= cfg.rel_tol * (abs(sums[0]) + floor):
                small_run += 1
                if small_run >= 3 and n >= 4:
                    status = _CONVERGED
                    break
            else:
                small_run = 0
        totals = [float(s) for s in sums]
        errors, flags = _bars(totals, maxabs, lastnz, n_used, status, cfg,
                              mp.mpf(10) ** (-cfg.dps))
    return totals, errors, flags, n_used, status == _CONVERGED


def _hp_sums_grid(alpha: Alpha, xs, cfg: SeriesConfig, order: int,
                  survival: bool = False):
    """Array counterpart of _hp_sums over a one-dimensional x array.

    Runs _hp_sums's loop over n once for all points, with the same
    truncation rule, Neumaier steps, overflow cut, error bars and flags
    per column; a column leaves the working arrays when it converges or
    overflows.  Returns (totals, errors, flags, terms_used, converged)
    with shapes (k, N), (k, N), (k, N), (N,) and (N,) for k = order + 1.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("grid evaluation needs a one-dimensional x array")
    if np.any(xs <= 0.0):
        raise DomainError("series evaluation requires x > 0")
    k = order + 1
    if cfg.dps is not None:
        cols = [_hp_sums_mp(alpha, x, cfg, order, survival)
                for x in xs.tolist()]
        totals, errors, flags = (
            np.array([c[j] for c in cols], dtype=kind).reshape(-1, k).T
            for j, kind in ((0, float), (1, float), (2, bool)))
        return (totals, errors, flags,
                np.array([c[3] for c in cols], dtype=int),
                np.array([c[4] for c in cols], dtype=bool))
    logs, signs = _coef_table(alpha, cfg.max_terms)
    a = alpha.value
    n_pts = xs.size
    out_tot = np.zeros((k, n_pts))
    out_max = np.zeros((k, n_pts))
    out_last = np.zeros((k, n_pts))
    out_n = np.full(n_pts, cfg.max_terms)
    status = np.full(n_pts, _BUDGET)

    # working state of the unfinished columns.  log and exp are taken
    # per element with the math module: numpy's SIMD kernels differ from
    # it in the last bit for about 5 percent of arguments, and where the
    # sum cancels that moves the truncation point.  With math the columns
    # are bit-identical to _hp_sums.
    idx = np.arange(n_pts)
    lx = np.fromiter(map(math.log, xs.tolist()), float, n_pts)
    sums = np.zeros((k, n_pts))
    comps = np.zeros((k, n_pts))
    maxabs = np.zeros((k, n_pts))
    lastnz = np.zeros((k, n_pts))
    small_run = np.zeros(n_pts, dtype=int)

    def finish(done, n, why):
        nonlocal idx, lx, sums, comps, maxabs, lastnz, small_run
        cols = idx[done]
        out_tot[:, cols] = (sums + comps)[:, done]
        out_max[:, cols] = maxabs[:, done]
        out_last[:, cols] = lastnz[:, done]
        out_n[cols] = n
        status[cols] = why
        keep = ~done
        idx, lx, small_run = idx[keep], lx[keep], small_run[keep]
        sums, comps = sums[:, keep], comps[:, keep]
        maxabs, lastnz = maxabs[:, keep], lastnz[:, keep]
        return keep

    # The float loop lets sums overflow to inf and nan without a word
    # (only terms past e^690 are cut); the columns follow it.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, cfg.max_terms + 1):
            if idx.size == 0:
                break
            sgn = signs[n]
            if sgn == 0:
                # a zero term leaves sums, maxima and last terms alone
                abs_t0 = 0.0
            else:
                if survival:
                    lt = logs[n] - math.log(a * n) - (a * n) * lx
                else:
                    lt = logs[n] - (1.0 + a * n) * lx
                blown = lt > 690.0
                if blown.any():
                    lt = lt[finish(blown, n, _BLOWN)]
                    if idx.size == 0:
                        break
                t0 = sgn * np.fromiter(map(math.exp, lt.tolist()), float,
                                       lt.size)
                if k == 1:
                    ts = t0[None, :]
                else:
                    m = 1.0 + a * n
                    ts = t0 * np.array([[1.0], [-m], [m * m]])
                new = sums + ts
                comps += np.where(np.abs(sums) >= np.abs(ts),
                                  (sums - new) + ts, (ts - new) + sums)
                sums = new
                at = np.abs(ts)
                maxabs = np.where(at > maxabs, at, maxabs)
                lastnz = np.where(at > 0.0, at, lastnz)
                abs_t0 = at[0]
            denom = np.abs(sums[0] + comps[0]) + _TINY
            small = abs_t0 <= cfg.rel_tol * denom
            small_run = np.where(small, small_run + 1, 0)
            if n >= 4:
                done = small & (small_run >= 3)
                if done.any():
                    finish(done, n, _CONVERGED)
        if idx.size:
            finish(np.ones(idx.size, dtype=bool), cfg.max_terms, _BUDGET)

        converged = status == _CONVERGED
        noise = out_max * _EPS * np.minimum(out_n, 64)
        trunc = np.where(converged,
                         3.0 * out_last + cfg.rel_tol * np.abs(out_tot),
                         np.abs(out_last) + out_max * cfg.rel_tol)
        errors = np.where(status == _BLOWN, math.inf, trunc + 2.0 * noise)
        flags = converged & (out_max <= cfg.effective_guard()
                             * (np.abs(out_tot) + _TINY))
    return out_tot, errors, flags, out_n, converged


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _series_result(sums) -> EvalResult:
    totals, errors, flags, n_used, _ = sums
    return EvalResult(totals[0], errors[0], n_used, flags[0])


def _jet_result(sums, x) -> DensityJet:
    totals, errors, flags, n_used, _ = sums
    ok = flags[0] & flags[1] & flags[2]
    f = EvalResult(totals[0], errors[0], n_used, ok)
    fp = EvalResult(totals[1] / x, errors[1] / x, n_used, ok)
    fpp = EvalResult((totals[2] - totals[1]) / (x * x),
                     (errors[2] + errors[1]) / (x * x), n_used, ok)
    return DensityJet(f=f, fp=fp, fpp=fpp, x=x)


def density_series(alpha, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """f_alpha(x) from the series; nonnegative whenever reliable."""
    return _series_result(_hp_sums(as_alpha(alpha), x, cfg, order=0))


def density_jet(alpha, x: float,
                cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> DensityJet:
    """f, f', f'' at x with shared term generation.

    The series produce f, x f' and x^2 f'' + x f' directly; the
    derivatives are recovered by dividing out the powers of x.  All
    three results carry one shared reliability verdict.
    """
    sums = _hp_sums(as_alpha(alpha), x, cfg, order=2)
    if x * x != 0.0:
        return _jet_result(sums, x)
    # x^2 underflows to 0: divide by it with IEEE inf and nan, as
    # density_jet_grid does
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        jet = _jet_result(sums, np.float64(x))
    return DensityJet(*(EvalResult(float(r.value), float(r.abs_error_estimate),
                                   r.terms_used, r.reliable)
                        for r in (jet.f, jet.fp, jet.fpp)), x=x)


def survival_series(alpha, x: float,
                    cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """P[Z > x] from termwise integration of the density series.

    Near zero the value saturates at 1, so the guard there effectively
    measures absolute (not relative) trustworthiness, which is what the
    consumers (CDF and Laplace assembly) need.
    """
    return _series_result(_hp_sums(as_alpha(alpha), x, cfg, order=0,
                                   survival=True))


def density_series_grid(
        alpha, xs, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """density_series at every point of the 1-d array ``xs``; each field
    of the result is an array over the grid."""
    return _series_result(_hp_sums_grid(as_alpha(alpha), xs, cfg, order=0))


def density_jet_grid(alpha, xs,
                     cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> DensityJet:
    """density_jet at every point of the 1-d array ``xs``; every field of
    the jet and of its EvalResults is an array over the grid."""
    xs = np.asarray(xs, dtype=float)
    sums = _hp_sums_grid(as_alpha(alpha), xs, cfg, order=2)
    # a cancelled sum over a tiny x^2 may overflow, and x^2 may underflow
    # to 0; those points get IEEE inf and nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _jet_result(sums, xs)


def survival_series_grid(
        alpha, xs, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """survival_series at every point of the 1-d array ``xs``; each field
    of the result is an array over the grid."""
    return _series_result(_hp_sums_grid(as_alpha(alpha), xs, cfg, order=0,
                                        survival=True))


def tail_coefficient(alpha) -> float:
    """lim_{x->inf} f_alpha(x) x^{1+alpha} = alpha / Gamma(1-alpha)."""
    alpha = as_alpha(alpha)
    return alpha.value * math.exp(-specfun.log_gamma(1.0 - alpha.value).value)


_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def _closed_half(x: float) -> float:
    return math.exp(-0.25 / x) / (_TWO_SQRT_PI * x ** 1.5)


def _two_thirds_shape(x: float) -> float:
    # Whittaker form of f_{2/3} (Zolotarev, One-dimensional Stable
    # Distributions, 1986): sqrt(3/pi)/x exp(-2/(27x^2)) W_{1/2,1/6}(4/(27x^2))
    z = 4.0 / (27.0 * x * x)
    w = specfun.whittaker_w_stable(z, rel_tol=1e-12)
    return (math.sqrt(3.0 / math.pi) / x) * math.exp(-2.0 / (27.0 * x * x)) * w.value


def density_closed(alpha, x: float) -> EvalResult:
    """Closed forms for alpha in {1/3, 1/2, 2/3}.

    * 1/2: elementary.
    * 1/3: Macdonald function of order 1/3.
    * 2/3: Whittaker kernel.
    """
    alpha = as_alpha(alpha)
    if x <= 0.0:
        raise DomainError("density_closed requires x > 0")
    a = alpha.value
    if a == 0.5:
        v = _closed_half(x)
        return EvalResult(v, 4.0 * _EPS * v, 1, True)
    if a == 1.0 / 3.0:
        arg = (2.0 / (3.0 * math.sqrt(3.0))) / math.sqrt(x)
        k = specfun.bessel_k(1.0 / 3.0, arg, rel_tol=1e-12)
        scale = 1.0 / (3.0 * math.pi * x ** 1.5)
        return EvalResult(scale * k.value, scale * k.abs_error_estimate, 1, True)
    if a == 2.0 / 3.0:
        v = _two_thirds_shape(x)
        return EvalResult(v, 1e-9 * abs(v), 1, True)
    raise UnsupportedAlphaError(
        f"no closed form for alpha = {a}; supported: 1/3, 1/2, 2/3")


# ---------------------------------------------------------------------------
# reliable-domain detection and the Laplace transform oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def reliable_x_min(alpha: Alpha, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG,
                   survival: bool = False) -> float:
    """Smallest x (within ~5 percent) at which the series evaluation is
    flagged reliable, found by bisecting the guard flag."""
    def ok(x: float) -> bool:
        if survival:
            return survival_series(alpha, x, cfg).reliable
        return density_jet(alpha, x, cfg).f.reliable

    hi = 1.0
    tries = 0
    while not ok(hi):
        hi *= 2.0
        tries += 1
        if tries > 40:
            raise DomainError("no reliable region found")
    lo = hi
    while lo > 1e-12 and ok(lo * 0.5):
        lo *= 0.5
    if lo <= 1e-12:
        return 1e-12
    bad, good = lo * 0.5, lo
    for _ in range(25):
        mid = math.sqrt(bad * good)
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


@lru_cache(maxsize=1)
def _leggauss_64():
    nodes, weights = np.polynomial.legendre.leggauss(64)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def _quad_log_pieces(f, a: float, b: float, epsabs: float) -> float:
    """Adaptive quadrature of f over [a, b], split at decades so that
    heavy-tailed integrands over wide ranges stay resolved."""
    total = 0.0
    lo = a
    while lo < b:
        hi = min(b, lo * 10.0)
        if hi <= lo:
            hi = b
        val, _ = integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=1e-11,
                                limit=200)
        total += val
        lo = hi
    return total


def laplace_check(alpha, lam: float,
                  cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> float:
    """|int_0^inf e^{-lam t} f_a(t) dt - exp(-lam**a)|.

    Assembled from adaptive quadrature of the series over its reliable
    domain plus integrated-tail corrections on both sides: below the
    reliable region the survival sum (which only needs absolute accuracy
    there) pins the missing mass via integration by parts, and beyond
    the upper cutoff the integrated tail series closes the transform.
    """
    alpha = as_alpha(alpha)
    if lam < 0.0:
        raise DomainError("laplace_check requires lambda >= 0")
    a = alpha.value
    x_m = reliable_x_min(alpha, cfg)
    x_s = min(reliable_x_min(alpha, cfg, survival=True), x_m)

    def f(t: float) -> float:
        return density_series(alpha, t, cfg).value

    def surv(t: float) -> float:
        return survival_series(alpha, t, cfg).value

    if lam == 0.0:
        x_hi = max(10.0, 4.0 * x_m)
        while surv(x_hi) > 1e-3 and x_hi < 1e15:
            x_hi *= 10.0
        mass_left = 1.0 - surv(x_m)
        mid = _quad_log_pieces(f, x_m, x_hi, epsabs=1e-11)
        return abs(mass_left + mid + surv(x_hi) - 1.0)

    x_hi = max(50.0 / lam, 4.0 * x_m, 10.0)
    # int_0^{x_m} e^{-lam t} f dt by parts: e^{-lam x_m} F(x_m)
    #   + lam * int_0^{x_m} e^{-lam t} F(t) dt  with F = 1 - S
    inner = 0.0
    if x_s < x_m:
        # fixed Gauss-Legendre: the integrand is smooth but carries
        # series noise at the 1e-7 absolute level, which trips adaptive
        # subdivision without improving the answer
        nodes, weights = _leggauss_64()
        half = 0.5 * (x_m - x_s)
        mid_pt = 0.5 * (x_m + x_s)
        ts = mid_pt + half * np.array(nodes)
        s_nodes = survival_series_grid(alpha, ts, cfg).value
        inner += half * sum(
            w * math.exp(-lam * t) * (1.0 - s)
            for t, w, s in zip(ts.tolist(), weights, s_nodes.tolist()))
    # below x_s: F rises from 0 to F(x_s); trapezoid estimate, the
    # dropped curvature is bounded by lam * x_s * F(x_s)
    inner += 0.5 * x_s * math.exp(-lam * x_s) * (1.0 - surv(x_s))
    left = math.exp(-lam * x_m) * (1.0 - surv(x_m)) + lam * inner
    mid = _quad_log_pieces(lambda t: math.exp(-lam * t) * f(t), x_m, x_hi,
                           epsabs=1e-12)
    tail = math.exp(-lam * x_hi) * surv(x_hi)
    return abs(left + mid + tail - math.exp(-lam ** a))
