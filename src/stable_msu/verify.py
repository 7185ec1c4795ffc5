"""Statistical and quadrature verification harness.

Kolmogorov-Smirnov fixtures at the asymptotic 1 percent level
(coefficient 1.628), empirical-versus-analytic CDF machinery, the
distributional identity checks, and the acceptance-suite runner that
executes a JSON config of named checks and emits a deterministic JSON
summary.  Each check kind is declared once, in ``_KINDS``: its check,
its keys' rules and defaults, its case lists and how their cases are
keyed; ``CHECK_PARAMS`` and ``CHECK_KINDS`` are read from it.

One pruned KS core serves both statistics.  It bounds the gap of each
piece of 64 sorted values by the exact gaps at its ends, as CDFs do not
decrease, and takes the gap at every point only in the pieces that can
hold the maximum; the statistic is that of the full per-point pass, bit
for bit.  The two-sample statistic is the core's over one sample
against the other's empirical CDF, read as a right limit after each
sorted value and a left limit before it: those gaps are values of
|F_a - F_b| at merged values and reach its maximum, so no merge is
needed.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import density as dens
from . import factorizations as fact
from . import msu as msu_mod
from .density import Alpha, SeriesConfig, as_alpha
from .errors import DomainError, PreconditionError

KS_COEFF_1PCT = 1.628  # asymptotic 1 percent critical coefficient


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KsResult:
    """Kolmogorov-Smirnov outcome at the asymptotic 1 percent level.

    ``critical_1pct`` is 1.628/sqrt(n) for one sample and
    1.628*sqrt((n+m)/(n m)) for two samples (``m_samples`` set).
    """

    statistic: float
    n_samples: int
    critical_1pct: float
    passed: bool
    m_samples: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"statistic": self.statistic, "n_samples": self.n_samples,
               "critical_1pct": self.critical_1pct, "pass": self.passed}
        if self.m_samples is not None:
            out["m_samples"] = self.m_samples
        return out


@dataclass(frozen=True)
class IdentityReport:
    """One named check: pass iff discrepancy < threshold."""

    name: str
    discrepancy: float
    threshold: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "discrepancy": self.discrepancy,
                "threshold": self.threshold, "pass": self.passed,
                "details": self.details}


# ---------------------------------------------------------------------------
# KS statistics
# ---------------------------------------------------------------------------

def _reject_nan(sorted_sample: np.ndarray, what: str) -> None:
    # a sort puts NaNs last; +-inf are allowed (the sampler overflows)
    if np.isnan(sorted_sample[-1]):
        raise DomainError(f"{what} requires samples that are not NaN")


# The KS core cuts the sorted sample every _PIECE values, _CUTS cuts at
# a time, after a first pass over up to _CUTS points spread over it (see
# _cdf_gap); its working set does not grow with n.
_PIECE = 64
_CUTS = fact._BLOCK // 16
# what a bound allows for a CDF whose value at a point moves by a few
# ulps from one evaluation to the next (StableCdf, ualpha_cdf)
_CDF_SLACK = 1e-12


def _spread(n: int) -> np.ndarray:
    """At most _CUTS positions spread evenly over a sample of n."""
    return np.arange(0, n, max(_PIECE, -(-n // _CUTS)))


def _step_gap(idx: np.ndarray, f: np.ndarray, f_left: np.ndarray,
              n: int) -> float:
    """The largest of (k+1)/n - f and f_left - k/n over the sorted
    positions k in ``idx``, whose CDF has the right limits ``f`` and the
    left limits ``f_left`` there: the empirical CDF of n points is
    (k+1)/n just after the k-th and k/n just before it."""
    steps = idx + 1.0
    steps /= n
    after = float(np.max(np.subtract(steps, f, out=steps)))
    np.divide(idx, n, out=steps)
    return max(after, float(np.max(np.subtract(f_left, steps, out=steps))))


def _cdf_gap(s: np.ndarray, limits) -> float:
    """max over k of (k+1)/n - F(s_k) and F(s_k-) - k/n, for the sorted
    flat sample ``s`` of n values and the pair of arrays of right and
    left limits of F that ``limits`` maps points to (it is handed them
    in ascending order).

    Against a continuous CDF this is the one-sample statistic.  Against
    the empirical CDF F_b of a second sample, whose limits are the
    counts of it at or below and below each point over its size, it is
    the two-sample statistic max |F_s - F_b| over the merged values,
    bit for bit.  Each value of F_s - F_b there is at most the after gap
    at the last copy of the largest value of s at or below it, or at
    most 0 where there is none; each value of F_b - F_s is at most the
    before gap at the first copy of the smallest value of s above it,
    or at most 0 where there is none.  Each such gap is itself a value
    of |F_s - F_b| at a merged value (or 0), formed by the same
    divisions of exact counts and the same subtraction as a merge forms
    it; the gaps at other copies are no larger, and as rounding is
    monotone the bounds hold in floats.

    F is taken at the first point of each piece of _PIECE points, and at
    the last point.  As F does not decrease, no point of the piece from
    lo to hi (exclusive) has a gap above max(hi/n - F(first), F(next
    piece's first-) - lo/n).  The pieces whose bound, plus _CDF_SLACK,
    exceeds the largest gap so far (less the slack where it was taken
    from the cuts) are evaluated point by point, in batches of at most
    ``_HALF`` points; the others cannot hold the maximum, which is
    therefore that of the full per-point pass bit for bit.  Raises
    DomainError where F decreases by more than the slack from one cut
    to the next.
    """
    n = s.size
    probe = _spread(n)
    floor = _step_gap(probe, *limits(s[probe]), n) - _CDF_SLACK
    offsets = np.arange(_PIECE)
    batch = fact._HALF // _PIECE
    worst = -math.inf
    for lo in range(0, n, _CUTS * _PIECE):
        hi = min(lo + _CUTS * _PIECE, n)
        first = np.arange(lo, hi, _PIECE)
        f, f_left = limits(np.append(s[first], s[min(hi, n - 1)]))
        if not np.all(f[1:] >= f[:-1] - _CDF_SLACK):
            raise DomainError("ks_one_sample requires a non-decreasing cdf")
        floor = max(floor, _step_gap(first, f[:-1], f_left[:-1], n)
                    - _CDF_SLACK)
        bound = np.maximum(np.minimum(first + _PIECE, n) / n - f[:-1],
                           f_left[1:] - first / n)
        bound += _CDF_SLACK
        live = first[bound > floor]
        for k in range(0, live.size, batch):
            # the last piece may be short: its index runs end in copies
            # of the last point, which repeat one gap
            idx = np.add.outer(live[k:k + batch], offsets).ravel()
            np.minimum(idx, n - 1, out=idx)
            worst = max(worst, _step_gap(idx, *limits(s[idx]), n))
        floor = max(floor, worst)
    return worst


def _ks_one(s: np.ndarray, cdf) -> KsResult:
    """One-sample KS of the flat float64 sample ``s`` against ``cdf``;
    sorts ``s`` in place.

    ``cdf`` must not decrease.  It is evaluated at every _PIECE-th
    sorted point and then only on the pieces that can hold the largest
    gap (see ``_cdf_gap``), so the statistic is that of evaluating it at
    every point, and the rest of the working set is block-sized.
    """
    n = s.size
    if n == 0:
        raise PreconditionError("ks_one_sample requires samples")
    s.sort()
    _reject_nan(s, "ks_one_sample")

    def limits(x):  # a CDF's right and left limits, one array
        f = np.clip(np.asarray(cdf(x), dtype=float), 0.0, 1.0)
        return f, f
    stat = _cdf_gap(s, limits)
    crit = KS_COEFF_1PCT / math.sqrt(n)
    return KsResult(stat, n, crit, stat < crit)


def _ks_two(a: np.ndarray, b: np.ndarray) -> KsResult:
    """Two-sample KS between the flat float64 samples ``a`` and ``b``;
    sorts each in place.

    The statistic is ``_cdf_gap``'s over ``a`` against the empirical CDF
    of ``b``, whose right and left limits at a point are the counts of
    b at or below it and below it, over m.  The after gaps at the last
    copies of a's values and the before gaps at their first copies
    reach max |F_a - F_b| over the merged values, and are such values,
    bit for bit (see ``_cdf_gap``); nothing is merged.  b is searched
    only at the cuts of a and in the pieces that can hold the largest
    gap, each time over the slice of b between the first and last points
    searched, so besides the samples the working set is block-sized.
    """
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise PreconditionError("ks_two_sample requires samples")
    a.sort()
    b.sort()
    _reject_nan(a, "ks_two_sample")
    _reject_nan(b, "ks_two_sample")

    def limits(x):
        # x comes sorted, so b's values below x[0] count in both limits
        # and those above x[-1] in neither: search the slice between
        lo = int(np.searchsorted(b, x[0], side="left"))
        part = b[lo:int(np.searchsorted(b, x[-1], side="right"))]
        return ((np.searchsorted(part, x, side="right") + lo) / m,
                (np.searchsorted(part, x, side="left") + lo) / m)
    stat = _cdf_gap(a, limits)
    crit = KS_COEFF_1PCT * math.sqrt((n + m) / (n * m))
    return KsResult(stat, n, crit, stat < crit, m_samples=m)


def ks_one_sample(samples, cdf) -> KsResult:
    """Sup-norm distance between the empirical CDF and ``cdf``; samples
    of any shape count as one flat sample, and a NaN sample raises
    :class:`DomainError`.

    ``cdf`` maps an array of points to their CDF values and must be
    non-decreasing: the statistic is exact only for such a function
    (values may wobble by up to 1e-12), and a decrease seen between two
    of the points where it is first evaluated raises DomainError."""
    return _ks_one(np.asarray(samples, dtype=float).flatten(), cdf)


def ks_two_sample(a, b) -> KsResult:
    """Sup-norm distance between two empirical CDFs; samples of any
    shape count as flat samples, and a NaN sample raises
    :class:`DomainError`."""
    return _ks_two(np.asarray(a, dtype=float).flatten(),
                   np.asarray(b, dtype=float).flatten())


# ---------------------------------------------------------------------------
# CDF construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableCdf:
    """Monotone piecewise-linear (in log x) CDF of Z_alpha.

    Cumulative quadrature of the density over the reliable domain,
    anchored on the right by the termwise-integrated tail series; below
    the grid the CDF falls linearly to (0, 0), above it the survival
    series is evaluated on the points there.  A NaN point raises
    DomainError.
    """

    alpha: Alpha
    log_xs: np.ndarray
    values: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.isnan(x).any():
            raise DomainError("StableCdf requires points that are not NaN")
        out = np.interp(np.log(np.clip(x, math.exp(self.log_xs[0]), None)),
                        self.log_xs, self.values)
        x_lo = math.exp(self.log_xs[0])
        small = x < x_lo
        if np.any(small):
            out[small] = self.values[0] * np.clip(x[small], 0.0, x_lo) / x_lo
        x_hi = math.exp(self.log_xs[-1])
        big = x > x_hi
        if np.any(big):
            out[big] = 1.0 - dens.survival_series_grid(self.alpha,
                                                       x[big]).value
        return float(out[0]) if scalar else np.clip(out, 0.0, 1.0)


# points of build_cdf's main log grid; its left segment has a tenth
_CDF_POINTS = 6000


def build_cdf(alpha) -> StableCdf:
    """CDF of Z_alpha by cumulative trapezoid quadrature on a log grid."""
    alpha = as_alpha(alpha)
    x_lo = dens.reliable_x_min(alpha, survival=True)
    x_switch = max(dens.reliable_x_min(alpha), x_lo)
    x_hi = max(10.0, 10.0 * x_switch)
    # the tail at the last x_hi tried, which anchors the main segment
    while (tail := dens.survival_series(alpha, x_hi).value) > 5e-6 \
            and x_hi < 1e18:
        x_hi *= 10.0

    left = np.geomspace(x_lo, x_switch, _CDF_POINTS // 10) \
        if x_switch > x_lo * 1.0001 else np.array([x_lo])
    main = np.geomspace(x_switch, x_hi, _CDF_POINTS)
    # left segment: integrated series directly (density jets are not
    # relatively reliable there, the survival sum is)
    f_left = 1.0 - dens.survival_series_grid(alpha, left[:-1]).value
    # main segment: cumulative trapezoid of the density in log x,
    # anchored at the right end by the integrated tail
    fs = dens.density_series_grid(alpha, main).value
    y = fs * main  # d(log x) measure
    logs = np.log(main)
    cum = np.concatenate(
        ([0.0], np.cumsum(np.diff(logs) * (y[1:] + y[:-1]) / 2.0)))
    f_main = (1.0 - tail) - (cum[-1] - cum)
    xs = np.concatenate([left[:-1], main])
    vals = np.concatenate([f_left, f_main])
    vals = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
    return StableCdf(alpha, np.log(xs), vals)


def ualpha_cdf(alpha):
    """CDF of the log-difference density u_a, in closed form:
    F(x) = 1/2 + arctan(tan(pi a/2) tanh(a x/2)) / (pi a).

    The returned function maps x (scalar or array) to an array, and
    raises DomainError at a NaN point."""
    a = as_alpha(alpha).value
    slope = math.tan(0.5 * math.pi * a)
    scale = 1.0 / (math.pi * a)

    def cdf(x):
        t = np.tanh(0.5 * a * np.atleast_1d(np.asarray(x, dtype=float)))
        if np.isnan(t).any():
            raise DomainError("ualpha_cdf requires points that are not NaN")
        return np.clip(0.5 + scale * np.arctan(slope * t), 0.0, 1.0)

    return cdf


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def _ks_report(name: str, ks: KsResult, seed: int) -> IdentityReport:
    return IdentityReport(name, ks.statistic, ks.critical_1pct, ks.passed,
                          {"ks": ks.to_dict(), "seed": seed})


# the fewest draws check_diff_identity takes
_DIFF_MIN_SAMPLES = 10_000


def check_diff_identity(alpha, n_samples: int, seed: int) -> IdentityReport:
    """KS of log Z - log Z~ (independent copies) against the
    log-difference density, at the asymptotic 1 percent level."""
    alpha = as_alpha(alpha)
    if n_samples < _DIFF_MIN_SAMPLES:
        raise PreconditionError("need at least 1e4 samples")
    rng = np.random.default_rng(seed)
    # the logs are subtracted as drawn: at small alpha, Z overflows
    diff = fact._log_stable(alpha.value, rng, n_samples)
    diff -= fact._log_stable(alpha.value, rng, n_samples)
    ks = _ks_one(diff, ualpha_cdf(alpha))
    return _ks_report(f"diff-identity-alpha-{alpha.value:g}", ks, seed)


def check_factorization_mc(p: int, n: int, n_samples: int,
                           seed: int) -> IdentityReport:
    """Two-sample KS between Z_{p/n}^{-p} (exact sampler) and the
    Beta x Gamma product representation."""
    fl = fact.lemma2_product(p, n)  # validates n > 2p
    alpha = Alpha.from_fraction(p, n)
    rng = np.random.default_rng(seed)
    z = fact.sample_stable(alpha, rng, n_samples)
    np.power(z, -float(p), out=z)
    ks = _ks_two(z, fl.sample(rng, n_samples))
    return _ks_report(f"factorization-mc-{p}-{n}", ks, seed)


def check_sampler_ks(alpha, n_samples: int, seed: int) -> IdentityReport:
    """One-sample KS of exact-sampler draws against the quadrature CDF."""
    alpha = as_alpha(alpha)
    rng = np.random.default_rng(seed)
    z = fact.sample_stable(alpha, rng, n_samples)
    ks = _ks_one(z, build_cdf(alpha))
    return _ks_report(f"sampler-ks-alpha-{alpha.value:g}", ks, seed)


# ---------------------------------------------------------------------------
# acceptance checks (one function per criterion kind)
# ---------------------------------------------------------------------------

def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a number, not a bool, that converts to a
    finite double (a JSON integer may be too large for one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _alpha_number(spec) -> Alpha:
    """An alpha given as a number."""
    if not _is_real(spec):
        raise DomainError(f"alpha must be a finite number, got {spec!r}")
    return as_alpha(float(spec))


def _parse_alpha(spec) -> Alpha:
    """An alpha given as a number or as a fraction [p, n] of two
    integers with n > 0."""
    if not isinstance(spec, (list, tuple)):
        return _alpha_number(spec)
    if not (len(spec) == 2 and all(map(_is_integer, spec)) and spec[1] > 0):
        raise DomainError("an alpha fraction must be two integers [p, n] "
                          f"with n > 0, got {spec!r}")
    return Alpha.from_fraction(int(spec[0]), int(spec[1]))


def _rel_diff(value: float, reference: float) -> float:
    """|value - reference| / |reference|; 0/0 is 0, x/0 and NaN inf."""
    if reference == 0.0:
        return 0.0 if value == 0.0 else math.inf
    diff = abs(value - reference) / abs(reference)
    return math.inf if math.isnan(diff) else diff  # max() skips a NaN


def _unreliable(params: dict, x: float) -> ValueError:
    """The error of a check that would compare a series value that the
    series flags unreliable at ``x``: skipping the point could leave
    nothing compared."""
    return ValueError(f"check {params['name']!r}: the series is flagged "
                      f"unreliable at x = {x!r}")


def _check_closed_form(params: dict) -> IdentityReport:
    alpha = _parse_alpha(params["alpha"])
    tol = float(params["threshold"])
    n_pts = int(params["points"])
    cfg = SeriesConfig(rel_tol=1e-14)
    xs = np.geomspace(float(params["x_lo"]), float(params["x_hi"]), n_pts)
    series = dens.density_series_grid(alpha, xs, cfg)
    if not np.all(series.reliable):
        raise _unreliable(params, float(xs[np.argmin(series.reliable)]))
    worst = 0.0
    for x, s in zip(xs.tolist(), series.value.tolist()):
        worst = max(worst, _rel_diff(s, dens.density_closed(alpha, x).value))
    return IdentityReport(
        name=params["name"], discrepancy=worst, threshold=tol,
        passed=worst < tol,
        details={"alpha": alpha.value, "points": n_pts})


def _check_laplace(params: dict) -> IdentityReport:
    alpha = _parse_alpha(params["alpha"])
    tol = float(params["threshold"])
    per = {str(float(lam)): dens.laplace_check(alpha, float(lam))
           for lam in params["lambdas"]}
    worst = max(per.values())
    return IdentityReport(params["name"], worst, tol, worst < tol,
                          details={"per_lambda": per})


def _dichotomy_cases(params: dict) -> list:
    """(details key, alpha, expected classification) of each scan."""
    return [(f"{a:g}", a, expected)
            for key, expected in (("alphas_violation", msu_mod.VIOLATION),
                                  ("alphas_msu", msu_mod.NO_VIOLATION))
            for a in params[key]]


def _check_msu_dichotomy(params: dict) -> IdentityReport:
    misclassified = []
    details = {}
    for case, a, expected in _dichotomy_cases(params):
        rep = msu_mod.msu_scan(float(a), float(params["x_lo"]),
                               float(params["x_hi"]), int(params["points"]))
        details[case] = rep.summary()
        if rep.classification != expected:
            misclassified.append(a)
    return IdentityReport(
        params["name"], float(len(misclassified)), 0.5,
        not misclassified, details={"misclassified": misclassified,
                                    "scans": details})


def _alpha_sweep(step: float):
    """(a, a rounded to 10 places) for a = step, 2 step, ... below
    1 - step/2, each a the sum of the one before and step."""
    a = step
    while a < 1.0 - step / 2:
        yield a, round(a, 10)
        a += step


def _check_tail_sign(params: dict) -> IdentityReport:
    step = float(params["alpha_step"])
    bad = []
    for a, rounded in _alpha_sweep(step):
        if abs(a - 0.5) > step / 4:
            _, compatible = msu_mod.tail_residual_sign(rounded)
            if compatible != (a < 0.5):
                bad.append(a)
    return IdentityReport(params["name"], float(len(bad)), 0.5, not bad,
                          details={"mismatches": bad})


def _check_half_residual(params: dict) -> IdentityReport:
    xs = params["xs"]
    tol = float(params["threshold"])
    worst = 0.0
    for x in xs:
        r = msu_mod.lce_residual(0.5, float(x))
        if not r.reliable:
            raise _unreliable(params, float(x))
        f = dens.density_closed(0.5, float(x)).value
        exact = -f * f / (4.0 * float(x))
        worst = max(worst, _rel_diff(r.value, exact))
    return IdentityReport(params["name"], worst, tol, worst < tol,
                          details={"xs": list(xs)})


def _mellin_cases(params: dict) -> list:
    """(details key, p, n) of each pair."""
    return [(f"{p}/{n}", int(p), int(n)) for p, n in params["pairs"]]


def _mellin_gap(profile: fact.MellinProfile, p: int, n: int,
                s: float) -> float:
    """|M(s) / (Gamma(ns+1)/Gamma(ps+1)) - 1| for the Mellin transform
    ``profile`` of lemma2_product(p, n); raises DomainError where M(s)
    overflows a double, and OverflowError where the ratio of gammas does."""
    return abs(profile(s) / math.exp(math.lgamma(n * s + 1.0)
                                     - math.lgamma(p * s + 1.0)) - 1.0)


def _check_lemma2_mellin(params: dict) -> IdentityReport:
    tol = float(params["threshold"])
    details = {}
    for case, p, n in _mellin_cases(params):
        profile = fact.mellin_product(fact.lemma2_product(p, n))
        details[case] = max(_mellin_gap(profile, p, n, float(s))
                            for s in params["s_values"])
    worst = max(details.values())
    return IdentityReport(params["name"], worst, tol, worst < tol,
                          details=details)


# Monte Carlo cases in flight at once; the cap bounds memory, as each
# case holds about two arrays of its sample size
_MC_WORKERS = 2


def _run_cases(cases: list) -> list:
    """The results of the (details key, cost, job) ``cases``, in order:
    each zero-argument ``job`` runs on one of up to ``_MC_WORKERS``
    threads, the costliest first, so that no long case starts last.

    Each Monte Carlo case seeds its own Generator, so its result does not
    depend on the scheduling; numpy's samplers, sorts and ufuncs release
    the GIL, so two cases run side by side.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(_MC_WORKERS, len(cases), cpus)
    if workers < 2:
        return [job() for _, _, job in cases]
    from concurrent.futures import ThreadPoolExecutor
    costliest_first = sorted(range(len(cases)), key=lambda i: -cases[i][1])
    pool = ThreadPoolExecutor(workers)
    try:
        futures = {i: pool.submit(cases[i][2]) for i in costliest_first}
        return [futures[i].result() for i in range(len(cases))]
    finally:
        pool.shutdown(cancel_futures=True)


# The cases of the Monte Carlo kinds, as (details key, cost, job); the
# cost counts the arrays of draws a case makes: a two-sample case (p, n)
# draws Z and the n - 1 factors of lemma2_product(p, n).

def _fidelity_cases(params: dict) -> list:
    n_samples = int(params["n_samples"])
    seed = int(params["seed"])
    cases = [(f"one-sample-{a:g}", 1,
              functools.partial(check_sampler_ks, float(a), n_samples, seed))
             for a in params["alphas"]]
    cases += [(f"two-sample-{p}-{n}",
               int(n),
               functools.partial(check_factorization_mc, int(p), int(n),
                                 n_samples, seed + p * 31 + n))
              for p, n in params["pairs"]]
    return cases


def _diff_cases(params: dict) -> list:
    n_samples = int(params["n_samples"])
    seed = int(params["seed"])
    return [(f"{a:g}", 2,
             functools.partial(check_diff_identity, float(a), n_samples, seed))
            for a in params["alphas"]]


def _mc_report(name: str, cases: list) -> IdentityReport:
    """Run the cases of a Monte Carlo check and report the worst ratio
    of KS statistic to critical value; pass iff every case passes."""
    reports = _run_cases(cases)
    worst = max((r.discrepancy / r.threshold for r in reports),
                default=-math.inf)
    return IdentityReport(
        name, worst, 1.0, all(r.passed for r in reports),
        details={case[0]: r.to_dict() for case, r in zip(cases, reports)})


def _check_sampler_fidelity(params: dict) -> IdentityReport:
    return _mc_report(params["name"], _fidelity_cases(params))


def _check_diff_identity(params: dict) -> IdentityReport:
    return _mc_report(params["name"], _diff_cases(params))


def _check_ualpha_dichotomy(params: dict) -> IdentityReport:
    step = float(params["alpha_step"])
    x_max = float(params["x_max"])
    xs = np.linspace(-x_max, x_max, 2001)
    bad = []
    for _, a in _alpha_sweep(step):
        margin = float(np.min(msu_mod.ualpha_logconcavity_margin(a, xs)))
        if (margin >= 0.0) != (a <= 0.5):
            bad.append(a)
    return IdentityReport(params["name"], float(len(bad)), 0.5, not bad,
                          details={"mismatches": bad})


def _check_whitt(params: dict) -> IdentityReport:
    safe = np.geomspace(1.0 / 6.0, float(params["x_hi"]),
                        int(params["safe_points"]))
    min_safe = min(fact.whitt_margin(float(x)) for x in safe)
    x_star = None
    margin_star = None
    for x in np.geomspace(1e-3, 1.0 / 6.0, int(params["scan_points"])):
        m = fact.whitt_margin(float(x))
        if m < -1e-6:
            x_star, margin_star = float(x), m
            break
    ok = (min_safe >= 0.0) and (x_star is not None)
    return IdentityReport(
        params["name"], max(0.0, -min_safe), 1e-12, ok,
        details={"min_margin_safe_region": min_safe,
                 "witness_x": x_star, "witness_margin": margin_star})


def _lemma1_cases(params: dict) -> list:
    """(details key, a, b, c) of each triple."""
    return [(f"({a},{b},{c})", float(a), float(b), float(c))
            for a, b, c in params["triples"]]


def _check_lemma1(params: dict) -> IdentityReport:
    floor = float(params["floor"])  # tolerance comes from the config
    worst = math.inf
    details = {}
    xs = np.geomspace(float(params["x_lo"]), float(params["x_hi"]),
                      int(params["points"]))
    for case, a, b, c in _lemma1_cases(params):
        m = min(fact.lemma1_inequality(a, b, c, float(x)) for x in xs)
        details[case] = m
        worst = min(worst, m)
    return IdentityReport(params["name"], max(0.0, -worst), -floor,
                          worst >= floor, details=details)


def _check_bb_crosscheck(params: dict) -> IdentityReport:
    order = int(params["order"])
    rel_tol = float(params["threshold"])  # tolerance comes from the config
    j_exact = int(params["j_max_exact"])
    expansion = msu_mod.bb_expansion(max(order, j_exact))
    # exact recurrence checks in integer arithmetic
    for j in range(j_exact + 1):
        coeffs = expansion.r_polys[j]
        if coeffs[0] != 1:
            return IdentityReport(params["name"], math.inf, rel_tol, False,
                                  details={"failed": f"R_{j}(0) != 1"})
        rp0 = coeffs[1] if len(coeffs) > 1 else 0
        if rp0 != 2 ** j - 1:
            return IdentityReport(params["name"], math.inf, rel_tol, False,
                                  details={"failed": f"R_{j}'(0) != 2^{j}-1"})
    worst = 0.0
    ts = np.linspace(float(params["t_lo"]), float(params["t_hi"]),
                     int(params["n_t"]))
    xs = np.exp(ts)
    for a in params["alphas"]:
        direct = dens.density_series_grid(float(a), xs).value * xs
        for t, d in zip(ts.tolist(), direct.tolist()):
            r = msu_mod.bb_log_density(float(a), t, expansion)
            if r.reliable:
                worst = max(worst, _rel_diff(r.value, d))
    return IdentityReport(params["name"], worst, rel_tol, worst < rel_tol,
                          details={"alphas": list(params["alphas"])})


class _Rule(NamedTuple):
    """What a config value must be: ``what`` says it, in error messages
    and in the README; ``ok`` tests a value (the alpha parsers raise
    DomainError for a bad alpha, and return an Alpha, which is true)."""

    what: str
    ok: Callable[[object], object]


def _items(ok: Callable[[object], object]) -> Callable[[object], bool]:
    """The test that a value is a list whose items all pass ``ok``."""
    return lambda value: (isinstance(value, (list, tuple))
                          and all(map(ok, value)))


def _count(floor: int) -> _Rule:
    return _Rule(f"an integer at least {floor}",
                 lambda value: _is_integer(value) and value >= floor)


_REAL = _Rule("a finite number", _is_real)
# 1e6 is far above every default; near 1e300 grids and closed forms overflow
_GRID = _Rule("a number in (0, 1e6]",
              lambda value: _is_real(value) and 0.0 < value <= 1e6)
# an alpha step of 0.4 or more can leave one side of 1/2 untested, and
# one below 1e-4 makes a sweep of more than 10^4 alphas
_STEP = _Rule("a number in [1e-4, 0.4)",
              lambda value: _is_real(value) and 1e-4 <= value < 0.4)
_POSITIVES = _Rule("a list of finite numbers, each above 0",
                   _items(lambda value: _is_real(value) and value > 0.0))
_LAMBDAS = _Rule("a list of finite numbers, each 0 or above about 5.6e-307",
                 _items(lambda value: _is_real(value)
                        and dens._takes_lambda(value)))
# _mellin_domain tests each s against the pairs
_S_VALUES = _Rule("a list of finite numbers inside the Mellin domain of "
                  "every pair", _items(_is_real))
_TRIPLES = _Rule("a list of triples [a, b, c] of finite numbers with "
                 "0 < b <= 1 and a + b >= c",
                 _items(lambda t: _items(_is_real)(t) and len(t) == 3
                        and 0.0 < t[1] <= 1.0
                        and float(t[0]) + float(t[1]) >= float(t[2])))
_ALPHA = _Rule("a number in (0, 1) or a fraction [p, n] with n > 0",
               _parse_alpha)
_ALPHAS = _Rule("a list of numbers in (0, 1)", _items(_alpha_number))
# lemma2_product(p, n) holds n - 1 factors and the scale n^n / p^p, which
# overflows a double from n = 144 (at p = 2)
_PAIRS = _Rule("a list of pairs [p, n] of two integers with p >= 2, "
               "n > 2p and n <= 100",
               _items(lambda pair: _items(_is_integer)(pair)
                      and len(pair) == 2 and pair[0] >= 2
                      and 2 * pair[0] < pair[1] <= 100))

_REQUIRED = object()  # the default of a key that an entry must give


def _mellin_domain(entry: dict) -> Optional[str]:
    """The first s of a lemma2_mellin entry outside its pair's Mellin
    domain, or where the pair's moment or its ratio of gammas overflows
    a double, as an error; None if there is none."""
    for p, n in entry["pairs"]:
        profile = fact.mellin_product(fact.lemma2_product(p, n))
        lo, hi = profile.valid_s
        for s in entry["s_values"]:
            if not lo < s < hi:
                return (f"s_values must lie in ({lo!r}, {hi!r}) for pair "
                        f"{[p, n]}, got {s!r}")
            try:
                _mellin_gap(profile, p, n, float(s))
            except (DomainError, OverflowError):
                return (f"s_values must keep the moment of pair {[p, n]} "
                        f"a finite double, got {s!r}")
    return None


def _values(key: str) -> Callable[[dict], list]:
    """The cases of the list ``key``: its values as floats, so that 1
    and 1.0 are one case."""
    return lambda entry: [(float(v),) for v in entry[key]]


class _Kind(NamedTuple):
    """One check kind: ``check`` runs a filled entry, which holds every
    key of ``params`` (each at its rule and default; x_lo must be below
    x_hi); ``groups`` maps case lists to the function that forms their
    cases, each case's key first: they must give a case, or the entry
    would pass with nothing checked, and no key twice; ``fault`` gives
    the error of a value outside its check's domain, or None."""

    check: Callable[[dict], IdentityReport]
    params: dict[str, tuple[_Rule, object]]
    groups: dict[tuple[str, ...], Callable[[dict], list]] = {}
    fault: Callable[[dict], Optional[str]] = lambda entry: None


# An absent case list takes its default, which is empty but for "xs".
_KINDS: dict[str, _Kind] = {
    "closed_form": _Kind(_check_closed_form, {
        "alpha": (_ALPHA, _REQUIRED), "threshold": (_REAL, _REQUIRED),
        "x_lo": (_GRID, 0.2), "x_hi": (_GRID, 20.0),
        "points": (_count(1), 50)}),
    "laplace": _Kind(_check_laplace, {
        "alpha": (_ALPHA, _REQUIRED), "lambdas": (_LAMBDAS, ()),
        "threshold": (_REAL, _REQUIRED)}, {("lambdas",): _values("lambdas")}),
    "msu_dichotomy": _Kind(_check_msu_dichotomy, {
        "alphas_violation": (_ALPHAS, ()), "alphas_msu": (_ALPHAS, ()),
        "x_lo": (_GRID, 0.5), "x_hi": (_GRID, 50.0),
        "points": (_count(16), 400)},
        {("alphas_violation", "alphas_msu"): _dichotomy_cases}),
    "tail_sign": _Kind(_check_tail_sign, {"alpha_step": (_STEP, 0.01)}),
    "half_alpha_residual": _Kind(_check_half_residual, {
        "xs": (_POSITIVES, (0.5, 1.0, 2.0, 10.0)),
        "threshold": (_REAL, _REQUIRED)}, {("xs",): _values("xs")}),
    "lemma2_mellin": _Kind(_check_lemma2_mellin, {
        "pairs": (_PAIRS, ()), "s_values": (_S_VALUES, ()),
        "threshold": (_REAL, _REQUIRED)},
        {("pairs",): _mellin_cases, ("s_values",): _values("s_values")},
        _mellin_domain),
    "sampler_fidelity": _Kind(_check_sampler_fidelity, {
        "alphas": (_ALPHAS, ()), "pairs": (_PAIRS, ()),
        "n_samples": (_count(1), 1_000_000), "seed": (_count(0), 1234)},
        {("alphas", "pairs"): _fidelity_cases}),
    "diff_identity": _Kind(_check_diff_identity, {
        "alphas": (_ALPHAS, ()),
        "n_samples": (_count(_DIFF_MIN_SAMPLES), 1_000_000),
        "seed": (_count(0), 4321)}, {("alphas",): _diff_cases}),
    "ualpha_dichotomy": _Kind(_check_ualpha_dichotomy, {
        "alpha_step": (_STEP, 0.01), "x_max": (_GRID, 50.0)}),
    "whitt_inequality": _Kind(_check_whitt, {
        "x_hi": (_GRID, 40.0), "safe_points": (_count(1), 40),
        "scan_points": (_count(1), 60)}),
    "lemma1_inequality": _Kind(_check_lemma1, {
        "triples": (_TRIPLES, ()), "x_lo": (_GRID, 0.01),
        "x_hi": (_GRID, 20.0), "points": (_count(1), 100),
        "floor": (_REAL, _REQUIRED)}, {("triples",): _lemma1_cases}),
    "bb_crosscheck": _Kind(_check_bb_crosscheck, {
        "alphas": (_ALPHAS, ()), "order": (_count(1), 30),
        "n_t": (_count(1), 20), "t_lo": (_REAL, 0.5), "t_hi": (_REAL, 6.0),
        "threshold": (_REAL, _REQUIRED), "j_max_exact": (_count(0), 20)},
        {("alphas",): _values("alphas")}),
}
CHECK_PARAMS: dict[str, dict[str, tuple[_Rule, object]]] = {
    kind: spec.params for kind, spec in _KINDS.items()}
CHECK_KINDS: dict[str, Callable[[dict], IdentityReport]] = {
    kind: spec.check for kind, spec in _KINDS.items()}


def _entries(config) -> list:
    """The check entries of ``config``, each with every absent key at
    its default, once its own keys, its schema and each entry against
    its kind are checked; raises ValueError (DomainError for an alpha)
    at the first fault."""
    checks = config.get("checks", []) if isinstance(config, dict) else None
    if not isinstance(checks, list):
        raise ValueError("a config must be an object with a list of checks")
    unknown = set(config) - {"schema", "checks"}
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown, key=str)}; "
                         "a config holds only schema and checks")
    schema = config.get("schema", 1)
    if not (_is_integer(schema) and schema == 1):
        raise ValueError(f"schema must be 1, got {schema!r}")
    names = set()
    filled = []
    for entry in checks:
        if not isinstance(entry, dict):
            raise ValueError(f"a check must be an object, got {entry!r}")
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown check kind {kind!r}")
        name = entry.get("name")
        if not isinstance(name, str) or name in names:
            raise ValueError("every check needs a name, a string that no "
                             f"other check has; got {name!r}")
        names.add(name)
        spec = _KINDS[kind]
        unknown = set(entry) - set(spec.params) - {"name", "kind"}
        if unknown:
            raise ValueError(f"check {name!r}: unknown keys "
                             f"{sorted(unknown)} for kind {kind!r}")
        missing = {key for key, (_, default) in spec.params.items()
                   if default is _REQUIRED} - set(entry)
        if missing:
            raise ValueError(f"check {name!r}: missing keys "
                             f"{sorted(missing)} for kind {kind!r}")
        for key, (rule, _) in spec.params.items():
            if key not in entry:
                continue
            try:
                ok = rule.ok(entry[key])
            except DomainError as exc:
                raise DomainError(f"check {name!r}: {key}: {exc}") from None
            if not ok:
                raise ValueError(f"check {name!r}: {key} must be "
                                 f"{rule.what}, got {entry[key]!r}")
        entry = {**{key: default for key, (_, default) in spec.params.items()
                    if default is not _REQUIRED}, **entry}
        if "x_lo" in spec.params and not entry["x_lo"] < entry["x_hi"]:
            raise ValueError(f"check {name!r}: x_lo must be below x_hi, "
                             f"got {entry['x_lo']!r} and {entry['x_hi']!r}")
        fault = spec.fault(entry)
        if fault is not None:
            raise ValueError(f"check {name!r}: {fault}")
        for keys, cases in spec.groups.items():
            if not any(entry[key] for key in keys):
                raise ValueError(f"check {name!r}: no cases in "
                                 f"{' or '.join(keys)}")
            keyed = [case[0] for case in cases(entry)]
            repeated = sorted({key for key in keyed if keyed.count(key) > 1})
            if repeated:
                raise ValueError(f"check {name!r}: repeated cases {repeated}")
        filled.append(entry)
    return filled


DEFAULT_ACCEPTANCE_CONFIG: dict = {
    "schema": 1,
    "checks": [
        {"name": "01a-closed-form-1-2", "kind": "closed_form",
         "alpha": [1, 2], "threshold": 1e-8},
        {"name": "01b-closed-form-1-3", "kind": "closed_form",
         "alpha": [1, 3], "threshold": 1e-8},
        {"name": "01c-closed-form-2-3", "kind": "closed_form",
         "alpha": [2, 3], "threshold": 1e-6},
        {"name": "02a-laplace-0.3", "kind": "laplace", "alpha": 0.3,
         "lambdas": [0.0, 0.5, 1.0, 2.0, 4.0], "threshold": 1e-5},
        {"name": "02b-laplace-0.5", "kind": "laplace", "alpha": 0.5,
         "lambdas": [0.0, 0.5, 1.0, 2.0, 4.0], "threshold": 1e-5},
        {"name": "02c-laplace-0.7", "kind": "laplace", "alpha": 0.7,
         "lambdas": [0.0, 0.5, 1.0, 2.0, 4.0], "threshold": 1e-5},
        {"name": "03-msu-dichotomy", "kind": "msu_dichotomy",
         "alphas_violation": [0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90],
         "alphas_msu": [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50],
         "x_lo": 0.5, "x_hi": 50.0, "points": 400},
        {"name": "04-tail-sign", "kind": "tail_sign", "alpha_step": 0.01},
        {"name": "05-half-residual", "kind": "half_alpha_residual",
         "xs": [0.5, 1.0, 2.0, 10.0], "threshold": 1e-7},
        {"name": "06-lemma2-mellin", "kind": "lemma2_mellin",
         "pairs": [[2, 5], [2, 7], [3, 7], [3, 8], [4, 9]],
         "s_values": [0.1, 0.5, 1.0, 2.0, 5.0], "threshold": 1e-10},
        {"name": "07-sampler-fidelity", "kind": "sampler_fidelity",
         "alphas": [0.3, 0.5, 0.7], "pairs": [[2, 5], [3, 7]],
         "n_samples": 1_000_000, "seed": 20240813},
        {"name": "08-diff-identity", "kind": "diff_identity",
         "alphas": [0.4, 0.5, 0.8], "n_samples": 1_000_000, "seed": 907},
        {"name": "09-ualpha-dichotomy", "kind": "ualpha_dichotomy",
         "alpha_step": 0.01, "x_max": 50.0},
        {"name": "10-whitt-inequality", "kind": "whitt_inequality",
         "x_hi": 40.0, "safe_points": 40, "scan_points": 60},
        {"name": "11-lemma1-inequality", "kind": "lemma1_inequality",
         "triples": [[0.4, 0.6, 0.9], [0.3, 0.5, 0.7], [0.5, 1.0, 1.2],
                     [0.7, 0.8, 1.5], [0.2, 0.9, 1.0]],
         "x_lo": 0.01, "x_hi": 20.0, "points": 100, "floor": -1e-10},
        {"name": "12-bb-crosscheck", "kind": "bb_crosscheck",
         "alphas": [0.3, 0.5], "order": 30, "n_t": 20, "t_lo": 0.5,
         "t_hi": 6.0, "threshold": 1e-5, "j_max_exact": 20},
    ],
}


def _non_finite(value, path: str = ""):
    """(path, number) of the first float in ``value``, through nested
    dicts and lists, that is not finite; None if there is none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, (list, tuple))
             else ())
    for key, item in items:
        bad = _non_finite(item, f"{path}.{key}" if path else str(key))
        if bad is not None:
            return bad
    return None


def run_acceptance(config) -> dict:
    """Execute the checks listed in ``config`` and return a deterministic
    JSON-ready summary.

    ``config`` is a dict, a ``Path`` to a JSON file, or a string: JSON
    text when its first non-blank character is ``{``, else a file path.
    Check failures are aggregated, never raised; a malformed config,
    such as one with a case outside its check's domain, raises before
    any check runs (see ``_entries`` and ``_KINDS``), and a report
    holding a number that is not finite (not valid JSON) raises
    ValueError as soon as its check returns.  Each entry's check, looked
    up in ``CHECK_KINDS`` as it runs, gets the entry with every absent
    key at its default.  Identical configs and seeds produce identical
    summaries.
    """
    if isinstance(config, str) and config.lstrip().startswith("{"):
        config = json.loads(config)
    elif isinstance(config, (str, Path)):
        config = json.loads(Path(config).read_text())
    if config is None:
        config = {}
    reports = []
    for entry in _entries(config):
        report = CHECK_KINDS[entry["kind"]](entry)
        bad = _non_finite(report.to_dict())
        if bad is not None:
            raise ValueError(f"check {entry['name']!r}: {bad[0]} is "
                             f"{bad[1]!r}, not a finite number")
        reports.append(report)
    reports.sort(key=lambda r: r.name)
    return {
        "schema": 1,
        "n_checks": len(reports),
        "all_pass": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
    }
