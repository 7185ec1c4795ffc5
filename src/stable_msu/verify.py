"""Statistical and quadrature verification harness.

Kolmogorov-Smirnov fixtures at the asymptotic 1 percent level
(coefficient 1.628), empirical-versus-analytic CDF machinery, the
distributional identity checks, and the acceptance-suite runner that
executes a JSON config of named checks and emits a deterministic JSON
summary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from . import density as dens
from . import factorizations as fact
from . import msu as msu_mod
from .density import Alpha, DEFAULT_SERIES_CONFIG, SeriesConfig, as_alpha
from .errors import PreconditionError

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

def ks_one_sample(samples, cdf) -> KsResult:
    """Sup-norm distance between the empirical CDF and ``cdf``."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise PreconditionError("ks_one_sample requires samples")
    f = np.clip(np.asarray(cdf(s), dtype=float), 0.0, 1.0)
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    stat = float(max(np.max(up - f), np.max(f - lo)))
    crit = KS_COEFF_1PCT / math.sqrt(n)
    return KsResult(stat, n, crit, stat < crit)


def ks_two_sample(a, b) -> KsResult:
    """Sup-norm distance between two empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise PreconditionError("ks_two_sample requires samples")
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / n
    fb = np.searchsorted(b, both, side="right") / m
    stat = float(np.max(np.abs(fa - fb)))
    crit = KS_COEFF_1PCT * math.sqrt((n + m) / (n * m))
    return KsResult(stat, n, crit, stat < crit, m_samples=m)


# ---------------------------------------------------------------------------
# CDF construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableCdf:
    """Monotone piecewise-linear (in log x) CDF of Z_alpha.

    Cumulative quadrature of the density over the reliable domain,
    anchored on the right by the termwise-integrated tail series; below
    the grid the CDF falls linearly to (0, 0), above it the survival
    series is evaluated per point.
    """

    alpha: Alpha
    log_xs: np.ndarray
    values: np.ndarray
    cfg: SeriesConfig

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.interp(np.log(np.clip(x, math.exp(self.log_xs[0]), None)),
                        self.log_xs, self.values)
        x_lo = math.exp(self.log_xs[0])
        small = x < x_lo
        if np.any(small):
            out[small] = self.values[0] * np.clip(x[small], 0.0, x_lo) / x_lo
        x_hi = math.exp(self.log_xs[-1])
        big = x > x_hi
        if np.any(big):
            out[big] = [1.0 - dens.survival_series(self.alpha, float(t),
                                                   self.cfg).value
                        for t in x[big]]
        return float(out[0]) if scalar else np.clip(out, 0.0, 1.0)


def build_cdf(alpha, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG,
              n_grid: int = 6000) -> StableCdf:
    """CDF of Z_alpha by cumulative Simpson quadrature on a log grid."""
    alpha = as_alpha(alpha)
    x_lo = dens.reliable_x_min(alpha, cfg, survival=True)
    x_switch = max(dens.reliable_x_min(alpha, cfg), x_lo)
    x_hi = max(10.0, 10.0 * x_switch)
    while dens.survival_series(alpha, x_hi, cfg).value > 5e-6 and x_hi < 1e18:
        x_hi *= 10.0

    n_left = max(64, n_grid // 10)
    left = np.geomspace(x_lo, x_switch, n_left) if x_switch > x_lo * 1.0001 \
        else np.array([x_lo])
    main = np.geomspace(x_switch, x_hi, n_grid)
    # left segment: integrated series directly (density jets are not
    # relatively reliable there, the survival sum is)
    f_left = 1.0 - dens.survival_series_grid(alpha, left[:-1], cfg).value
    # main segment: cumulative Simpson of the density in log x, anchored
    # at the right end by the integrated tail
    fs = dens.density_series_grid(alpha, main, cfg).value
    integrand = fs * main  # d(log x) measure
    logs = np.log(main)
    cum = integrate.cumulative_trapezoid(integrand, logs, initial=0.0)
    anchor = 1.0 - dens.survival_series(alpha, float(x_hi), cfg).value
    f_main = anchor - (cum[-1] - cum)
    xs = np.concatenate([left[:-1], main])
    vals = np.concatenate([f_left, f_main])
    vals = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
    return StableCdf(alpha, np.log(xs), vals, cfg)


def ualpha_cdf(alpha, n_grid: int = 8001):
    """CDF of the log-difference density by cumulative quadrature."""
    alpha = as_alpha(alpha)
    a = alpha.value
    x_max = max(30.0, 42.0 / a)
    xs = np.linspace(-x_max, x_max, n_grid)
    pdf = msu_mod.ualpha_density(alpha, xs)
    left_tail, _ = integrate.quad(
        lambda t: msu_mod.ualpha_density(alpha, t), -np.inf, -x_max)
    cum = left_tail + integrate.cumulative_trapezoid(pdf, xs, initial=0.0)

    def cdf(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.interp(x, xs, cum)
        for i in np.nonzero(x < -x_max)[0]:
            out[i], _ = integrate.quad(
                lambda t: msu_mod.ualpha_density(alpha, t), -np.inf, x[i])
        for i in np.nonzero(x > x_max)[0]:
            tail, _ = integrate.quad(
                lambda t: msu_mod.ualpha_density(alpha, t), x[i], np.inf)
            out[i] = 1.0 - tail
        return np.clip(out, 0.0, 1.0)

    return cdf


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def check_laplace(alpha, lambdas, threshold: float = 1e-5,
                  cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> IdentityReport:
    """Max Laplace-transform discrepancy over the given lambdas."""
    alpha = as_alpha(alpha)
    per = {str(lam): dens.laplace_check(alpha, float(lam), cfg)
           for lam in lambdas}
    worst = max(per.values()) if per else 0.0
    return IdentityReport(
        name=f"laplace-alpha-{alpha.value:g}",
        discrepancy=worst, threshold=threshold, passed=worst < threshold,
        details={"per_lambda": per})


def check_diff_identity(alpha, n_samples: int, seed: int) -> IdentityReport:
    """KS of log Z - log Z~ (independent copies) against the
    log-difference density, at the asymptotic 1 percent level."""
    alpha = as_alpha(alpha)
    if n_samples < 10_000:
        raise PreconditionError("need at least 1e4 samples")
    rng = np.random.default_rng(seed)
    z1 = fact.sample_stable(alpha, rng, n_samples)
    z2 = fact.sample_stable(alpha, rng, n_samples)
    diff = np.log(z1) - np.log(z2)
    ks = ks_one_sample(diff, ualpha_cdf(alpha))
    return IdentityReport(
        name=f"diff-identity-alpha-{alpha.value:g}",
        discrepancy=ks.statistic, threshold=ks.critical_1pct,
        passed=ks.passed, details={"ks": ks.to_dict(), "seed": seed})


def check_factorization_mc(p: int, n: int, n_samples: int,
                           seed: int) -> IdentityReport:
    """Two-sample KS between Z_{p/n}^{-p} (exact sampler) and the
    Beta x Gamma product representation."""
    fl = fact.lemma2_product(p, n)  # validates n > 2p
    alpha = Alpha.from_fraction(p, n)
    rng = np.random.default_rng(seed)
    z = fact.sample_stable(alpha, rng, n_samples) ** (-float(p))
    prod = fl.sample(rng, n_samples)
    ks = ks_two_sample(z, prod)
    return IdentityReport(
        name=f"factorization-mc-{p}-{n}",
        discrepancy=ks.statistic, threshold=ks.critical_1pct,
        passed=ks.passed, details={"ks": ks.to_dict(), "seed": seed})


def check_sampler_ks(alpha, n_samples: int, seed: int,
                     cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> IdentityReport:
    """One-sample KS of exact-sampler draws against the quadrature CDF."""
    alpha = as_alpha(alpha)
    rng = np.random.default_rng(seed)
    z = fact.sample_stable(alpha, rng, n_samples)
    ks = ks_one_sample(z, build_cdf(alpha, cfg))
    return IdentityReport(
        name=f"sampler-ks-alpha-{alpha.value:g}",
        discrepancy=ks.statistic, threshold=ks.critical_1pct,
        passed=ks.passed, details={"ks": ks.to_dict(), "seed": seed})


def check_mellin_factorization(p: int, n: int, s_values,
                               threshold: float = 1e-10) -> IdentityReport:
    """Relative discrepancy of the product Mellin transform against
    Gamma(ns+1)/Gamma(ps+1)."""
    fl = fact.lemma2_product(p, n)
    profile = fact.mellin_product(fl)
    per = {}
    worst = 0.0
    for s in s_values:
        lhs = profile(float(s))
        rhs = math.exp(math.lgamma(n * float(s) + 1.0)
                       - math.lgamma(p * float(s) + 1.0))
        rel = abs(lhs / rhs - 1.0)
        per[str(s)] = rel
        worst = max(worst, rel)
    return IdentityReport(
        name=f"mellin-factorization-{p}-{n}",
        discrepancy=worst, threshold=threshold, passed=worst < threshold,
        details={"per_s": per})


# ---------------------------------------------------------------------------
# acceptance checks (one function per criterion kind)
# ---------------------------------------------------------------------------

def _parse_alpha(spec) -> Alpha:
    if isinstance(spec, (list, tuple)):
        return Alpha.from_fraction(int(spec[0]), int(spec[1]))
    return as_alpha(float(spec))


def _check_closed_form(params: dict) -> IdentityReport:
    alpha = _parse_alpha(params["alpha"])
    tol = float(params["threshold"])
    x_lo = float(params.get("x_lo", 0.2))
    x_hi = float(params.get("x_hi", 20.0))
    n_pts = int(params.get("points", 50))
    cfg = SeriesConfig(rel_tol=1e-14)
    xs = np.geomspace(x_lo, x_hi, n_pts)
    series = dens.density_series_grid(alpha, xs, cfg).value
    worst = 0.0
    for x, s in zip(xs.tolist(), series.tolist()):
        c = dens.density_closed(alpha, x)
        worst = max(worst, abs(s - c.value) / abs(c.value))
    return IdentityReport(
        name=params["name"], discrepancy=worst, threshold=tol,
        passed=worst < tol,
        details={"alpha": alpha.value, "points": n_pts})


def _check_laplace(params: dict) -> IdentityReport:
    rep = check_laplace(_parse_alpha(params["alpha"]), params["lambdas"],
                        threshold=float(params["threshold"]))
    return IdentityReport(params["name"], rep.discrepancy, rep.threshold,
                          rep.passed, rep.details)


def _check_msu_dichotomy(params: dict) -> IdentityReport:
    x_lo = float(params.get("x_lo", 0.5))
    x_hi = float(params.get("x_hi", 50.0))
    points = int(params.get("points", 400))
    misclassified = []
    details = {}
    for a in params.get("alphas_violation", []):
        rep = msu_mod.msu_scan(float(a), x_lo, x_hi, points)
        details[f"{a:g}"] = rep.summary()
        if rep.classification != msu_mod.VIOLATION:
            misclassified.append(a)
    for a in params.get("alphas_msu", []):
        rep = msu_mod.msu_scan(float(a), x_lo, x_hi, points)
        details[f"{a:g}"] = rep.summary()
        if rep.classification != msu_mod.NO_VIOLATION:
            misclassified.append(a)
    return IdentityReport(
        params["name"], float(len(misclassified)), 0.5,
        not misclassified, details={"misclassified": misclassified,
                                    "scans": details})


def _check_tail_sign(params: dict) -> IdentityReport:
    step = float(params.get("alpha_step", 0.01))
    bad = []
    a = step
    while a < 1.0 - step / 2:
        if abs(a - 0.5) > step / 4:
            _, compatible = msu_mod.tail_residual_sign(round(a, 10))
            if compatible != (a < 0.5):
                bad.append(a)
        a += step
    return IdentityReport(params["name"], float(len(bad)), 0.5, not bad,
                          details={"mismatches": bad})


def _check_half_residual(params: dict) -> IdentityReport:
    xs = params.get("xs", [0.5, 1.0, 2.0, 10.0])
    tol = float(params["threshold"])
    worst = 0.0
    for x in xs:
        r = msu_mod.lce_residual(0.5, float(x))
        f = dens.density_closed(0.5, float(x)).value
        exact = -f * f / (4.0 * float(x))
        worst = max(worst, abs(r.value - exact) / abs(exact))
    return IdentityReport(params["name"], worst, tol, worst < tol,
                          details={"xs": list(xs)})


def _check_lemma2_mellin(params: dict) -> IdentityReport:
    worst = 0.0
    details = {}
    for p, n in params["pairs"]:
        rep = check_mellin_factorization(int(p), int(n), params["s_values"],
                                         threshold=float(params["threshold"]))
        details[f"{p}/{n}"] = rep.discrepancy
        worst = max(worst, rep.discrepancy)
    return IdentityReport(params["name"], worst, float(params["threshold"]),
                          worst < float(params["threshold"]), details=details)


def _check_sampler_fidelity(params: dict) -> IdentityReport:
    n_samples = int(params.get("n_samples", 1_000_000))
    seed = int(params.get("seed", 1234))
    worst_margin = -math.inf
    details = {}
    ok = True
    for a in params.get("alphas", []):
        rep = check_sampler_ks(float(a), n_samples, seed)
        details[f"one-sample-{a:g}"] = rep.to_dict()
        ok = ok and rep.passed
        worst_margin = max(worst_margin, rep.discrepancy / rep.threshold)
    for p, n in params.get("pairs", []):
        rep = check_factorization_mc(int(p), int(n), n_samples, seed + p * 31 + n)
        details[f"two-sample-{p}-{n}"] = rep.to_dict()
        ok = ok and rep.passed
        worst_margin = max(worst_margin, rep.discrepancy / rep.threshold)
    return IdentityReport(params["name"], worst_margin, 1.0, ok,
                          details=details)


def _check_diff_identity(params: dict) -> IdentityReport:
    n_samples = int(params.get("n_samples", 1_000_000))
    seed = int(params.get("seed", 4321))
    ok = True
    worst = -math.inf
    details = {}
    for a in params["alphas"]:
        rep = check_diff_identity(float(a), n_samples, seed)
        details[f"{a:g}"] = rep.to_dict()
        ok = ok and rep.passed
        worst = max(worst, rep.discrepancy / rep.threshold)
    return IdentityReport(params["name"], worst, 1.0, ok, details=details)


def _check_ualpha_dichotomy(params: dict) -> IdentityReport:
    step = float(params.get("alpha_step", 0.01))
    x_max = float(params.get("x_max", 50.0))
    xs = np.linspace(-x_max, x_max, 2001)
    bad = []
    a = step
    while a < 1.0 - step / 2:
        aa = round(a, 10)
        margin = float(np.min(msu_mod.ualpha_logconcavity_margin(aa, xs)))
        if (margin >= 0.0) != (aa <= 0.5):
            bad.append(aa)
        a += step
    return IdentityReport(params["name"], float(len(bad)), 0.5, not bad,
                          details={"mismatches": bad})


def _check_whitt(params: dict) -> IdentityReport:
    safe = np.geomspace(1.0 / 6.0, float(params.get("x_hi", 40.0)),
                        int(params.get("safe_points", 40)))
    min_safe = min(fact.whitt_margin(float(x)) for x in safe)
    x_star = None
    margin_star = None
    for x in np.geomspace(1e-3, 1.0 / 6.0, int(params.get("scan_points", 60))):
        m = fact.whitt_margin(float(x))
        if m < -1e-6:
            x_star, margin_star = float(x), m
            break
    ok = (min_safe >= 0.0) and (x_star is not None)
    return IdentityReport(
        params["name"], max(0.0, -min_safe), 1e-12, ok,
        details={"min_margin_safe_region": min_safe,
                 "witness_x": x_star, "witness_margin": margin_star})


def _check_lemma1(params: dict) -> IdentityReport:
    floor = float(params["floor"])  # tolerance comes from the config
    worst = math.inf
    details = {}
    for a, b, c in params["triples"]:
        margins = [fact.lemma1_inequality(float(a), float(b), float(c), float(x))
                   for x in np.geomspace(float(params.get("x_lo", 0.01)),
                                         float(params.get("x_hi", 20.0)),
                                         int(params.get("points", 100)))]
        m = min(margins)
        details[f"({a},{b},{c})"] = m
        worst = min(worst, m)
    return IdentityReport(params["name"], max(0.0, -worst), -floor,
                          worst >= floor, details=details)


def _check_bb_crosscheck(params: dict) -> IdentityReport:
    order = int(params.get("order", 30))
    rel_tol = float(params["threshold"])  # tolerance comes from the config
    j_exact = int(params.get("j_max_exact", 20))
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
    ts = np.linspace(float(params.get("t_lo", 0.5)),
                     float(params.get("t_hi", 6.0)),
                     int(params.get("n_t", 20)))
    xs = np.exp(ts)
    for a in params["alphas"]:
        direct = dens.density_series_grid(float(a), xs).value * xs
        for t, d in zip(ts.tolist(), direct.tolist()):
            r = msu_mod.bb_log_density(float(a), t, expansion)
            if r.reliable:
                worst = max(worst, abs(r.value - d) / abs(d))
    return IdentityReport(params["name"], worst, rel_tol, worst < rel_tol,
                          details={"alphas": list(params["alphas"])})


CHECK_KINDS: dict[str, Callable[[dict], IdentityReport]] = {
    "closed_form": _check_closed_form,
    "laplace": _check_laplace,
    "msu_dichotomy": _check_msu_dichotomy,
    "tail_sign": _check_tail_sign,
    "half_alpha_residual": _check_half_residual,
    "lemma2_mellin": _check_lemma2_mellin,
    "sampler_fidelity": _check_sampler_fidelity,
    "diff_identity": _check_diff_identity,
    "ualpha_dichotomy": _check_ualpha_dichotomy,
    "whitt_inequality": _check_whitt,
    "lemma1_inequality": _check_lemma1,
    "bb_crosscheck": _check_bb_crosscheck,
}


# the entry keys each check kind reads, besides "name" and "kind"
CHECK_PARAMS: dict[str, frozenset[str]] = {
    "closed_form": frozenset({"alpha", "threshold", "x_lo", "x_hi", "points"}),
    "laplace": frozenset({"alpha", "lambdas", "threshold"}),
    "msu_dichotomy": frozenset({"alphas_violation", "alphas_msu", "x_lo",
                                "x_hi", "points"}),
    "tail_sign": frozenset({"alpha_step"}),
    "half_alpha_residual": frozenset({"xs", "threshold"}),
    "lemma2_mellin": frozenset({"pairs", "s_values", "threshold"}),
    "sampler_fidelity": frozenset({"alphas", "pairs", "n_samples", "seed"}),
    "diff_identity": frozenset({"alphas", "n_samples", "seed"}),
    "ualpha_dichotomy": frozenset({"alpha_step", "x_max"}),
    "whitt_inequality": frozenset({"x_hi", "safe_points", "scan_points"}),
    "lemma1_inequality": frozenset({"triples", "x_lo", "x_hi", "points",
                                    "floor"}),
    "bb_crosscheck": frozenset({"alphas", "order", "n_t", "t_lo", "t_hi",
                                "threshold", "j_max_exact"}),
}


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


def run_acceptance(config) -> dict:
    """Execute the checks listed in ``config`` (a dict, JSON string or
    path) and return a deterministic JSON-ready summary.

    Check failures are aggregated, never raised; malformed configs do
    raise, before any check runs: an unknown kind, a missing name, or a
    key that the check's kind does not read (see ``CHECK_PARAMS``).
    Identical configs and seeds produce identical summaries.
    """
    if isinstance(config, (str, Path)):
        text = Path(config).read_text() if Path(str(config)).exists() \
            else str(config)
        config = json.loads(text)
    if config is None:
        config = {}
    checks = config.get("checks", [])
    for entry in checks:
        kind = entry.get("kind")
        if kind not in CHECK_KINDS:
            raise ValueError(f"unknown check kind {kind!r}")
        if "name" not in entry:
            raise ValueError("every check needs a name")
        unknown = set(entry) - CHECK_PARAMS[kind] - {"name", "kind"}
        if unknown:
            raise ValueError(f"check {entry['name']!r}: unknown keys "
                             f"{sorted(unknown)} for kind {kind!r}")
    reports = [CHECK_KINDS[entry["kind"]](entry) for entry in checks]
    reports.sort(key=lambda r: r.name)
    return {
        "schema": 1,
        "n_checks": len(reports),
        "all_pass": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
    }
