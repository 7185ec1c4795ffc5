"""The contract of every public evaluator at the fringes of its domain.

Each evaluator is called at a fixed table of extreme arguments (no
randomness, so the test is deterministic), with warnings raised as
errors as everywhere in the suite.  Each call must end in one of three
ways:

* reliable, with a finite value and a finite bar;
* flagged unreliable;
* a package error (DomainError, PreconditionError and their kinds).

So it never gives NaN under ``reliable=True``, and never raises a raw
ZeroDivisionError, OverflowError or RuntimeWarning.  An evaluator that
returns a plain number has no flag: its number must be finite, but for
``ualpha_logconcavity_margin``, whose limit +-inf far out is documented.

``msu_scan`` is a classifier over a grid, not an evaluator at a point:
on grids that reach the ends of the doubles it must end in a report or
``UnreliableScanError``, with every reliable residual finite.

Not covered: ``sample_stable`` returns draws, not an estimate, and its
draws overflow to inf at tiny alpha by design (see the README).
"""

import functools
import math

import numpy as np
import pytest

import stable_msu as pkg
from stable_msu.errors import DomainError, PreconditionError

XS = [0.0, -1.0, 5e-324, 1e-300, 1e-20, 1.0, 1e20, 1e300, 1.7e308,
      math.inf, math.nan]
ALPHAS = [1e-300, 1e-8, 0.01, 0.3, 0.5, 0.7, 0.999, 1.0 - 1e-12, 0.0, 1.0,
          math.nan, 1.0 / 3.0, 2.0 / 3.0]


@functools.lru_cache(maxsize=None)
def _cdf(alpha):
    return pkg.build_cdf(alpha)


# evaluators of (alpha, x); the grid forms take x as a one-point grid
EVALUATORS = {
    "density_closed": pkg.density_closed,
    "density_series": pkg.density_series,
    "density_jet": pkg.density_jet,
    "survival_series": pkg.survival_series,
    "density_series_grid": lambda a, x: pkg.density_series_grid(a, [x]),
    "density_jet_grid": lambda a, x: pkg.density_jet_grid(a, [x]),
    "survival_series_grid": lambda a, x: pkg.survival_series_grid(a, [x]),
    "laplace_check": pkg.laplace_check,
    "lce_residual": pkg.lce_residual,
    "bb_log_density": lambda a, t: pkg.bb_log_density(
        a, t, pkg.bb_expansion(4)),
    "kanter_b": pkg.kanter_b,
    "mellin_stable": lambda a, s: pkg.mellin_stable(a)(s),
    "lemma1_g": lambda a, x: pkg.lemma1_g(a, 0.5, a, 0, x),
    "lemma1_inequality": lambda a, x: pkg.lemma1_inequality(a, 0.5, a, x),
    "bessel_k": pkg.bessel_k,
    "psi_chf": lambda a, x: pkg.psi_chf(a, a + 1.0, x),
    "ualpha_cdf": lambda a, x: pkg.ualpha_cdf(a)(x),
    "ualpha_logconcavity_margin": pkg.ualpha_logconcavity_margin,
    "StableCdf": lambda a, x: _cdf(a)(x),
    "tail_coefficient": lambda a, x: pkg.tail_coefficient(a),
    "tail_residual_sign": lambda a, x: pkg.tail_residual_sign(a)[0],
    # evaluators of x alone
    "whittaker_w_stable": lambda a, x: pkg.whittaker_w_stable(x),
    "whitt_margin": lambda a, x: pkg.whitt_margin(x),
    "log_gamma": lambda a, x: pkg.log_gamma(x)[0],
    "mellin_product": lambda a, s: pkg.mellin_product(
        pkg.lemma2_product(2, 5))(s),
}
INF_LIMIT = {"ualpha_logconcavity_margin"}


def _broken(name, fn, alpha, x):
    """What breaks the contract in the call fn(alpha, x), or None."""
    try:
        out = fn(alpha, x)
    except (DomainError, PreconditionError):
        return None
    except Exception as exc:  # noqa: BLE001 - a raw error is the finding
        return f"raises {type(exc).__name__}: {exc}"
    if isinstance(out, pkg.DensityJet):
        results = [out.f, out.fp, out.fpp]
    elif isinstance(out, pkg.EvalResult):
        results = [out]
    else:
        v = np.asarray(out, dtype=float)
        ok = ~np.isnan(v) if name in INF_LIMIT else np.isfinite(v)
        return None if np.all(ok) else f"returns {out!r}"
    for r in results:
        finite = np.isfinite(np.asarray(r.value, dtype=float)) & np.isfinite(
            np.asarray(r.abs_error_estimate, dtype=float))
        if np.any(np.asarray(r.reliable) & ~finite):
            return f"returns {r!r}"
    return None


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_every_call_ends_in_a_kept_promise(name):
    fn = EVALUATORS[name]
    broken = [f"({alpha!r}, {x!r}) {why}"
              for alpha in ALPHAS for x in XS
              if (why := _broken(name, fn, alpha, x)) is not None]
    assert broken == []


SCAN_GRIDS = [(1e-300, 1e300), (5e-324, 1.7e308), (1e-20, 1e20)]
SCAN_ALPHAS = [1e-300, 1e-8, 0.01, 0.05, 0.3, 0.5, 0.7, 0.999, 1.0 - 1e-12,
               1.0 / 3.0, 2.0 / 3.0]


def _broken_scan(alpha, x_lo, x_hi):
    """What breaks msu_scan's contract on a 200-point grid, or None: it
    must end in a report or UnreliableScanError, with every reliable
    residual finite."""
    try:
        rep = pkg.msu_scan(alpha, x_lo, x_hi, 200)
    except pkg.UnreliableScanError:
        return None
    except Exception as exc:  # noqa: BLE001 - a raw error is the finding
        return f"raises {type(exc).__name__}: {exc}"
    bad = [r for r in rep.residuals if r.reliable and not (
        math.isfinite(r.value) and math.isfinite(r.abs_error_estimate))]
    return f"returns {bad[0]!r}" if bad else None


@pytest.mark.parametrize("x_lo,x_hi", SCAN_GRIDS)
def test_msu_scan_at_the_fringes(x_lo, x_hi):
    # a classifier over a grid, not an evaluator at a point: where f^2
    # underflowed at a reliable point, g / f^2 raised an "invalid value"
    # RuntimeWarning
    broken = [f"{alpha!r} {why}" for alpha in SCAN_ALPHAS
              if (why := _broken_scan(alpha, x_lo, x_hi)) is not None]
    assert broken == []


class TestFormerHits:
    """The calls that broke the contract before, one by one."""

    @pytest.mark.parametrize("alpha,x", [
        (0.5, 5e-324), (0.5, 1e-300), (0.5, 1e300), (0.5, 1.7e308),
        (1.0 / 3.0, 1e-300), (1.0 / 3.0, 1e300), (2.0 / 3.0, 1e-300),
        (2.0 / 3.0, 1e-160)])
    def test_density_closed_at_extreme_x(self, alpha, x):
        # the density is below 1e-300 here, and so are the value and bar
        r = pkg.density_closed(alpha, x)
        assert 0.0 <= r.value <= 1e-300
        assert 0.0 <= r.abs_error_estimate <= 1e-300

    def test_whittaker_w_at_inf_is_zero(self):
        assert pkg.whittaker_w_stable(math.inf) == pkg.psi_chf(
            1.0 / 6.0, 4.0 / 3.0, math.inf)
        assert pkg.whittaker_w_stable(math.inf).value == 0.0

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_lemma1_inequality_needs_finite_x(self, x):
        with pytest.raises(DomainError, match="finite"):
            pkg.lemma1_inequality(0.3, 0.5, 0.3, x)

    def test_lce_residual_overflow_is_flagged(self):
        # the theta-sums are about 7e162 here, and g's own products
        # overflow
        r = pkg.lce_residual(1e-160, 5e-324)
        assert not r.reliable
        # (1e-300, 1e300) was flagged for the overflow of the f' and f''
        # that g was once rebuilt from; all three sums are 0 there, so g
        # reads the jet's 0 +- 0, and is flagged because f underflowed
        r = pkg.lce_residual(1e-300, 1e300)
        f = pkg.density_jet(1e-300, 1e300).f
        assert (r.value, r.abs_error_estimate) == \
            (f.value, f.abs_error_estimate) == (0.0, 0.0)
        assert not r.reliable

    def test_underflowed_residuals_are_no_evidence(self):
        # f underflows over this whole grid, and g read 0 +- 0 at every
        # point, which once passed for reliable evidence that g <= 0;
        # the tail sign says g > 0 out there
        assert not pkg.tail_residual_sign(0.7)[1]
        try:
            rep = pkg.msu_scan(0.7, 1e160, 1e300, 200)
        except pkg.UnreliableScanError:
            return
        assert rep.classification == pkg.VIOLATION

    def test_underflowed_series_are_flagged(self):
        # f is about 1e-600 at each of these points: every term of the
        # series underflows, and the sum read 0 +- 0 with reliable=True
        jet = pkg.density_jet(1e-300, 1e300)
        for r in (jet.f, jet.fp, jet.fpp, pkg.density_series(0.999, 1e300)):
            assert (r.value, r.reliable) == (0.0, False)
        grid = pkg.density_series_grid(1e-300, [1e300, 1.0])
        assert grid.value[0] == 0.0 and not grid.reliable[0]
        # the second point's f is 3.7e-301, a normal double: reliable
        assert grid.value[1] > 0.0 and grid.reliable[1]

    @pytest.mark.parametrize("a", [1e-300, 0.01, 0.3, 0.7, 1.0 - 1e-12])
    def test_kanter_b_below_1e_8_is_its_limit(self, a):
        limit = math.exp(a * math.log(a) + (1.0 - a) * math.log1p(-a))
        for u in (5e-324, 1e-300, 1e-9):
            assert pkg.kanter_b(a, u) == limit
        assert np.array_equal(pkg.kanter_b(a, np.array([5e-324, 1e-9])),
                              [limit, limit])
