import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from stable_msu.density import (Alpha, EvalResult, SeriesConfig, as_alpha,
                                density_closed, density_jet, density_jet_grid,
                                density_series, density_series_grid,
                                laplace_check, reliable_x_min,
                                survival_series, survival_series_grid,
                                tail_coefficient)
from stable_msu.errors import DomainError, UnsupportedAlphaError

TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def closed_half(x):
    return math.exp(-0.25 / x) / (TWO_SQRT_PI * x ** 1.5)


class TestAlpha:
    def test_from_fraction_reduces(self):
        a = Alpha.from_fraction(4, 10)
        assert a.rational_form == (2, 5)
        assert a.value == 0.4

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
    def test_range(self, bad):
        with pytest.raises(DomainError):
            Alpha(bad)

    def test_mismatched_rational(self):
        with pytest.raises(DomainError):
            Alpha(0.5, (1, 3))

    def test_as_alpha_passthrough(self):
        a = Alpha(0.37)
        assert as_alpha(a) is a
        assert as_alpha(0.37) == a


class TestSeriesConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesConfig(max_terms=0)
        with pytest.raises(ValueError):
            SeriesConfig(rel_tol=2.0)
        with pytest.raises(ValueError):
            SeriesConfig(cancellation_guard=0.5)


class TestDensitySeries:
    def test_half_at_one(self):
        r = density_series(0.5, 1.0)
        assert r.reliable
        assert r.value == pytest.approx(closed_half(1.0), abs=1e-9)

    @pytest.mark.parametrize("x", [0.2, 0.7, 3.0, 40.0])
    def test_half_grid(self, x):
        r = density_series(0.5, x)
        assert r.value == pytest.approx(closed_half(x), rel=1e-11)

    def test_half_tail_limit(self):
        # f(x) x^{3/2} -> 1/(2 sqrt(pi)); n=2 term vanishes so the
        # correction is O(1/x)
        x = 1e4
        val = density_series(0.5, x).value * x ** 1.5
        assert val == pytest.approx(1.0 / TWO_SQRT_PI, rel=1e-3)

    def test_third_matches_macdonald(self):
        # (1/(3 pi x^{3/2})) K_{1/3}(2/(3 sqrt 3) x^{-1/2}) at x = 2
        x = 2.0
        arg = 2.0 / (3.0 * math.sqrt(3.0) * math.sqrt(x))
        ref = special.kv(1.0 / 3.0, arg) / (3.0 * math.pi * x ** 1.5)
        r = density_series(Alpha.from_fraction(1, 3), x)
        assert r.value == pytest.approx(ref, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            density_series(0.5, 0.0)
        with pytest.raises(DomainError):
            density_series(0.5, -1.0)

    def test_unreliable_flag_small_x(self):
        r = density_series(0.9, 0.3)
        assert not r.reliable

    def test_max_terms_exhaustion_marks_unreliable(self):
        r = density_series(0.37, 1.0, SeriesConfig(max_terms=3))
        assert not r.reliable

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.5, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_when_reliable(self, a, x):
        r = density_series(a, x)
        if r.reliable:
            assert r.value >= -r.abs_error_estimate

    def test_extended_precision_pushes_xmin_down(self):
        # alpha=1/2 at x=0.005 is hopeless in doubles (peak term ~ e^55)
        # but fine at 60 digits
        x = 0.005
        assert not density_series(0.5, x).reliable
        r = density_series(0.5, x, SeriesConfig(dps=60, max_terms=600))
        assert r.reliable
        assert r.value == pytest.approx(closed_half(x), rel=1e-8)


class TestDensityJet:
    def test_half_derivatives(self):
        # d/dx log f = 1/(4x^2) - 3/(2x) for the elementary closed form
        x = 1.0
        jet = density_jet(0.5, x)
        f = closed_half(x)
        lp = 0.25 / x ** 2 - 1.5 / x
        lpp = -0.5 / x ** 3 + 1.5 / x ** 2
        assert jet.f.value == pytest.approx(f, rel=1e-11)
        assert jet.fp.value == pytest.approx(f * lp, rel=1e-10)
        assert jet.fp.value == pytest.approx(-0.27461955591732654, rel=1e-9)
        assert jet.fpp.value == pytest.approx(f * (lpp + lp * lp), rel=1e-9)

    def test_theta_combination_half(self):
        x = 1.0
        jet = density_jet(0.5, x)
        f = closed_half(x)
        lp = 0.25 - 1.5
        combo = x * x * jet.fpp.value + x * jet.fp.value
        assert combo == pytest.approx(f * (lp * lp - 0.25), rel=1e-8)

    @pytest.mark.parametrize("a,x", [(0.3, 0.8), (0.5, 2.0), (0.7, 1.3),
                                     (0.6, 10.0)])
    def test_fp_matches_finite_differences(self, a, x):
        h = 1e-4 * x
        cfg = SeriesConfig(rel_tol=1e-14)
        jet = density_jet(a, x, cfg)
        fd = (density_series(a, x + h, cfg).value
              - density_series(a, x - h, cfg).value) / (2.0 * h)
        assert jet.fp.value == pytest.approx(fd, rel=1e-5)

    def test_negative_slope_beyond_mode(self):
        assert density_jet(0.7, 5.0).fp.value < 0.0
        assert density_jet(0.2, 8.0).fp.value < 0.0

    def test_shared_reliability(self):
        jet = density_jet(0.85, 0.4)
        assert jet.f.reliable == jet.fp.reliable == jet.fpp.reliable

    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    def test_tiny_x_matches_grid(self, a):
        # x*x underflows to 0 at 1e-200 but not at 1e-160; the float loop
        # must give the grid path's IEEE inf and nan instead of raising
        xs = np.array([1e-200, 1e-160])
        for grid, ref in _grid_and_scalar(Alpha(a), xs, SeriesConfig()):
            _assert_identical(grid, ref)


GRID_ALPHAS = [Alpha(round(0.1 * i, 10)) for i in range(1, 10)] + [
    Alpha.from_fraction(1, 3), Alpha.from_fraction(2, 3)]


def _stack(results) -> EvalResult:
    """Scalar EvalResults as one EvalResult of arrays."""
    return EvalResult(*(np.array(v) for v in zip(*(
        (r.value, r.abs_error_estimate, r.terms_used, r.reliable)
        for r in results))))


def _grid_and_scalar(alpha, xs, cfg):
    """(array path, float loop) result pairs for the density, the
    survival sum and the three jet components on xs."""
    pts = xs.tolist()
    pairs = [(density_series_grid(alpha, xs, cfg),
              _stack(density_series(alpha, x, cfg) for x in pts)),
             (survival_series_grid(alpha, xs, cfg),
              _stack(survival_series(alpha, x, cfg) for x in pts))]
    jet = density_jet_grid(alpha, xs, cfg)
    jets = [density_jet(alpha, x, cfg) for x in pts]
    for comp in ("f", "fp", "fpp"):
        pairs.append((getattr(jet, comp),
                      _stack(getattr(j, comp) for j in jets)))
    return pairs


def _assert_identical(grid, ref):
    # NaN-aware; equal values and bars imply agreement within the bars
    for field in ("value", "abs_error_estimate", "terms_used", "reliable"):
        np.testing.assert_array_equal(getattr(grid, field),
                                      getattr(ref, field), err_msg=field)


class TestGridPath:
    @pytest.mark.parametrize("alpha", GRID_ALPHAS,
                             ids=lambda a: f"{a.value:.4g}")
    def test_matches_float_loop(self, alpha):
        # from deep below reliable_x_min (overflowing terms, then an
        # exhausted term budget) through the reliable region to 1e4
        x_min = reliable_x_min(alpha)
        xs = np.concatenate([
            np.geomspace(1e-60, x_min * 1e-4, 20, endpoint=False),
            np.geomspace(x_min * 1e-4, 1e4, 160)])
        cfg = SeriesConfig()
        for grid, ref in _grid_and_scalar(alpha, xs, cfg):
            _assert_identical(grid, ref)
            blown = np.isinf(ref.abs_error_estimate)
            assert blown.any()
            assert (~blown & (ref.terms_used == cfg.max_terms)).any()
            assert ref.reliable.any()

    @pytest.mark.parametrize("alpha", [Alpha.from_fraction(1, 2), Alpha(0.7)],
                             ids=["1/2", "0.7"])
    def test_extended_precision_is_pointwise(self, alpha):
        xs = np.geomspace(0.02, 20.0, 6)
        for grid, ref in _grid_and_scalar(alpha, xs, SeriesConfig(dps=30)):
            _assert_identical(grid, ref)

    def test_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            density_series_grid(0.5, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            density_jet_grid(0.5, np.ones((2, 2)))

    def test_empty_grid(self):
        r = survival_series_grid(0.5, np.array([]))
        assert r.value.shape == r.terms_used.shape == (0,)


class TestUnimodalitySignature:
    @pytest.mark.parametrize("a,lo,hi", [(0.6, 0.08, 30.0), (0.3, 0.01, 10.0)])
    def test_single_sign_change_of_fp(self, a, lo, hi):
        grid = np.geomspace(lo, hi, 220)
        signs = []
        for x in grid:
            jet = density_jet(a, float(x))
            if jet.f.reliable:
                signs.append(jet.fp.value > 0.0)
        assert len(signs) >= 200
        changes = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
        assert changes == 1


class TestDensityClosed:
    def test_half_value(self):
        # direct arithmetic on the elementary formula at x = 4
        r = density_closed(0.5, 4.0)
        assert r.value == pytest.approx(math.exp(-1.0 / 16.0) / (TWO_SQRT_PI * 8.0),
                                        rel=1e-12)

    def test_third_value(self):
        r = density_closed(Alpha.from_fraction(1, 3), 1.0)
        ref = special.kv(1.0 / 3.0, 2.0 / (3.0 * math.sqrt(3.0))) / (3.0 * math.pi)
        assert r.value == pytest.approx(ref, rel=1e-9)

    def test_two_thirds_matches_whittaker_oracle(self):
        # sqrt(3/pi)/x exp(-2/(27x^2)) W_{1/2,1/6}(4/(27x^2)) in mpmath
        a = Alpha.from_fraction(2, 3)
        for x in (0.3, 1.7, 9.0):
            with mp.workdps(30):
                z = 4 / (27 * mp.mpf(x) ** 2)
                ref = (mp.sqrt(3 / mp.pi) / x * mp.exp(-z / 2)
                       * mp.whitw(mp.mpf(1) / 2, mp.mpf(1) / 6, z))
            assert density_closed(a, x).value == pytest.approx(float(ref),
                                                               rel=1e-10)

    def test_unsupported(self):
        with pytest.raises(UnsupportedAlphaError):
            density_closed(0.4, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            density_closed(0.5, -2.0)


class TestSurvival:
    def test_half_against_erfc(self):
        # F_{1/2}(x) = erfc(1/(2 sqrt x))
        for x in (0.5, 1.0, 4.0, 25.0):
            s = survival_series(0.5, x)
            assert s.value == pytest.approx(1.0 - math.erfc(0.5 / math.sqrt(x)),
                                            rel=1e-10)

    def test_matches_quadrature(self):
        a = 0.3
        x = 2.0
        tail_to = 5e4
        val, _ = integrate.quad(lambda t: density_series(a, t).value, x, tail_to,
                                limit=300)
        ref = val + survival_series(a, tail_to).value
        assert survival_series(a, x).value == pytest.approx(ref, rel=1e-7)


class TestTailCoefficient:
    def test_half(self):
        assert tail_coefficient(0.5) == pytest.approx(0.5 / math.sqrt(math.pi),
                                                      rel=1e-12)

    def test_third(self):
        assert tail_coefficient(1.0 / 3.0) == pytest.approx(
            (1.0 / 3.0) / math.gamma(2.0 / 3.0), rel=1e-12)

    def test_vanishes_at_zero(self):
        assert tail_coefficient(1e-6) == pytest.approx(0.0, abs=1e-5)


class TestLaplace:
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
    def test_normalization(self, a):
        assert laplace_check(a, 0.0) < 1e-6

    def test_half_unit_lambda(self):
        assert laplace_check(0.5, 1.0) < 1e-6

    def test_heavier_case(self):
        assert laplace_check(0.7, 2.0) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_check(0.5, -1.0)


def test_reliable_x_min_monotone_in_alpha():
    # heavier cancellation for larger alpha pushes the boundary up
    xs = [reliable_x_min(as_alpha(a)) for a in (0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(xs, xs[1:]))
