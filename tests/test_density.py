import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from stable_msu import density as density_mod
from stable_msu.density import (Alpha, EvalResult, SeriesConfig, as_alpha,
                                density_closed, density_jet, density_jet_grid,
                                density_series, density_series_grid,
                                laplace_check, reliable_x_min,
                                survival_series, survival_series_grid,
                                tail_coefficient)
from stable_msu.errors import DomainError, UnsupportedAlphaError
from test_specfun import spy_de_halfline

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

    @pytest.mark.parametrize("op", [density_series, density_jet,
                                    survival_series])
    def test_nan_rejected(self, op):
        # nan used to pass the x <= 0 check and return nan with error 0
        with pytest.raises(DomainError):
            op(0.5, math.nan)

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
        for op in (density_series_grid, density_jet_grid,
                   survival_series_grid):
            with pytest.raises(DomainError):
                op(0.5, np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            density_jet_grid(0.5, np.ones((2, 2)))

    def test_empty_grid(self):
        r = survival_series_grid(0.5, np.array([]))
        assert r.value.shape == r.terms_used.shape == (0,)


class TestExpPremise:
    def test_numpy_exp_bits_do_not_depend_on_position(self):
        # The float loop exponentiates 32 terms of one point at a time and
        # the grid loop whole blocks of terms and points; both are
        # bit-identical only if numpy's exp gives an argument the same
        # bits wherever it sits in a contiguous array.
        x = np.random.default_rng(20240813).uniform(-745.0, 700.0, 100_000)
        whole = np.exp(x)
        singles = np.array([np.exp(x[i:i + 1])[0]
                            for i in range(1, x.size, 2)])
        chunks = np.concatenate([np.exp(x[i:i + 32])
                                 for i in range(1, x.size - 32, 32)])
        message = ("numpy's exp gives different bits for the same argument "
                   "depending on array length or offset; the float and grid "
                   "series loops of stable_msu.density cannot agree bit for "
                   "bit on this platform")
        assert np.array_equal(singles.view(np.int64),
                              whole[1::2].view(np.int64)), message
        assert np.array_equal(chunks.view(np.int64),
                              whole[1:1 + chunks.size].view(np.int64)), message

    # The quadrature's first integrand call covers the nodes of levels
    # 0..5 at once, and its results equal those of one call per level
    # only if the other ufuncs its integrands call give an argument the
    # same bits at any position and in any array length, too.
    @pytest.mark.parametrize("name,lo,hi", [
        ("log", -700.0, 700.0), ("log1p", -700.0, 700.0),
        ("cosh", -710.0, 710.0)])
    def test_other_ufunc_bits_do_not_depend_on_position(self, name, lo, hi):
        ufunc = getattr(np, name)
        u = np.random.default_rng(20240814).uniform(lo, hi, 100_000)
        # log and log1p over positive arguments from e^-700 to e^700
        x = u if name == "cosh" else np.exp(u)
        whole = ufunc(x)
        singles = np.array([ufunc(x[i:i + 1])[0]
                            for i in range(1, x.size, 2)])
        chunks = np.concatenate([ufunc(x[i:i + 13])
                                 for i in range(1, x.size - 13, 13)])
        message = (f"numpy's {name} gives different bits for the same "
                   "argument depending on array length or offset; the "
                   "batched first call of stable_msu.quadrature cannot "
                   "reproduce one call per level on this platform")
        assert np.array_equal(singles.view(np.int64),
                              whole[1::2].view(np.int64)), message
        assert np.array_equal(chunks.view(np.int64),
                              whole[1:1 + chunks.size].view(np.int64)), message


ENGINE_ALPHAS = [Alpha.from_fraction(1, 2), Alpha.from_fraction(1, 3),
                 Alpha.from_fraction(2, 3), Alpha(0.9)]


def _engine_grid(alpha):
    """Points that overflow at every early n, exhaust small budgets and
    converge after 5 to a few hundred terms."""
    x_min = reliable_x_min(alpha)
    return np.concatenate([
        np.geomspace(1e-250, x_min * 1e-3, 40, endpoint=False),
        np.geomspace(x_min * 1e-3, 1e8, 120)])


def _same_sums(a, b):
    for name, u, v in zip(("totals", "errors", "flags", "terms", "converged"),
                          a, b):
        np.testing.assert_array_equal(u, v, err_msg=name)


class TestBlockedEngine:
    # The grid loop takes 8, 16, 32, ... terms per block, fewer for wide
    # grids; these budgets stop columns inside the first block (4), just
    # past its edge (9), past the second (33) and by convergence or
    # overflow alone (2000).  1/2, 1/3 and 2/3 have zero coefficients.
    @pytest.mark.parametrize("max_terms", [4, 9, 33, 2000])
    @pytest.mark.parametrize("alpha", ENGINE_ALPHAS,
                             ids=lambda a: f"{a.value:.4g}")
    def test_slices_and_float_loop_match_whole_grid(self, alpha, max_terms):
        xs = _engine_grid(alpha)
        cfg = SeriesConfig(max_terms=max_terms)
        for order, survival in ((0, False), (0, True), (2, False)):
            whole = density_mod._hp_sums_grid(alpha, xs, cfg, order, survival)
            for size in (1, 7):
                parts = [density_mod._hp_sums_grid(alpha, xs[i:i + size], cfg,
                                                   order, survival)
                         for i in range(0, xs.size, size)]
                _same_sums(whole, [np.concatenate([p[f] for p in parts],
                                                  axis=-1) for f in range(5)])
            loop = [density_mod._hp_sums(alpha, x, cfg, order, survival)
                    for x in xs.tolist()]
            _same_sums(whole, [np.array([c[0] for c in loop]).T,
                               np.array([c[1] for c in loop]).T,
                               np.array([c[2] for c in loop]).T,
                               np.array([c[3] for c in loop]),
                               np.array([c[4] for c in loop])])
            blown = np.isinf(whole[1][0])
            budget = ~blown & ~whole[4]
            assert blown.any()
            assert budget.any() or max_terms == 2000
            assert whole[4].any() or max_terms == 4

    def test_stops_on_both_sides_of_the_first_block_edge(self):
        # the first block holds terms 1..8 for any grid of this size
        alpha = Alpha(0.9)
        totals, errors, flags, n, converged = density_mod._hp_sums_grid(
            alpha, _engine_grid(alpha), SeriesConfig(), order=2)
        blown = np.isinf(errors[0])
        for edge in (8, 9):
            assert (blown & (n == edge)).any()
            assert (converged & (n == edge)).any()


class TestSeriesOrders:
    # the engines sum the density (order 0), its jet (order 2) or the
    # integrated tail (order 0 only)
    @pytest.mark.parametrize("engine", [
        lambda order, survival: density_mod._hp_sums(
            Alpha(0.5), 1.0, SeriesConfig(), order, survival),
        lambda order, survival: density_mod._hp_sums_grid(
            Alpha(0.5), np.array([0.5, 1.0]), SeriesConfig(), order,
            survival)], ids=["float-loop", "grid"])
    def test_unsupported_orders_raise(self, engine):
        for order, survival in ((1, False), (3, False), (-1, False),
                                (2, True), (1, True)):
            with pytest.raises(ValueError, match="order"):
                engine(order, survival)
        for order, survival in ((0, False), (2, False), (0, True)):
            assert len(engine(order, survival)[0]) == order + 1


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

    @pytest.mark.parametrize("xs", [
        np.geomspace(1e-3, 1e3, 200),
        # exp(-1/(4x)) is subnormal here, or 0 below 3.36e-4
        np.geomspace(3.2e-4, 3.6e-4, 20)])
    def test_half_bar_covers_mpmath(self, xs):
        # reliable => |value - f| <= bar against 40-digit mpmath; the old
        # bar of 4 eps v missed at 36 of the first 200 points, since
        # 1/(4x) is rounded before exp
        for x in xs.tolist():
            r = density_closed(0.5, x)
            with mp.workdps(40):
                xm = mp.mpf(x)
                ref = mp.exp(-1 / (4 * xm)) / (2 * mp.sqrt(mp.pi) * xm ** 1.5)
                err = abs(mp.mpf(r.value) - ref)
            assert r.reliable and err <= r.abs_error_estimate, x

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

    @pytest.mark.parametrize("p,n", [(1, 3), (2, 3)])
    @pytest.mark.parametrize("cap", [None, 1])
    def test_kernel_levels_and_convergence(self, monkeypatch, p, n, cap):
        # the kernel forms used to report terms_used=1 and reliable=True
        # whatever the kernel did; two DE levels cannot agree to 1e-12
        levels = spy_de_halfline(monkeypatch, cap)
        r = density_closed(Alpha.from_fraction(p, n), 1.0)
        assert len(levels) == 1 and r.terms_used == levels[0]
        assert r.reliable is (cap is None)

    def test_unsupported(self):
        with pytest.raises(UnsupportedAlphaError):
            density_closed(0.4, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            density_closed(0.5, -2.0)

    @pytest.mark.parametrize("p,n", [(1, 2), (1, 3), (2, 3)])
    def test_nan_rejected(self, p, n):
        # 1/2 and 1/3 used to return nan flagged reliable
        with pytest.raises(DomainError):
            density_closed(Alpha.from_fraction(p, n), math.nan)


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

    @pytest.mark.parametrize("a", [0.95, 0.99])
    def test_normalization_near_one(self, a):
        # the density climbs steeply just above x_m; one rule over the
        # whole first decade reads 3e-10 and 7e-9 here
        assert laplace_check(a, 0.0) < 1e-10

    def test_half_unit_lambda(self):
        assert laplace_check(0.5, 1.0) < 1e-6

    def test_heavier_case(self):
        assert laplace_check(0.7, 2.0) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_check(0.5, -1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda(self, lam):
        # nan used to raise IndexError and inf to return nan
        with pytest.raises(DomainError):
            laplace_check(0.5, lam)

    @pytest.mark.parametrize("lam", [5e-324, 1e-310, 3e-307])
    def test_too_small_lambda(self, lam):
        # 50/lam, or the last piece's midpoint, overflowed: the value was nan
        with pytest.raises(DomainError, match="too small"):
            laplace_check(0.5, lam)

    def test_smallest_accepted_lambda(self):
        lam = 100.0 / sys.float_info.max
        while not 100.0 / lam < math.inf:
            lam = math.nextafter(lam, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert laplace_check(0.5, lam) < 1e-6

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_decade_rule_against_mpmath(self, lam):
        # the middle piece's rule, on the edges laplace_check picks (whole
        # pieces of the lambda = 0 ladder up to the first end at or past
        # the cutoff), applied to the alpha = 1/2 closed form times
        # e^{-lam t}
        alpha = as_alpha(0.5)
        edges = _middle_edges(alpha, lam)
        assert edges[0] == reliable_x_min(alpha)
        if lam > 0.0:
            x_hi = max(50.0 / lam, 4.0 * edges[0], 10.0)
            assert edges[-2] < x_hi <= edges[-1]
        ts, ws = density_mod._rule(edges[:-1], edges[1:])
        assert ts.shape == ws.shape == (64 * (len(edges) - 1),)
        got = float(np.dot(ws, [closed_half(t) * math.exp(-lam * t)
                                for t in ts.tolist()]))
        with mp.workdps(30):
            ref = mp.quad(lambda t: mp.exp(-1 / (4 * t) - lam * t)
                          / (2 * mp.sqrt(mp.pi) * t ** 1.5), list(edges))
        assert got == pytest.approx(float(ref), rel=1e-12)


def test_reliable_x_min_monotone_in_alpha():
    # heavier cancellation for larger alpha pushes the boundary up
    xs = [reliable_x_min(as_alpha(a)) for a in (0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize("alpha,density_hex,survival_hex", [
    (Alpha(0.3), "0x1.7b5f3bd47735ep-11", "0x1.801ae10ea9712p-14"),
    (Alpha(0.5), "0x1.a0f148c75ef27p-6", "0x1.63b6a11e15d23p-7"),
    (Alpha(0.7), "0x1.3b7860bdb1d32p-3", "0x1.b873fb7fc6581p-4"),
    (Alpha(0.9), "0x1.20416ebd1a0d9p-1", "0x1.18014c5de46b2p-1"),
    (Alpha.from_fraction(1, 3), "0x1.b01a3d8208bddp-10",
     "0x1.2e886efac1e01p-12"),
])
def test_reliable_x_min_pinned(alpha, density_hex, survival_hex):
    # the bounds of every Laplace ladder and CDF grid: a change in their
    # bits moves those values
    assert reliable_x_min(alpha).hex() == density_hex
    assert reliable_x_min(alpha, survival=True).hex() == survival_hex


LAPLACE_ALPHAS = [Alpha(v) for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                     0.9, 0.95, 0.99)] + [
    Alpha.from_fraction(1, 3), Alpha.from_fraction(2, 3)]
# 1e-6 and 1e-3 put the cutoff 50/lam past the lambda = 0 ladder
LAPLACE_LAMBDAS = (0.0, 1e-6, 1e-3, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def _ladder(alpha):
    """The lambda = 0 ladder's edges, from x_m to the first cutoff whose
    survival is at most 1e-3, as laplace_check builds them."""
    x_m = density_mod.reliable_x_min(alpha)
    x_hi = max(10.0, 4.0 * x_m)
    while survival_series(alpha, x_hi).value > 1e-3 and x_hi < 1e15:
        x_hi *= 10.0
    return density_mod._decade_edges(x_m, x_hi)


def _middle_edges(alpha, lam):
    """The edges of laplace_check's middle piece: the whole ladder at
    lambda = 0; for lambda > 0 its pieces up to the first that ends at
    or past the cutoff, or, for a cutoff past the ladder, the decades up
    to the cutoff with the last one clipped there."""
    ladder = _ladder(alpha)
    if lam == 0.0:
        return ladder
    x_hi = max(50.0 / lam, 4.0 * ladder[0], 10.0)
    if x_hi > ladder[-1]:
        return density_mod._decade_edges(ladder[0], x_hi)
    return ladder[:next(i for i, e in enumerate(ladder) if e >= x_hi) + 1]


def _assembly(alpha, lam, edges):
    """laplace_check assembled from the public pieces for this lambda
    alone, with the middle piece on ``edges``: every survival value at
    x_s, x_m and the last edge from the float loop, and fresh grid calls
    over the left rule and the whole middle piece."""
    a = alpha.value
    x_m = edges[0]
    x_s = min(density_mod.reliable_x_min(alpha, survival=True), x_m)

    def surv(t):
        return survival_series(alpha, t).value

    ts, ws = density_mod._rule(edges[:-1], edges[1:])
    fs = density_series_grid(alpha, ts).value
    mid = float(np.dot(ws, np.exp(-lam * ts) * fs))
    if lam == 0.0:
        return abs(1.0 - surv(x_m) + mid + surv(edges[-1]) - 1.0)
    inner = 0.0
    if x_s < x_m:
        ts, ws = density_mod._rule([x_s], [x_m])
        s_nodes = survival_series_grid(alpha, ts).value
        inner += float(np.dot(ws, np.exp(-lam * ts) * (1.0 - s_nodes)))
    inner += 0.5 * x_s * math.exp(-lam * x_s) * (1.0 - surv(x_s))
    left = math.exp(-lam * x_m) * (1.0 - surv(x_m)) + lam * inner
    tail = math.exp(-lam * edges[-1]) * surv(edges[-1])
    return abs(left + mid + tail - math.exp(-lam ** a))


def _laplace_reference(alpha, lam):
    """laplace_check's value, assembled on the edges it picks."""
    return _assembly(alpha, lam, _middle_edges(alpha, lam))


def _clipped_reference(alpha, lam):
    """The earlier assembly for lambda > 0: the ladder's decades up to the
    cutoff max(50/lam, 4 x_m, 10) with the last one clipped there,
    whether or not the ladder reaches the cutoff."""
    if lam == 0.0:
        return _laplace_reference(alpha, lam)
    x_m = density_mod.reliable_x_min(alpha)
    return _assembly(alpha, lam, density_mod._decade_edges(
        x_m, max(50.0 / lam, 4.0 * x_m, 10.0)))


@pytest.fixture
def fresh_records():
    """An empty cache of laplace_check's lambda-free records, emptied
    again afterwards so no record built under a monkeypatch outlives the
    test."""
    density_mod._lambda_free.cache_clear()
    yield density_mod._lambda_free
    density_mod._lambda_free.cache_clear()


def _count_calls(monkeypatch, *names):
    """Record the name of every call laplace_check makes from here on to
    the density module's functions ``names``."""
    calls = []
    for name in names:
        real = getattr(density_mod, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(density_mod, name, counting)
    return calls


class TestLaplaceLeftPiece:
    # the ids name the default series config, the only one laplace_check
    # runs at
    @pytest.mark.parametrize("alpha", LAPLACE_ALPHAS,
                             ids=lambda a: f"{a.value:.4g}-default")
    def test_matches_reference_assembly(self, alpha):
        for lam in LAPLACE_LAMBDAS:
            got = laplace_check(alpha, lam)
            ref = _laplace_reference(alpha, lam)
            assert got.hex() == ref.hex(), lam

    def test_empty_left_rule(self, monkeypatch, fresh_records):
        # x_s = x_m leaves no rule between them; the reference then skips
        # that integral as laplace_check's empty rule does
        real = density_mod.reliable_x_min
        monkeypatch.setattr(density_mod, "reliable_x_min",
                            lambda alpha, survival=False: real(alpha))
        alpha = Alpha(0.6)
        for lam in LAPLACE_LAMBDAS:
            assert (laplace_check(alpha, lam).hex()
                    == _laplace_reference(alpha, lam).hex()), lam
        rec = fresh_records(alpha)
        assert rec.x_s == rec.x_m and rec.left_nodes.size == 0

    def test_one_left_grid_per_alpha(self, monkeypatch, fresh_records):
        calls = []
        real = density_mod.survival_series_grid

        def counting(alpha, xs):
            calls.append(alpha)
            return real(alpha, xs)

        monkeypatch.setattr(density_mod, "survival_series_grid", counting)
        for a in (0.3, 0.7):
            for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 1.0):
                laplace_check(a, lam)
        assert calls == [Alpha(0.3), Alpha(0.7)]
        assert fresh_records.cache_info().currsize == 2
        rec = fresh_records(Alpha(0.3))
        for field in ("left_nodes", "left_weights", "left_f"):
            arr = getattr(rec, field)
            with pytest.raises(ValueError):
                arr[0] = 1.0


def _count_density_grid_points(monkeypatch):
    """Record the size of every density_series_grid call laplace_check
    makes from here on."""
    sizes = []
    real = density_mod.density_series_grid

    def counting(alpha, xs):
        sizes.append(len(xs))
        return real(alpha, xs)

    monkeypatch.setattr(density_mod, "density_series_grid", counting)
    return sizes


class TestLaplaceDecades:
    @pytest.mark.parametrize("a", [0.3, 0.7])
    def test_warm_decades_leave_the_last_piece(self, monkeypatch,
                                               fresh_records, a):
        sizes = _count_density_grid_points(monkeypatch)
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0):
            laplace_check(a, lam)
        # one grid call over every piece of the lambda = 0 ladder; each
        # lambda > 0 here has its cutoff inside the ladder and takes whole
        # pieces of it, last piece included, with no grid call
        rec = fresh_records(Alpha(a))
        assert rec.nodes.size == 64 * len(rec.ends) > 0
        assert sizes == [rec.nodes.size]
        sizes.clear()
        for lam in (0.5, 1.0, 2.0, 4.0):
            laplace_check(a, lam)
        assert sizes == []

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.9])
    def test_warm_lambda_in_the_ladder_makes_no_series_call(
            self, monkeypatch, fresh_records, a):
        lams = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        alpha = Alpha(a)
        laplace_check(alpha, 0.0)
        # the smallest lambda's cutoff 200 lies inside the ladder
        assert fresh_records(alpha).ends[-1] >= 200.0
        calls = _count_calls(monkeypatch, "density_series_grid",
                             "survival_series", "survival_series_grid",
                             "_hp_sums")
        got = [laplace_check(alpha, lam) for lam in lams]
        assert calls == []
        monkeypatch.undo()
        assert ([g.hex() for g in got]
                == [_laplace_reference(alpha, lam).hex() for lam in lams])

    @pytest.mark.parametrize("alpha", LAPLACE_ALPHAS,
                             ids=lambda a: f"{a.value:.4g}-default")
    def test_whole_pieces_match_the_clipped_rule(self, alpha):
        # taking the ladder's piece whole past the cutoff 50/lam moves
        # the value by rounding only: the stretch weighs at most e^{-50}
        for lam in LAPLACE_LAMBDAS:
            assert abs(laplace_check(alpha, lam)
                       - _clipped_reference(alpha, lam)) <= 1e-14, lam

    def test_cached_and_fresh_pieces_match_one_grid_call(self, monkeypatch,
                                                         fresh_records):
        # x_m raised above 1 so that a cutoff below 10 x_m falls in the
        # first decade; at alpha = 0.99 the ladder itself is clipped
        # (S(20) < 1e-3) and holds no full decade
        real = density_mod.reliable_x_min
        for a, x_m in ((0.9, 2.5), (0.99, 5.0)):
            monkeypatch.setattr(
                density_mod, "reliable_x_min",
                lambda alpha, survival=False, x_m=x_m:
                    real(alpha, True) if survival else x_m)
            alpha = Alpha(a)
            for lam in (8.0, 1.0, 1e-3, 0.1, 1e-6, 0.0):
                # a lambda > 0 first, so that it builds the record
                assert (laplace_check(alpha, lam).hex()
                        == _laplace_reference(alpha, lam).hex()), lam
            rec = fresh_records(alpha)
            # lambda = 8 cuts off at 10, inside the ladder's first decade,
            # which it takes whole; 1e-3 and 1e-6 cut off past the ladder,
            # and the reference clips their last decade at the cutoff
            assert _middle_edges(alpha, 8.0)[-1] == min(10.0 * x_m,
                                                        rec.ends[-1])
            for lam in (1e-3, 1e-6):
                assert _middle_edges(alpha, lam)[-1] == 50.0 / lam

    def test_cached_arrays_read_only(self, fresh_records):
        alpha = Alpha(0.5)
        laplace_check(alpha, 0.5)
        rec = fresh_records(alpha)
        assert rec.nodes.size == rec.weights.size == rec.f.size \
            == 64 * len(rec.ends) == 64 * len(rec.s_ends)
        # the survival grid call's values at the piece ends are the
        # float loop's
        assert rec.s_ends == tuple(survival_series(alpha, e).value
                                   for e in rec.ends)
        assert rec.left_nodes.size == rec.left_weights.size \
            == rec.left_f.size == 64
        for field in ("left_nodes", "left_weights", "left_f",
                      "nodes", "weights", "f"):
            arr = getattr(rec, field)
            assert arr.base is None, field
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestLegendre64:
    def test_matches_leggauss(self):
        t, w = np.polynomial.legendre.leggauss(64)
        for got, ref in ((density_mod._GL64_NODES, t),
                         (density_mod._GL64_WEIGHTS, w)):
            assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(np.abs(ref)))

    def test_symmetric(self):
        t, w = density_mod._GL64_NODES, density_mod._GL64_WEIGHTS
        assert t.size == w.size == 64
        assert np.all(t[1:] > t[:-1]) and t[32] > 0.0
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])

    def test_weights_sum_to_two(self):
        assert math.fsum(density_mod._GL64_WEIGHTS.tolist()) == 2.0

    def test_read_only(self):
        for arr in (density_mod._GL64_NODES, density_mod._GL64_WEIGHTS):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestLaplaceRecord:
    def test_one_grid_call_of_each_kind(self, monkeypatch, fresh_records):
        calls = _count_calls(monkeypatch, "density_series_grid",
                             "survival_series_grid")
        fresh_records(Alpha(0.4))
        assert calls == ["survival_series_grid", "density_series_grid"]

    @pytest.mark.parametrize("first", [0.0, 1.0])
    def test_warm_zero_makes_no_series_call(self, monkeypatch, fresh_records,
                                            first):
        # whichever lambda builds the record, lambda = 0 then reads it
        alpha = Alpha(0.4)
        laplace_check(alpha, first)
        calls = _count_calls(monkeypatch, "density_series_grid",
                             "survival_series", "survival_series_grid")
        got = laplace_check(alpha, 0.0)
        assert calls == []
        assert got.hex() == _laplace_reference(alpha, 0.0).hex()

    def test_threads_match_serial(self, fresh_records):
        cases = [(Alpha(a), lam) for a in (0.3, 0.5, 0.7, 0.9)
                 for lam in (0.0, 1e-3, 0.5, 2.0)]
        serial = [laplace_check(a, lam).hex() for a, lam in cases]
        fresh_records.cache_clear()

        def run(shift):
            order = cases[shift:] + cases[:shift]
            got = {case: laplace_check(*case).hex() for case in order}
            return [got[case] for case in cases]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(run, 4 * k) for k in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial] * 4
        assert fresh_records.cache_info().currsize == 4
