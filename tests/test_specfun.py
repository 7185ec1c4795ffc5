import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from stable_msu import quadrature, specfun
from stable_msu.errors import DomainError, PoleError
from stable_msu.factorizations import lemma1_g, lemma2_product
from stable_msu.specfun import (bessel_k, log_gamma, psi_chf,
                                whittaker_w_stable)
from stable_msu.verify import DEFAULT_ACCEPTANCE_CONFIG

GAMMA_SIXTH = math.gamma(1.0 / 6.0)
GAMMA_THIRD = math.gamma(1.0 / 3.0)


class TestLogGamma:
    def test_at_one(self):
        ev, sign = log_gamma(1.0)
        assert ev.value == pytest.approx(0.0, abs=1e-14)
        assert sign == 1

    def test_at_half(self):
        ev, sign = log_gamma(0.5)
        assert ev.value == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
        assert sign == 1

    def test_reflection_point(self):
        # Gamma(-0.6) = Gamma(0.4)/(-0.6), oracle via math.gamma
        ev, sign = log_gamma(-0.6)
        assert sign == -1
        assert math.exp(ev.value) == pytest.approx(math.gamma(0.4) / 0.6,
                                                   rel=1e-12)

    @pytest.mark.parametrize("x", [0.05, 0.31, 1.0, 2.5, 7.0, 33.3, 171.0,
                                   -0.2, -1.7, -4.3, -9.99])
    def test_against_stdlib(self, x):
        ev, sign = log_gamma(x)
        assert ev.value == pytest.approx(math.lgamma(x), rel=1e-12)
        assert sign == special.gammasgn(x)
        assert (ev.terms_used, ev.reliable) == (1, True)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            log_gamma(x)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=25, deadline=None)
    def test_reflection_sign_pattern(self, x):
        assert log_gamma(-x)[1] == -1
        assert log_gamma(-1.0 - x)[1] == 1

    def test_overflow_raises_domain_error(self):
        # log|Gamma(x)| passes the largest double near x = 2.56e305
        assert math.isfinite(log_gamma(2.5e305)[0].value)
        with pytest.raises(DomainError):
            log_gamma(1e306)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_domain_error(self, x):
        # nan and inf used to reach the caller as the ValueError of the
        # result record's own check, -inf as an OverflowError from
        # math.floor
        with pytest.raises(DomainError):
            log_gamma(x)


def _lgamma_worst(xs):
    """(worst ratio, x) of |math.lgamma(x) - log|Gamma(x)|| to the bar
    5e-15 (1 + |log|Gamma(x)||) over xs, against 30-digit mpmath."""
    worst = []
    with mp.workdps(30):
        for x in xs:
            ref = mp.log(abs(mp.gamma(mp.mpf(x))))
            err = abs(mp.mpf(math.lgamma(x)) - ref)
            worst.append((float(err / (5e-15 * (1 + abs(ref)))), x))
    return max(worst)


class TestZetaTable:
    def test_against_mpmath(self):
        # the table through k = 53, and 1.0 from k = 54 on, are zeta(k)
        # correctly rounded
        with mp.workdps(30):
            ref = [float(mp.zeta(k)) for k in range(2, 81)]
        assert [specfun._zeta(k) for k in range(2, 81)] == ref


class TestLgammaPremise:
    """The package takes every double-precision Gamma from ``math.lgamma``
    and ``math.gamma``; log_gamma's bar 5e-15 (1 + |v|) and the series
    coefficients assume that lgamma is that accurate."""

    ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99,
              1.0 / 3.0, 2.0 / 3.0)

    @staticmethod
    def _assert_premise(xs, where):
        ratio, x = _lgamma_worst(xs)
        assert ratio <= 1.0, (
            f"premise broken: math.lgamma misses log|Gamma| on {where} at "
            f"x = {x!r} by {ratio:.3g} times the bar 5e-15 (1 + |v|)")

    def test_series_coefficient_arguments(self):
        # the series engines take log Gamma(1 + alpha n) - log n! per term
        xs = {n + 1.0 for n in range(401)}
        xs.update(1.0 + a * n for a in self.ALPHAS for n in range(401))
        self._assert_premise(sorted(xs), "the series coefficients 1+an, n+1")

    def test_lemma2_mellin_arguments(self):
        # every argument check 06 hands to Factor.log_mellin, and its
        # right-hand side Gamma(ns + 1) / Gamma(ps + 1)
        entry, = (c for c in DEFAULT_ACCEPTANCE_CONFIG["checks"]
                  if c["kind"] == "lemma2_mellin")
        xs = set()
        for p, n in entry["pairs"]:
            for s in map(float, entry["s_values"]):
                xs.update((n * s + 1.0, p * s + 1.0))
                for f in lemma2_product(p, n).factors:
                    if f.kind == "beta":
                        a, b = f.params
                        xs.update((s + a, a + b, s + a + b, a))
                    else:
                        c, = f.params
                        xs.update((s + c, c))
        self._assert_premise(sorted(xs), "check 06's Mellin arguments")

    def test_negative_arguments(self):
        xs = [-k + d for k in range(1, 21)
              for d in (-1e-6, -1e-9, 1e-9, 1e-6)]
        rng = np.random.default_rng(20261018)
        xs += rng.uniform(-30.0, 0.5, 2000).tolist()
        self._assert_premise(xs, "negative x near the poles and on (-30, 0.5)")


def spy_de_halfline(monkeypatch, cap=None):
    """Route specfun's DE calls through de_halfline, at max_level cap if
    one is given; returns the list that collects each call's levels."""
    levels = []

    def spy(f, rel_tol=1e-10, max_level=10):
        res = quadrature.de_halfline(
            f, rel_tol=rel_tol, max_level=max_level if cap is None else cap)
        levels.append(res.levels)
        return res

    monkeypatch.setattr(specfun, "de_halfline", spy)
    return levels


KERNELS = {
    "bessel_k": lambda: bessel_k(1.0 / 3.0, 0.7),
    "psi_chf": lambda: psi_chf(1.0 / 6.0, 4.0 / 3.0, 0.7),
    "whittaker_w_stable": lambda: whittaker_w_stable(0.7),
    "lemma1_g": lambda: lemma1_g(0.4, 0.6, 0.9, 1, 0.7),
}


class TestKernelRecord:
    """Each DE kernel reports the levels its row took as terms_used, and
    whether the row met its tolerance as reliable."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_converged(self, monkeypatch, name):
        levels = spy_de_halfline(monkeypatch)
        ev = KERNELS[name]()
        assert len(levels) == 1 and levels[0] > 1
        assert (ev.terms_used, ev.reliable) == (levels[0], True)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_stopped_at_max_level(self, monkeypatch, name):
        # two levels cannot agree to 1e-10
        levels = spy_de_halfline(monkeypatch, cap=1)
        ev = KERNELS[name]()
        assert levels == [1]
        assert (ev.terms_used, ev.reliable) == (1, False)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        ev = bessel_k(0.5, 1.0)
        assert ev.value == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0),
                                         rel=1e-10)

    @pytest.mark.parametrize("nu,x", [(1.0 / 3.0, 0.09), (1.0 / 3.0, 1.0),
                                      (1.0 / 3.0, 8.0), (0.0, 2.0), (2.7, 0.5)])
    def test_against_scipy(self, nu, x):
        ev = bessel_k(nu, x)
        ref = special.kv(nu, x)
        assert ev.value == pytest.approx(ref, rel=1e-9)
        assert abs(ev.value - ref) <= max(20.0 * ev.abs_error_estimate,
                                          1e-12 * ref)

    def test_ode_residual(self):
        # x^2 K'' + x K' - (x^2 + 1/9) K = 0, derivatives by central
        # differences on tight-tolerance quadrature values
        x, h = 1.0, 1e-3
        k = lambda t: bessel_k(1.0 / 3.0, t, rel_tol=1e-13).value
        km, k0, kp = k(x - h), k(x), k(x + h)
        d1 = (kp - km) / (2.0 * h)
        d2 = (kp - 2.0 * k0 + km) / (h * h)
        residual = x * x * d2 + x * d1 - (x * x + 1.0 / 9.0) * k0
        assert abs(residual) < 1e-6

    def test_turan_inequality(self):
        # (x^2 + 1/9) K^2 <= x^2 (K')^2 with K' = -(K_{2/3} + K_{4/3})/2
        x = 1.0
        k = bessel_k(1.0 / 3.0, x, rel_tol=1e-12).value
        kp = -0.5 * (bessel_k(2.0 / 3.0, x, rel_tol=1e-12).value
                     + bessel_k(4.0 / 3.0, x, rel_tol=1e-12).value)
        assert (x * x + 1.0 / 9.0) * k * k <= x * x * kp * kp

    def test_decreasing_in_x(self):
        vals = [bessel_k(1.0 / 3.0, x).value for x in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(1.0 / 3.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1.0 / 3.0, -1.0)
        # nan used to return 0.0 +- 0.0
        with pytest.raises(DomainError):
            bessel_k(1.0 / 3.0, math.nan)
        with pytest.raises(DomainError):
            bessel_k(math.nan, 1.0)

    @pytest.mark.parametrize("nu,x", [(200.0, 1e-3), (160.0, 1.0)])
    def test_overflow_raises(self, nu, x):
        # K_200(1e-3) = 3.17e1032 and K_160(1) = 3.4e308 are out of
        # double range; the integrand overflows at the nodes near its peak
        with pytest.raises(DomainError,
                           match=rf"bessel_k\({nu}, {x}\) overflows"):
            bessel_k(nu, x)

    def test_largest_orders_still_evaluate(self):
        # the integrand peaks near e^705, just inside double range
        assert bessel_k(150.0, 1.0).value == pytest.approx(
            2.7135812385643e305, rel=1e-13)

    @pytest.mark.parametrize("nu", [50.0, 150.0])
    @pytest.mark.parametrize("x", [1e-3, 1.0])
    def test_high_orders_against_mpmath(self, nu, x):
        # the scale sits inside the exponent, so K evaluates wherever it
        # is a double; K_150(1e-3) = 2.7e755 is not, and raises
        with mp.workdps(30):
            ref = mp.besselk(nu, x)
        if ref > mp.mpf(1.7976931348623157e308):
            with pytest.raises(DomainError, match="overflows"):
                bessel_k(nu, x)
        else:
            assert bessel_k(nu, x).value == pytest.approx(float(ref),
                                                          rel=1e-10)

    def test_infinite_x_is_zero_without_quadrature(self, monkeypatch):
        # (2x)^nu e^{-x} would be inf * 0 = nan inside the exponent
        monkeypatch.setattr(specfun, "de_halfline", None)
        for nu in (0.0, 1.0 / 3.0, 2.5):
            ev = bessel_k(nu, math.inf)
            assert (ev.value, ev.abs_error_estimate) == (0.0, 0.0)

    def test_infinite_order_raises(self):
        with pytest.raises(DomainError):
            bessel_k(math.inf, 1.0)


class TestPsi:
    def test_family_ordering_at_one(self):
        u1 = psi_chf(1 / 6, 1 / 3, 1.0).value
        u4 = psi_chf(1 / 6, 4 / 3, 1.0).value
        u7 = psi_chf(1 / 6, 7 / 3, 1.0).value
        assert u7 >= u4 >= u1 > 0.0

    def test_small_x_scaling_u4(self):
        # x^{1/3} Psi(1/6, 4/3, x) -> Gamma(1/3)/Gamma(1/6), O(x^{1/3}) rate
        x = 1e-8
        val = psi_chf(1 / 6, 4 / 3, x).value * x ** (1.0 / 3.0)
        assert val == pytest.approx(GAMMA_THIRD / GAMMA_SIXTH, rel=1e-2)

    def test_small_x_scaling_u7(self):
        x = 1e-8
        val = psi_chf(1 / 6, 7 / 3, x).value * x ** (4.0 / 3.0)
        assert val == pytest.approx(math.gamma(4.0 / 3.0) / GAMMA_SIXTH,
                                    rel=1e-2)

    def test_small_x_limit_u1(self):
        val = psi_chf(1 / 6, 1 / 3, 1e-8).value
        assert val == pytest.approx(math.gamma(2.0 / 3.0) / math.gamma(5.0 / 6.0),
                                    rel=1e-2)

    def test_decreasing_in_x_increasing_in_c(self):
        assert psi_chf(1 / 6, 4 / 3, 2.0).value < psi_chf(1 / 6, 4 / 3, 1.0).value
        assert psi_chf(1 / 6, 7 / 3, 1.0).value > psi_chf(1 / 6, 4 / 3, 1.0).value

    def test_contiguity_derivatives(self):
        # g = e^{-x} U4 has g' = -e^{-x} U7 and g'' = e^{-x} U10
        x, h = 0.8, 1e-3
        g = lambda t: math.exp(-t) * psi_chf(1 / 6, 4 / 3, t, rel_tol=1e-12).value
        d1 = (g(x + h) - g(x - h)) / (2.0 * h)
        d2 = (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h)
        pred1 = -math.exp(-x) * psi_chf(1 / 6, 7 / 3, x, rel_tol=1e-12).value
        pred2 = math.exp(-x) * psi_chf(1 / 6, 10 / 3, x, rel_tol=1e-12).value
        assert d1 == pytest.approx(pred1, rel=1e-5)
        assert d2 == pytest.approx(pred2, rel=1e-5)

    @pytest.mark.parametrize("a", [1 / 6, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c,x", [(1 / 3, 0.1), (4 / 3, 1.0), (7 / 3, 5.0)])
    def test_matches_tricomi_u(self, a, c, x):
        # normalized by 1/Gamma(a), so Psi is Tricomi's U for every a
        assert psi_chf(a, c, x).value == pytest.approx(
            float(mp.hyperu(a, c, x)), rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi_chf(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            psi_chf(1 / 6, 4 / 3, -0.5)
        with pytest.raises(DomainError):
            psi_chf(1 / 6, 4 / 3, math.nan)
        with pytest.raises(DomainError):
            psi_chf(math.nan, 4 / 3, 1.0)
        # a nan c used to return 0.0 +- 0.0
        with pytest.raises(DomainError):
            psi_chf(1 / 6, math.nan, 1.0)

    def test_infinite_x_is_zero_without_quadrature(self, monkeypatch):
        monkeypatch.setattr(specfun, "de_halfline", None)
        for a, c in ((1.0 / 6.0, 4.0 / 3.0), (2.0, 0.5)):
            ev = psi_chf(a, c, math.inf)
            assert (ev.value, ev.abs_error_estimate) == (0.0, 0.0)

    def test_overflow_raises(self):
        # the true value, about 3.4e308, overflows a double
        with pytest.raises(DomainError,
                           match=r"psi_chf\(.*, \(100\.0,\), 0\.027\) overflows"):
            psi_chf(1 / 6, 100.0, 0.027)


class TestWhittaker:
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_positive(self, x):
        assert whittaker_w_stable(x).value > 0.0

    def test_monotone_decay(self):
        assert whittaker_w_stable(2.0).value < whittaker_w_stable(1.0).value

    def test_quadrature_stability(self):
        # halving the tolerance must not move the value beyond the estimate
        coarse = whittaker_w_stable(1.0, rel_tol=1e-8)
        fine = whittaker_w_stable(1.0, rel_tol=1e-13)
        assert abs(coarse.value - fine.value) <= max(
            20.0 * coarse.abs_error_estimate, 1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            whittaker_w_stable(0.0)
        with pytest.raises(DomainError):
            whittaker_w_stable(math.nan)
