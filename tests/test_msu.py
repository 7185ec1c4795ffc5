import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from stable_msu.density import Alpha, SeriesConfig, density_series
from stable_msu.errors import DomainError, PoleError, UnreliableScanError
from stable_msu.msu import (NO_VIOLATION, VIOLATION, _bb_terms,
                            bb_expansion, bb_log_density, lce_residual,
                            msu_scan, tail_residual_sign, ualpha_density,
                            ualpha_logconcavity_margin)

TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def closed_half(x):
    return math.exp(-0.25 / x) / (TWO_SQRT_PI * x ** 1.5)


class TestLceResidual:
    def test_half_exact_identity_at_one(self):
        # g = -f^2/(4x): the log-density in t = log x has second
        # derivative -e^{-t}/4 for the elementary closed form
        r = lce_residual(0.5, 1.0)
        exact = -closed_half(1.0) ** 2 / 4.0
        assert r.value == pytest.approx(exact, rel=1e-8)
        assert r.value == pytest.approx(-0.012066544078710472, rel=1e-7)

    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
    def test_half_identity_spot_checks(self, x):
        r = lce_residual(0.5, x)
        assert r.value == pytest.approx(-closed_half(x) ** 2 / (4.0 * x),
                                        rel=1e-7)

    def test_violation_in_tail_for_large_alpha(self):
        r = lce_residual(0.6, 30.0)
        assert r.reliable
        assert r.value > r.abs_error_estimate

    def test_sign_matches_log_density_curvature(self):
        # g/f^2 equals d^2/dt^2 log f(e^t); compare with central
        # differences in t
        for a, x in ((0.4, 2.0), (0.6, 25.0)):
            cfg = SeriesConfig(rel_tol=1e-14)
            r = lce_residual(a, x, cfg)
            f = density_series(a, x, cfg).value
            h = 1e-3
            lf = lambda t: math.log(density_series(a, math.exp(t), cfg).value)
            t0 = math.log(x)
            fd = (lf(t0 + h) - 2.0 * lf(t0) + lf(t0 - h)) / (h * h)
            assert r.value / (f * f) == pytest.approx(fd, rel=1e-3, abs=1e-9)


class TestTailSign:
    def test_point_six(self):
        # 0.36 / (2 Gamma(-0.6) Gamma(-1.2)) with Gamma(-0.6) ~ -3.69693
        # and Gamma(-1.2) ~ 4.85096
        c, compatible = tail_residual_sign(0.6)
        assert c == pytest.approx(0.36 / (2.0 * math.gamma(-0.6)
                                          * math.gamma(-1.2)), rel=1e-9)
        assert c == pytest.approx(-0.0100369910726, rel=1e-9)
        assert not compatible

    def test_point_four(self):
        c, compatible = tail_residual_sign(0.4)
        assert c > 0.0
        assert compatible

    def test_pole_at_half(self):
        with pytest.raises(PoleError):
            tail_residual_sign(0.5)

    def test_degenerates_through_pole_at_half(self):
        # Gamma(-2a) sits in the denominator, so its pole at -1 sends the
        # coefficient to zero (not infinity), with the sign flipping
        c1, _ = tail_residual_sign(0.49)
        c2, _ = tail_residual_sign(0.499)
        assert c1 > c2 > 0.0
        d1, _ = tail_residual_sign(0.51)
        d2, _ = tail_residual_sign(0.501)
        assert d1 < d2 < 0.0

    def test_matches_gamma_oracle(self):
        for a in (0.3, 0.45, 0.66, 0.8):
            c, _ = tail_residual_sign(a)
            oracle = a * a / (2.0 * math.gamma(-a) * math.gamma(-2.0 * a))
            assert c == pytest.approx(oracle, rel=1e-9)


class TestMsuScan:
    def test_violation_at_point_six(self):
        rep = msu_scan(0.6, 0.5, 50.0, 400)
        assert rep.classification == VIOLATION
        assert rep.witness is not None
        w = next(r for x, r in zip(rep.grid, rep.residuals) if x == rep.witness)
        assert w.value > w.abs_error_estimate
        assert rep.pre_inflection_ok

    def test_clean_at_point_four(self):
        rep = msu_scan(0.4, 0.5, 50.0, 400)
        assert rep.classification == NO_VIOLATION
        assert rep.witness is None
        assert rep.pre_inflection_ok

    def test_half_residuals_all_nonpositive(self):
        rep = msu_scan(0.5, 0.5, 50.0, 400)
        assert rep.classification == NO_VIOLATION
        assert all(r.value <= r.abs_error_estimate for r in rep.residuals
                   if r.reliable)

    def test_mode_and_inflection_located(self):
        # grid includes the mode of alpha=0.6 (~0.25) and its inflection
        rep = msu_scan(0.6, 0.08, 50.0, 300)
        assert 0.1 < rep.mode_estimate < 0.4
        assert rep.inflection_estimate is not None
        assert rep.inflection_estimate > rep.mode_estimate
        assert rep.pre_inflection_ok

    @pytest.mark.parametrize("alpha,x_lo", [(0.3, 0.5), (0.5, 0.5), (0.7, 0.5),
                                            (0.9, 0.5), (0.9, 0.2)])
    def test_residuals_match_lce_residual(self, alpha, x_lo):
        # the scan and the pointwise residual share one formula; alpha = 0.9
        # has unreliable points at the left end of the grid, and from
        # x = 0.2 on also unusable (NaN) ones
        rep = msu_scan(alpha, x_lo, 50.0, 100)
        for x, r in zip(rep.grid, rep.residuals):
            p = lce_residual(alpha, x)
            assert (p.reliable, math.isnan(p.value)) == \
                (r.reliable, math.isnan(r.value))
            if not math.isnan(p.value):
                assert p.value == r.value
            assert p.abs_error_estimate == r.abs_error_estimate

    def test_unreliable_scan_raises(self):
        with pytest.raises(UnreliableScanError):
            msu_scan(0.9, 0.05, 0.3, 32)

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            msu_scan(0.5, 2.0, 1.0, 64)
        with pytest.raises(DomainError):
            msu_scan(0.5, 1.0, 2.0, 4)

    def test_normalized_residuals_sign_match(self):
        rep = msu_scan(0.6, 0.5, 50.0, 100)
        for r, nr in zip(rep.residuals, rep.normalized_residuals):
            if r.reliable and not math.isnan(nr):
                assert (nr > 0) == (r.value > 0)


class TestContinuityInAlpha:
    def test_no_jumps_across_alpha(self):
        # difference quotients along alpha at fixed x stay comparable:
        # each at most 10x its neighbor (plus a floor for sign wobble)
        x = 2.0
        alphas = np.arange(0.30, 0.701, 0.01)
        vals = [lce_residual(float(a), x).value for a in alphas]
        quotients = [abs(b - a) / 0.01 for a, b in zip(vals, vals[1:])]
        floor = 1e-3 * max(quotients)
        for q1, q2 in zip(quotients, quotients[1:]):
            assert q2 <= 10.0 * max(q1, floor)


class TestBbExpansion:
    def test_low_order_polynomials(self):
        exp = bb_expansion(5)
        assert exp.r_polys[1] == (1, 1)          # 1 + x
        assert exp.r_polys[2] == (1, 3, 1)       # 1 + 3x + x^2
        assert exp.r_polys[3][0] == 1
        assert exp.r_polys[3][1] == 7            # R_3'(0) = 2^3 - 1

    def test_b_low_order(self):
        exp = bb_expansion(5)
        assert exp.b_coeffs[0] == 1.0
        assert exp.b_coeffs[1] == pytest.approx(float(np.euler_gamma), rel=1e-12)

    def test_b_against_mpmath_taylor(self):
        exp = bb_expansion(20)
        ref = mp.taylor(lambda z: 1.0 / mp.gamma(1 + z), 0, 20)
        for j, (mine, theirs) in enumerate(zip(exp.b_coeffs, ref)):
            assert mine == pytest.approx(float(theirs), rel=1e-10, abs=1e-13), j

    def test_recurrence_identities_exact(self):
        exp = bb_expansion(20)
        for j, coeffs in enumerate(exp.r_polys):
            assert coeffs[0] == 1
            rp0 = coeffs[1] if len(coeffs) > 1 else 0
            assert rp0 == 2 ** j - 1

    def test_order_validation(self):
        with pytest.raises(ValueError):
            bb_expansion(0)


class TestBbLogDensity:
    def test_p_at_zero(self):
        exp = bb_expansion(30)
        for a in (0.3, 0.45):
            p = math.fsum(_bb_terms(a, 0.0, exp))
            assert p == pytest.approx(a / math.gamma(1.0 - a), rel=1e-10)

    def test_matches_change_of_variables_half(self):
        exp = bb_expansion(30)
        r = bb_log_density(0.5, 1.0, exp)
        direct = closed_half(math.e) * math.e
        assert r.reliable
        assert r.value == pytest.approx(direct, rel=1e-6)

    def test_matches_density_series(self):
        exp = bb_expansion(30)
        for a, t in ((0.3, 0.5), (0.3, 4.0), (0.5, 2.0)):
            r = bb_log_density(a, t, exp)
            direct = density_series(a, math.exp(t)).value * math.exp(t)
            assert r.reliable
            assert r.value == pytest.approx(direct, rel=1e-8)

    def test_unreliable_when_truncation_dominates(self):
        exp = bb_expansion(12)
        r = bb_log_density(0.5, -6.0, exp)
        assert not r.reliable


class TestUalpha:
    def test_margin_is_one_at_half(self):
        # cos(pi/2) vanishes exactly under the reduced cospi
        for x in (-40.0, -1.0, 0.0, 3.7, 50.0):
            assert ualpha_logconcavity_margin(0.5, x) == 1.0

    def test_margin_sign_change_at_point_six(self):
        # 1 = |cos(0.6 pi)| cosh(0.6 x) crosses at x ~ 3.061
        assert ualpha_logconcavity_margin(0.6, 2.9) > 0.0
        assert ualpha_logconcavity_margin(0.6, 3.2) < 0.0

    def test_margin_positive_below_half(self):
        assert ualpha_logconcavity_margin(0.3, 80.0) > 0.0

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
    def test_density_normalized(self, a):
        val, _ = integrate.quad(lambda x: ualpha_density(a, x), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_density_symmetric(self):
        assert ualpha_density(0.4, 1.3) == pytest.approx(
            ualpha_density(0.4, -1.3), rel=1e-14)

    @pytest.mark.parametrize("a,far_margin", [(0.3, math.inf), (0.5, 1.0),
                                              (0.8, -math.inf)])
    def test_array_input(self, a, far_margin):
        # |a x| > 700 takes the limits: density 0, margin +-inf or 1
        xs = np.array([-3000.0, -40.0, -1.0, 0.0, 2.5, 3000.0])
        dens = ualpha_density(a, xs)
        margin = ualpha_logconcavity_margin(a, xs)
        assert dens.shape == margin.shape == xs.shape
        assert dens.tolist() == [ualpha_density(a, x) for x in xs.tolist()]
        assert margin.tolist() == [ualpha_logconcavity_margin(a, x)
                                   for x in xs.tolist()]
        assert isinstance(ualpha_density(a, 1.0), float)
        assert isinstance(ualpha_logconcavity_margin(a, 1.0), float)
        assert dens[0] == dens[-1] == 0.0
        assert margin[0] == margin[-1] == far_margin
