import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from stable_msu import factorizations, specfun
from stable_msu.errors import DomainError, HypothesisError, PreconditionError
from stable_msu.factorizations import (Factor, FactorList, kanter_b, lemma1_g,
                                       lemma1_inequality, lemma2_product,
                                       mellin_product, mellin_stable,
                                       sample_stable, whitt_margin,
                                       williams_product)
from stable_msu.verify import DEFAULT_ACCEPTANCE_CONFIG

import johnk_reference


class TestKanterB:
    def test_half_at_quarter_pi(self):
        # for a = 1/2 the factor simplifies to 1/(2 cos(u/2))
        assert kanter_b(0.5, math.pi / 2.0) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12)

    def test_limit_at_zero(self):
        # a^a (1-a)^{1-a}
        assert kanter_b(0.5, 1e-8) == pytest.approx(0.5, rel=1e-6)
        a = 0.3
        assert kanter_b(a, 1e-8) == pytest.approx(a ** a * (1 - a) ** (1 - a),
                                                  rel=1e-6)

    def test_divergence_at_pi(self):
        assert kanter_b(0.5, math.pi - 1e-9) > 1e5

    def test_endpoints_rejected(self):
        with pytest.raises(DomainError):
            kanter_b(0.5, 0.0)
        with pytest.raises(DomainError):
            kanter_b(0.5, math.pi)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            kanter_b(0.5, math.nan)
        with pytest.raises(DomainError):
            kanter_b(0.5, np.array([1.0, math.nan, 2.0]))

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.01, max_value=math.pi - 0.01))
    @settings(max_examples=40, deadline=None)
    def test_positive_and_finite(self, a, u):
        v = kanter_b(a, u)
        assert v > 0.0
        assert math.isfinite(v)

    def test_vectorized(self):
        u = np.array([0.5, 1.0, 2.0])
        v = kanter_b(0.4, u)
        assert v.shape == (3,)
        assert np.all(v > 0)

    @pytest.mark.parametrize("a", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_against_mpmath(self, a):
        # reference at 50 digits, evaluated at the exact float u, from
        # the endpoint draw pi * 2^-53 up to the last double below pi
        us = [math.pi * 2.0 ** -53, 1e-12, 1e-8, 1e-3, 0.3, 1.0,
              math.pi / 2.0, 2.0, 3.0, math.pi - 1e-3, math.pi - 1e-6,
              math.pi - 1e-9, math.pi - 1e-12, math.nextafter(math.pi, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kanter_b(a, np.array(us))
            scalars = [kanter_b(a, u) for u in us]
        with mpmath.workdps(50):
            am = mpmath.mpf(a)
            for u, v, w in zip(us, got, scalars):
                um = mpmath.mpf(u)
                s = mpmath.sin(um)
                ref = ((mpmath.sin(am * um) / s) ** am
                       * (mpmath.sin((1 - am) * um) / s) ** (1 - am))
                assert abs(mpmath.mpf(float(v)) / ref - 1) < 1e-13, u
                assert w == v

    def test_scalar_and_zero_d_return_float(self):
        assert isinstance(kanter_b(0.4, 1.0), float)
        assert isinstance(kanter_b(0.4, np.float64(1.0)), float)
        assert isinstance(kanter_b(0.4, np.array(1.0)), float)
        assert kanter_b(0.4, np.array([[1.0, 2.0]])).shape == (1, 2)

    def test_input_untouched(self):
        u = np.array([0.5, 1.0, 2.0])
        kanter_b(0.4, u)
        assert np.array_equal(u, [0.5, 1.0, 2.0])


class TestSampleStable:
    def test_positive(self):
        rng = np.random.default_rng(0)
        z = sample_stable(0.4, rng, 10_000)
        assert np.all(z > 0)

    def test_scalar_draw(self):
        rng = np.random.default_rng(0)
        z = sample_stable(0.4, rng)
        assert isinstance(z, float) and z > 0

    def test_laplace_monte_carlo(self):
        # E[e^{-Z}] = e^{-1} for every alpha; 3 standard errors
        rng = np.random.default_rng(20240301)
        z = sample_stable(0.3, rng, 200_000)
        vals = np.exp(-z)
        m, se = vals.mean(), vals.std() / math.sqrt(vals.size)
        assert abs(m - math.exp(-1.0)) < 3.0 * se

    def test_half_against_closed_cdf(self):
        rng = np.random.default_rng(7)
        z = np.sort(sample_stable(0.5, rng, 100_000))
        cdf = np.array([math.erfc(0.5 / math.sqrt(t)) for t in z])
        n = z.size
        stat = max(np.max(np.arange(1, n + 1) / n - cdf),
                   np.max(cdf - np.arange(0, n) / n))
        assert stat < 1.628 / math.sqrt(n)

    def test_determinism(self):
        a = sample_stable(0.7, np.random.default_rng(5), 8)
        b = sample_stable(0.7, np.random.default_rng(5), 8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("a", [0.1, 2 / 7, 0.5, 0.7, 0.9])
    def test_matches_sine_formula_on_same_stream(self, a):
        # the draws equal the sine form of Kanter's transform applied to
        # the same uniforms and exponentials, and consume the stream
        # exactly as drawing those arrays by hand
        rng = np.random.default_rng(31)
        z = sample_stable(a, rng, 20_000)
        ref_rng = np.random.default_rng(31)
        u = ref_rng.uniform(0.0, math.pi, 20_000)
        ell = ref_rng.standard_exponential(20_000)
        log_sin_u = np.log(np.sin(u))
        b = np.exp(a * (np.log(np.sin(a * u)) - log_sin_u)
                   + (1.0 - a) * (np.log(np.sin((1.0 - a) * u)) - log_sin_u))
        ref = np.exp(np.log(b) / a + (a - 1.0) / a * np.log(ell))
        assert np.max(np.abs(z / ref - 1.0)) < 1e-13
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_uniforms_are_those_of_numpys_uniform(self, monkeypatch):
        # Kanter's b is taken at pi U, the bits of uniform(0, pi)
        seen = []
        kernel = factorizations._log_kanter_b

        def spy(a, u, out):
            seen.append(u.copy())
            return kernel(a, u, out)

        monkeypatch.setattr(factorizations, "_log_kanter_b", spy)
        factorizations._log_stable(0.6, np.random.default_rng(12), 30_000)
        ref = np.random.default_rng(12).uniform(0.0, math.pi, 30_000)
        assert np.array_equal(seen[0], ref)

    def test_tuple_size_keeps_shape(self):
        z = sample_stable(0.6, np.random.default_rng(8), (3, 4))
        flat = sample_stable(0.6, np.random.default_rng(8), 12)
        assert z.shape == (3, 4)
        assert np.array_equal(z, flat.reshape(3, 4))

    def test_size_none_is_first_draw(self):
        z = sample_stable(0.6, np.random.default_rng(9))
        assert isinstance(z, float)
        assert z == sample_stable(0.6, np.random.default_rng(9), 1)[0]

    def test_endpoint_uniforms_redrawn_without_warning(self):
        # a source whose first uniforms, times pi, hit both endpoints and
        # the two extreme interior doubles; only the endpoints are
        # redrawn, by uniform(0, pi)
        class Source:
            def __init__(self):
                self.rng = np.random.default_rng(10)

            def random(self, size):
                return np.array([0.0, 2.0 ** -53, 1.0, 1.0 - 2.0 ** -53])

            def uniform(self, lo, hi, n):
                return self.rng.uniform(lo, hi, n)

            def standard_exponential(self, size=None, out=None):
                return self.rng.standard_exponential(size, out=out)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = sample_stable(0.5, Source(), 4)
        rng = np.random.default_rng(10)
        redrawn = rng.uniform(0.0, math.pi, 2)
        u = np.array([redrawn[0], math.pi * 2.0 ** -53, redrawn[1],
                      math.nextafter(math.pi, 0.0)])
        # Z_{1/2} = b(U)^2 / L
        ref = kanter_b(0.5, u) ** 2 / rng.standard_exponential(4)
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z / ref - 1.0)) < 1e-13


def _log_kanter_b_whole(a, u):
    """log b(u) in one whole-array pass: the unblocked expression the
    blocked kernel must reproduce bit for bit."""
    out = np.empty_like(u)
    tmp = np.empty_like(u)
    sq = np.empty_like(u)

    def log_half_sin(scale, dst):
        np.multiply(u, 0.5 * scale, out=dst)
        np.tan(dst, out=dst)
        np.multiply(dst, dst, out=sq)
        np.add(sq, 1.0, out=sq)
        dst /= sq
        return np.log(dst, out=dst)

    log_half_sin(a, out)
    out *= a
    log_half_sin(1.0 - a, tmp)
    tmp *= 1.0 - a
    out += tmp
    out -= log_half_sin(1.0, tmp)
    return out


class TestBlockedKernel:
    """The log b(u) kernel and the product sampler run over blocks of
    _BLOCK elements; every length across a block boundary gives the
    whole-array bits."""

    B = factorizations._BLOCK
    SIZES = [1, B - 1, B, B + 1, 3 * B + 7, (3, 4)]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("a", [0.1, 0.5, 2 / 3, 0.9])
    def test_log_stable(self, a, size):
        got = factorizations._log_stable(a, np.random.default_rng(41), size)
        rng = np.random.default_rng(41)
        u = rng.uniform(0.0, math.pi, size)
        ref = _log_kanter_b_whole(a, u)
        ref += (a - 1.0) * np.log(rng.standard_exponential(size))
        ref /= a
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("size", SIZES)
    def test_kanter_b(self, size):
        u = np.random.default_rng(42).uniform(0.0, math.pi, size)
        kept = u.copy()
        got = kanter_b(0.3, u)
        assert np.array_equal(got, np.exp(_log_kanter_b_whole(0.3, u)))
        assert np.array_equal(u, kept)

    def test_kanter_b_strided_input(self):
        u = np.random.default_rng(43).uniform(0.0, math.pi, (40, 30)).T
        assert np.array_equal(kanter_b(0.7, u),
                              np.exp(_log_kanter_b_whole(0.7, u)))

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
    def test_kernel_in_place(self, n):
        # _log_stable forms log b(U) over its uniforms in place
        u = np.random.default_rng(44).uniform(0.0, math.pi, n)
        ref = _log_kanter_b_whole(0.4, u)
        factorizations._log_kanter_b(0.4, u, u)
        assert np.array_equal(u, ref)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("p,n", [(2, 5), (3, 7)])
    def test_factor_list_sample(self, p, n, size):
        # each factor's log draws, taken round by round into three
        # buffers, are added in one factor after another: the
        # whole-array sums, with the stream left where whole rounds
        # leave it
        fl = lemma2_product(p, n)
        rng = np.random.default_rng(45)
        got = fl.sample(rng, size)
        ref_rng = np.random.default_rng(45)
        ref = johnk_reference.product_sample(fl, ref_rng, size)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("size", [None, 1, B // 2 + 1, 3 * B + 7])
    @pytest.mark.parametrize("factor", [
        Factor.beta(0.4, 0.1), Factor.beta(1.0, 1.0), Factor.gamma(1 / 7),
        Factor.gamma(1.0), Factor.beta(2.5, 0.5), Factor.gamma(1.5)])
    def test_factor_sample(self, factor, size):
        # Johnk rounds for parameters up to 1, numpy's samplers above
        rng = np.random.default_rng(46)
        got = factor.sample(rng, size)
        ref_rng = np.random.default_rng(46)
        ref = np.exp(johnk_reference.factor_logs(
            factor, ref_rng, 1 if size is None else size))
        if size is None:
            assert np.ndim(got) == 0 and got == ref[0]
        else:
            assert np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _product_factors():
    """Each distinct factor of the products that check 07 and demo 03
    sample."""
    factors = []
    for fl in (lemma2_product(2, 5), lemma2_product(3, 7), williams_product(3)):
        factors += [f for f in fl.factors if f not in factors]
    return factors


def _log_cdf(factor):
    """The exact CDF of log X for the factor X, from scipy."""
    if factor.kind == "gamma":
        law = stats.gamma(factor.params[0])
        return lambda y: law.cdf(np.exp(y))
    a, b = factor.params
    law, mirror = stats.beta(a, b), stats.beta(b, a)

    def cdf(y):
        y = np.asarray(y, dtype=float)
        # near 1, P(X <= e^y) = P(1 - X >= -expm1(y)) keeps the tail
        # that e^y rounds away
        near_one = y > -math.log(2.0)
        return np.where(near_one, mirror.sf(-np.expm1(y)),
                        law.cdf(np.exp(y)))
    return cdf


class TestJohnkLaw:
    """The log draws of every factor the products build, against the
    exact law: a one-sample KS of the log draws, and fractional moments
    E X^s against log_mellin within five standard errors."""

    N = 100_000

    @staticmethod
    def _logs(factor, seed):
        logs = np.zeros(TestJohnkLaw.N)
        factor._add_logs(np.random.default_rng(seed), logs)
        return logs

    @pytest.mark.parametrize("k,factor", enumerate(_product_factors()))
    def test_log_cdf(self, k, factor):
        logs = self._logs(factor, 800 + k)
        assert np.all(np.isfinite(logs))
        assert stats.kstest(logs, _log_cdf(factor)).pvalue > 1e-3

    @pytest.mark.parametrize("k,factor", enumerate(_product_factors()))
    def test_mellin(self, k, factor):
        logs = self._logs(factor, 900 + k)
        # E X^2s is finite for both s
        for s in (factor.mellin_lower_bound() / 4.0, 1.0):
            x_s = np.exp(s * logs)
            se = x_s.std() / math.sqrt(x_s.size)
            assert abs(x_s.mean() - math.exp(factor.log_mellin(s))) < 5.0 * se

    def test_beta_tail_near_one(self):
        # Beta(2/7, 1/21) puts about a seventh of its mass within 1e-16
        # of 1; its log draws keep that tail instead of rounding it to 0
        factor = Factor.beta(2 / 7, 1 / 21)
        logs = self._logs(factor, 990)
        assert np.count_nonzero(logs == 0.0) == 0
        share = np.mean(logs > -1e-16)
        exact = stats.beta(1 / 21, 2 / 7).cdf(-math.expm1(-1e-16))
        se = math.sqrt(exact * (1.0 - exact) / logs.size)
        assert abs(share - exact) < 5.0 * se


class TestJohnkKernel:
    def test_zero_uniforms_rejected_without_warning(self):
        # a generator whose uniforms 0, 1 (U's) and 5, 7 (V's) are 0:
        # the first round's five candidates 0 (both 0: NaN), 1 (U = 0:
        # log draw -inf) and 2 (V = 0: draw 1) may not be kept
        class Source:
            ZEROS = np.array([0, 1, 5, 7])

            def __init__(self):
                self.rng = np.random.default_rng(47)
                self.drawn = 0

            def random(self, size=None, dtype=np.float64, out=None):
                out = self.rng.random(size, dtype, out)
                at = self.ZEROS - self.drawn
                out[at[(at >= 0) & (at < out.size)]] = 0.0
                self.drawn += out.size
                return out

            def standard_exponential(self, size=None, out=None):
                return self.rng.standard_exponential(size, out=out)

        for factor in (Factor.beta(0.5, 0.5), Factor.gamma(0.5)):
            logs = np.zeros(5)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                factor._add_logs(Source(), logs)
                ref = johnk_reference.factor_logs(factor, Source(), 5)
            assert np.all(np.isfinite(logs))
            if factor.kind == "beta":
                assert np.all(logs < 0.0)
            assert np.array_equal(logs, ref)

    @pytest.mark.parametrize("factor", [
        Factor.gamma(5e-324), Factor.beta(5e-324, 5e-324),
        Factor.beta(1e-310, 0.5), Factor.beta(0.5, 1e-301)])
    def test_parameter_below_floor_drawn_by_numpy(self, factor):
        # log(U) / a would overflow for most U, and the kernel would
        # reject nearly every candidate: numpy's samplers draw these
        rng = np.random.default_rng(48)
        got = factor.sample(rng, 10)
        ref_rng = np.random.default_rng(48)
        if factor.kind == "gamma":
            ref = ref_rng.gamma(factor.params[0], 1.0, 10)
        else:
            ref = ref_rng.beta(*factor.params, 10)
        assert np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_parameters_at_floor(self):
        # at a = b = 1e-300 every candidate is kept, in one round, and
        # the draw is 0 or 1 with even odds
        n = 1000
        rng = np.random.default_rng(49)
        got = Factor.beta(1e-300, 1e-300).sample(rng, n)
        ref_rng = np.random.default_rng(49)
        ref_rng.random(2 * n)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.all((got == 0.0) | (got == 1.0))
        assert abs(np.mean(got) - 0.5) < 5.0 * math.sqrt(0.25 / n)


class TestWilliamsProduct:
    def test_p2(self):
        fl = williams_product(2)
        assert fl.scale == 4.0
        assert fl.factors == (Factor.gamma(0.5),)

    def test_p3(self):
        fl = williams_product(3)
        assert fl.scale == 27.0
        assert fl.factors == (Factor.gamma(1 / 3), Factor.gamma(2 / 3))

    def test_p1_rejected(self):
        with pytest.raises(DomainError):
            williams_product(1)

    def test_first_moment_matches_stable(self):
        # E[Z_{1/2}^{-1}] = Gamma(3)/Gamma(2) = 2
        profile = mellin_product(williams_product(2))
        assert profile(1.0) == pytest.approx(2.0, rel=1e-12)
        assert mellin_stable(0.5)(-1.0) == pytest.approx(2.0, rel=1e-12)


class TestLemma2Product:
    def test_2_5_structure(self):
        fl = lemma2_product(2, 5)
        assert fl.scale == pytest.approx(5 ** 5 / 2 ** 2)
        assert fl.factors == (
            Factor.beta(0.4, 0.1),
            Factor.gamma(0.2),
            Factor.gamma(0.6),
            Factor.gamma(0.8),
        )

    def test_3_7_structure(self):
        fl = lemma2_product(3, 7)
        assert fl.scale == pytest.approx(7 ** 7 / 3 ** 3)
        expected = (
            Factor.beta(2 / 7, float(Fraction(1, 3) - Fraction(2, 7))),
            Factor.gamma(1 / 7),
            Factor.beta(4 / 7, float(Fraction(2, 3) - Fraction(4, 7))),
            Factor.gamma(3 / 7),
            Factor.gamma(5 / 7),
            Factor.gamma(6 / 7),
        )
        assert fl.factors == expected

    def test_requires_n_over_2p(self):
        with pytest.raises(PreconditionError):
            lemma2_product(2, 4)
        with pytest.raises(PreconditionError):
            lemma2_product(3, 6)

    def test_beta_parameters_positive_up_to_50(self):
        for n in range(5, 51):
            for p in range(2, (n - 1) // 2 + 1):
                if n <= 2 * p:
                    continue
                fl = lemma2_product(p, n)
                for f in fl.factors:
                    assert all(param > 0 for param in f.params)

    def test_spot_moment_2_5(self):
        # scale * E[Beta(2/5,1/10)] * E[G(1/5)] * E[G(3/5)] * E[G(4/5)]
        # = 781.25 * 4/5 * 1/5 * 3/5 * 4/5 = 60 = Gamma(6)/Gamma(3)
        profile = mellin_product(lemma2_product(2, 5))
        assert profile(1.0) == pytest.approx(60.0, rel=1e-12)


class TestMellin:
    def test_stable_zeroth_moment(self):
        assert mellin_stable(0.3)(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_stable_quarter_moment_third(self):
        ref = math.gamma(0.25) / math.gamma(0.75)
        assert mellin_stable(1 / 3)(0.25) == pytest.approx(ref, rel=1e-12)

    def test_stable_domain(self):
        with pytest.raises(DomainError):
            mellin_stable(0.3)(0.3)
        with pytest.raises(DomainError):
            mellin_stable(0.3)(0.7)

    @pytest.mark.parametrize("p,n", [(2, 5), (2, 7), (3, 7), (3, 8), (4, 9)])
    def test_lemma2_identity(self, p, n):
        profile = mellin_product(lemma2_product(p, n))
        for s in (0.1, 0.5, 1.0, 2.0):
            rhs = math.exp(math.lgamma(n * s + 1.0) - math.lgamma(p * s + 1.0))
            assert profile(s) == pytest.approx(rhs, rel=1e-10)

    def test_product_at_zero_is_one(self):
        fl = FactorList(3.7, (Factor.beta(0.3, 0.9), Factor.gamma(1.1)))
        # s = 0 would sit on the boundary check only via scale^0 = 1
        assert mellin_product(fl)(1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_beta_gamma_collapse(self):
        # Beta(a, b) x Gamma(a+b) has the Mellin transform of Gamma(a)
        a, b = 0.3, 0.7
        fl = FactorList(1.0, (Factor.beta(a, b), Factor.gamma(a + b)))
        profile = mellin_product(fl)
        for s in (0.5, 1.0, 2.0):
            ref = math.exp(math.lgamma(s + a) - math.lgamma(a))
            assert profile(s) == pytest.approx(ref, rel=1e-12)

    def test_product_domain(self):
        profile = mellin_product(lemma2_product(2, 5))
        with pytest.raises(DomainError):
            profile(-0.5)  # below -min(beta a, gamma c) = -0.2


class TestLemma1G:
    def test_contiguity_monotonicity(self):
        a, b, c, x = 0.4, 0.6, 0.9, 1.0
        g0 = lemma1_g(a, b, c, 0, x).value
        gp = lemma1_g(a, b, c, 1, x).value
        assert gp >= g0

    def test_gamma_reduction_when_c_equals_sum(self):
        # with c = a + b the factor (u+1)^{c-(a+b)} is 1, so g is
        # e^{-x} times the Gamma integral Gamma(b) x^{-b}: the reduction
        # of Beta(a, b) x Gamma(a + b) to Gamma(a)
        x = 0.7
        val = lemma1_g(0.3, 0.7, 1.0, 0, x).value
        ref = math.exp(-x) * math.gamma(0.7) * x ** -0.7
        assert val == pytest.approx(ref, rel=1e-8)

    def test_large_x_watson_leading_term(self):
        a, b, c, x = 0.4, 0.6, 0.9, 30.0
        g = lemma1_g(a, b, c, 0, x).value
        leading = math.gamma(b) * x ** (-b) * math.exp(-x)
        assert g == pytest.approx(leading, rel=0.05)

    def test_x_zero_divergence(self):
        with pytest.raises(DomainError):
            lemma1_g(0.4, 0.6, 0.9, 0, 0.0)  # alpha <= c

    def test_x_zero_convergent_case(self):
        val = lemma1_g(1.5, 0.6, 0.9, 0, 0.0).value
        assert math.isfinite(val) and val > 0.0

    def test_bad_args(self):
        with pytest.raises(DomainError):
            lemma1_g(0.4, -0.1, 0.9, 0, 1.0)
        with pytest.raises(DomainError):
            lemma1_g(0.4, 0.6, 0.9, 2, 1.0)
        with pytest.raises(DomainError):
            lemma1_g(0.4, math.nan, 0.9, 0, 1.0)
        with pytest.raises(DomainError):
            lemma1_g(0.4, 0.6, 0.9, 0, math.nan)
        # a nan alpha or c used to return 0.0 +- 0.0
        with pytest.raises(DomainError):
            lemma1_g(math.nan, 0.6, 0.9, 0, 1.0)
        with pytest.raises(DomainError):
            lemma1_g(0.4, 0.6, math.nan, 0, 1.0)

    def test_overflow_raises(self):
        # the integrand e^{-x u} u^{-1/2} (1+u)^100 peaks near e^821
        with pytest.raises(DomainError, match=r"lemma1_g\(0\.5, 0\.5, 100\.0, "
                           r"\(1,\), 0\.01\) overflows"):
            lemma1_g(0.5, 0.5, 100.0, 1, 0.01)
        assert lemma1_g(0.5, 0.5, 100.0, 1, 1.0).value == pytest.approx(
            9.368161832994809e+156, rel=1e-10)


def _check(name):
    return next(c for c in DEFAULT_ACCEPTANCE_CONFIG["checks"]
                if c["name"] == name)


def _count_calls(monkeypatch, targets):
    """Wrap each (module, name) so that its calls are counted."""
    counts = {}
    for module, name in targets:
        inner = getattr(module, name)

        def counting(*args, _inner=inner, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


class TestLemma1Inequality:
    def test_reference_point(self):
        assert lemma1_inequality(0.4, 0.6, 0.9, 1.0) >= 0.0

    def test_beta_one_edge(self):
        # RHS vanishes and the LHS factors are nonnegative
        assert lemma1_inequality(0.4, 1.0, 0.9, 0.7) >= 0.0

    def test_sweep(self):
        for x in np.geomspace(0.01, 20.0, 25):
            assert lemma1_inequality(0.3, 0.5, 0.7, float(x)) >= -1e-10

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisError):
            lemma1_inequality(0.4, 1.2, 0.9, 1.0)
        with pytest.raises(HypothesisError):
            lemma1_inequality(0.2, 0.3, 0.9, 1.0)

    def test_rows_equal_three_lemma1_g_calls(self):
        # over the grid of acceptance check 11, bit for bit
        check = _check("11-lemma1-inequality")
        xs = np.geomspace(check["x_lo"], check["x_hi"], check["points"])
        for a, b, c in check["triples"]:
            for x in xs.tolist():
                g0 = lemma1_g(a, b, c, 0, x).value
                gm = lemma1_g(a, b, c, -1, x).value
                gp = lemma1_g(a, b, c, 1, x).value
                old = ((x * g0 + (a + b - c) * gm) * (gp - g0)
                       - (b - 1.0) * gm * gm)
                assert lemma1_inequality(a, b, c, x) == old, (a, b, c, x)

    def test_one_quadrature_call(self, monkeypatch):
        counts = _count_calls(monkeypatch, [(specfun, "de_halfline"),
                                            (factorizations, "lemma1_g")])
        lemma1_inequality(0.4, 0.6, 0.9, 1.0)
        assert counts == {"de_halfline": 1}

    def test_x_zero_needs_alpha_above_c_plus_one(self):
        assert lemma1_inequality(2.5, 0.6, 1.2, 0.0) == pytest.approx(
            lemma1_inequality(2.5, 0.6, 1.2, 1e-300), rel=1e-9)
        with pytest.raises(DomainError):
            lemma1_inequality(2.0, 0.6, 1.2, 0.0)  # alpha <= c + 1

    def test_overflow_raises(self):
        # g_{c+1} grows like x^{-1.1} and overflows below about 1e-280
        with pytest.raises(DomainError, match="lemma1_g.*overflows"):
            lemma1_inequality(0.9, 0.5, 1.0, 1e-300)


class TestWhittMargin:
    def test_nonnegative_beyond_one_sixth(self):
        for x in (1.0 / 6.0, 0.3, 1.0, 5.0, 30.0):
            assert whitt_margin(x) >= 0.0

    def test_negative_near_zero(self):
        assert whitt_margin(0.01) < 0.0

    def test_decays_from_above(self):
        m = [whitt_margin(x) for x in (5.0, 15.0, 40.0)]
        assert m[0] > m[1] > m[2] > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            whitt_margin(0.0)
        with pytest.raises(DomainError):
            whitt_margin(math.nan)

    def test_infinite_x_rejected(self):
        # Psi at x = inf is 0 +- 0, and x U4 would be inf * 0 = nan
        with pytest.raises(DomainError, match="finite"):
            whitt_margin(math.inf)

    def test_rows_equal_three_psi_chf_calls(self):
        # over the grids of acceptance check 10, bit for bit
        check = _check("10-whitt-inequality")
        xs = np.concatenate([
            np.geomspace(1.0 / 6.0, check["x_hi"], check["safe_points"]),
            np.geomspace(1e-3, 1.0 / 6.0, check["scan_points"])])
        for x in xs.tolist():
            u1 = specfun.psi_chf(1.0 / 6.0, 1.0 / 3.0, x, 1e-10).value
            u4 = specfun.psi_chf(1.0 / 6.0, 4.0 / 3.0, x, 1e-10).value
            u7 = specfun.psi_chf(1.0 / 6.0, 7.0 / 3.0, x, 1e-10).value
            old = (x * u4 - u1 / 6.0) * (u7 - u4) + 5.0 * u4 * u4 / 6.0
            assert whitt_margin(x) == old, x

    def test_one_quadrature_call(self, monkeypatch):
        counts = _count_calls(monkeypatch, [(specfun, "de_halfline"),
                                            (specfun, "psi_chf")])
        whitt_margin(0.5)
        assert counts == {"de_halfline": 1}

    def test_overflow_raises(self):
        # Psi(1/6, 7/3, x) grows like x^{-4/3}
        with pytest.raises(DomainError, match="psi_chf.*overflows"):
            whitt_margin(1e-300)


class TestFactorValidation:
    def test_bad_kind(self):
        with pytest.raises(PreconditionError):
            Factor("lognormal", (1.0,))

    def test_bad_params(self):
        with pytest.raises(PreconditionError):
            Factor.beta(0.0, 1.0)
        with pytest.raises(PreconditionError):
            Factor.gamma(-1.0)
        with pytest.raises(PreconditionError):
            Factor.beta(1.0, math.nan)

    @pytest.mark.parametrize("make", [
        lambda: Factor.gamma(math.inf), lambda: Factor.beta(0.5, math.inf),
        lambda: Factor.beta(math.inf, 0.5), lambda: Factor.beta(-math.inf, 1.0),
        lambda: FactorList(math.inf, (Factor.gamma(0.5),)),
        lambda: FactorList(-math.inf, (Factor.gamma(0.5),))])
    def test_non_finite_rejected(self, make):
        # these sampled inf or 0 and had NaN moments
        with pytest.raises(PreconditionError):
            make()

    def test_factor_list_validation(self):
        with pytest.raises(PreconditionError):
            FactorList(0.0, (Factor.gamma(1.0),))
        with pytest.raises(PreconditionError):
            FactorList(math.nan, (Factor.gamma(1.0),))
        with pytest.raises(PreconditionError):
            FactorList(1.0, ())
