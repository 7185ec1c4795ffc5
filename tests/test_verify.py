import json
import math
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from stable_msu import verify
from stable_msu.density import laplace_check, survival_series
from stable_msu.errors import DomainError, PreconditionError
from stable_msu.factorizations import (_BLOCK, _log_stable, lemma2_product,
                                       sample_stable)
from stable_msu.verify import (_CUTS, _PIECE, CHECK_KINDS,
                               DEFAULT_ACCEPTANCE_CONFIG, IdentityReport,
                               _ks_one, _ks_two, build_cdf,
                               check_diff_identity, check_factorization_mc,
                               check_sampler_ks, ks_one_sample, ks_two_sample,
                               run_acceptance, ualpha_cdf)

import johnk_reference
import ks_reference


class TestKsOneSample:
    def test_calibration(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(0.0, 1.0, 100_000)
        res = ks_one_sample(s, lambda x: np.clip(x, 0.0, 1.0))
        assert res.passed
        assert res.critical_1pct == pytest.approx(1.628 / math.sqrt(100_000))

    def test_power_against_shift(self):
        # unit exponential samples shifted by 0.1 against the unshifted CDF
        rng = np.random.default_rng(12)
        s = rng.standard_exponential(100_000) + 0.1
        res = ks_one_sample(s, lambda x: 1.0 - np.exp(-np.clip(x, 0, None)))
        assert not res.passed

    def test_single_sample_bounds(self):
        res = ks_one_sample([0.3], lambda x: np.asarray(x))
        assert 0.0 <= res.statistic <= 1.0

    def test_empty_raises(self):
        with pytest.raises(PreconditionError):
            ks_one_sample([], lambda x: x)

    @pytest.mark.parametrize("seed", [18, 19, 20])
    def test_ties_match_two_sided_formula(self, seed):
        # the statistic is bit-identical to max(up - F, F - lo) with
        # separate up = (k+1)/n and lo = k/n arrays, and the caller's
        # samples are left as they were
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 30, 25_000).astype(float)
        kept = s.copy()

        def cdf(x):
            return np.clip((x + 0.5) / 30.0, 0.0, 1.0)

        f = np.clip(cdf(np.sort(s)), 0.0, 1.0)
        n = s.size
        up = np.arange(1, n + 1) / n
        lo = np.arange(0, n) / n
        ref = float(max(np.max(up - f), np.max(f - lo)))
        assert ks_one_sample(s, cdf).statistic == ref
        assert np.array_equal(s, kept)


class TestKsTwoSample:
    def test_same_distribution_passes(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal(50_000)
        b = rng.standard_normal(60_000)
        res = ks_two_sample(a, b)
        assert res.passed
        assert res.m_samples == 60_000
        assert res.critical_1pct == pytest.approx(
            1.628 * math.sqrt(110_000 / (50_000 * 60_000)))

    def test_different_distributions_fail(self):
        rng = np.random.default_rng(14)
        res = ks_two_sample(rng.standard_normal(50_000),
                            rng.standard_normal(50_000) + 0.05)
        assert not res.passed

    @pytest.mark.parametrize("seed", [15, 16, 17])
    def test_ties_match_searchsorted_and_scipy(self, seed):
        # few distinct values, so nearly every value is tied within and
        # across the samples
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 40, 20_000).astype(float)
        b = rng.integers(0, 43, 15_000).astype(float)
        sa, sb = np.sort(a), np.sort(b)
        both = np.concatenate([sa, sb])
        fa = np.searchsorted(sa, both, side="right") / sa.size
        fb = np.searchsorted(sb, both, side="right") / sb.size
        stat = ks_two_sample(a, b).statistic
        assert stat == float(np.max(np.abs(fa - fb)))
        assert stat == stats.ks_2samp(a, b).statistic

    def test_single_points(self):
        assert ks_two_sample([1.0], [1.0]).statistic == 0.0
        assert ks_two_sample([1.0], [2.0]).statistic == 1.0


def _ks_two_gather(a, b):
    """The two-sample statistic by one stable argsort of the sorted
    samples and a gathered copy, counted over the whole merged array:
    the reference for the blocked core."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.size, b.size
    merged = np.concatenate([a, b])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    from_a = order < n
    last = np.append(merged[1:] != merged[:-1], True)
    ca = np.cumsum(from_a)[last]
    cb = np.flatnonzero(last) + 1
    cb -= ca
    gap = ca / n
    gap -= cb / m
    return float(np.max(np.abs(gap, out=gap)))


class TestKsTwoCore:
    """The two-sample core sorts each sample in place and reads one
    against the other's empirical CDF, taking that CDF's limits by
    binary search in batches of at most _BLOCK values; its statistic is
    that of the whole-array argsort-and-gather form."""

    @staticmethod
    def _core(a, b):
        return _ks_two(np.array(a, dtype=float),
                       np.array(b, dtype=float)).statistic

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_ties_straddling_block_boundaries(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 25, 2 * _BLOCK).astype(float)
        b = rng.integers(0, 23, _BLOCK + 333).astype(float)
        merged = np.sort(np.concatenate([a, b]))
        # runs of ties cross the first and second block boundaries
        assert merged[_BLOCK - 1] == merged[_BLOCK]
        assert merged[2 * _BLOCK - 1] == merged[2 * _BLOCK]
        ref = _ks_two_gather(a, b)
        assert self._core(a, b) == ref
        assert ks_two_sample(a, b).statistic == ref

    @pytest.mark.parametrize("k", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_run_of_ties_ending_at_a_block_boundary(self, k):
        # the largest gap sits on the last of k tied a-values; with
        # k = _BLOCK it is the last value of the first block
        a = np.concatenate([np.zeros(k), np.full(7, 2.0)])
        b = np.concatenate([np.ones(k), np.full(5, 2.0)])
        ref = _ks_two_gather(a, b)
        assert ref == k / (k + 7)
        assert self._core(a, b) == ref

    @pytest.mark.parametrize("n,m", [(_BLOCK + 1, 3), (5, 2 * _BLOCK - 1),
                                     (1000, 777), (_BLOCK, _BLOCK)])
    def test_unequal_sizes(self, n, m):
        rng = np.random.default_rng(n + m)
        a = rng.standard_normal(n)
        b = rng.standard_normal(m) + 0.01
        assert self._core(a, b) == _ks_two_gather(a, b)

    @pytest.mark.parametrize("a,b", [([1.0], [1.0]), ([1.0], [2.0]),
                                     ([2.0], [1.0]), ([3.0], [1.0, 3.0, 5.0])])
    def test_single_element_samples(self, a, b):
        assert self._core(a, b) == _ks_two_gather(a, b)

    @pytest.mark.parametrize("seed", range(60))
    def test_tie_heavy_random_cases(self, seed):
        # small samples from few values, some infinite, of random sizes
        rng = np.random.default_rng(5400 + seed)
        levels = np.concatenate([[-np.inf, np.inf],
                                 rng.standard_normal(rng.integers(1, 12))])
        a = rng.choice(levels, rng.integers(1, 400))
        b = rng.choice(levels, rng.integers(1, 400))
        assert self._core(a, b) == _ks_two_gather(a, b)

    def test_buffer_is_spent_not_the_callers(self):
        a = np.array([3.0, 1.0, 2.0])
        b = np.array([2.5, 0.5])
        ks_two_sample(a, b)
        assert a.tolist() == [3.0, 1.0, 2.0] and b.tolist() == [2.5, 0.5]


class TestKsTwoMerge:
    """The edges of a merge, in both argument orders: the whole of one
    sample may lie between two values of the other, a sample may end
    long before the other, and the copies of a run of ties longer than
    a block are counted by binary search."""

    @staticmethod
    def _both_orders(a, b):
        ref = _ks_two_gather(a, b)
        assert _ks_two(np.array(a, dtype=float),
                       np.array(b, dtype=float)).statistic == ref
        assert _ks_two(np.array(b, dtype=float),
                       np.array(a, dtype=float)).statistic == ref
        return ref

    def test_disjoint_samples_over_many_blocks(self):
        a = np.arange(3 * _BLOCK + 5, dtype=float)
        b = np.arange(2 * _BLOCK + 1, dtype=float) + 10 * _BLOCK
        assert self._both_orders(a, b) == 1.0
        assert self._both_orders(-a, b) == 1.0

    def test_one_sample_inside_one_block_of_the_other(self):
        rng = np.random.default_rng(81)
        a = np.linspace(0.0, 1.0, 5 * _BLOCK)
        b = rng.uniform(a[_BLOCK + 10], a[_BLOCK + 100], 3 * _BLOCK)
        # the whole of b lies between two neighbouring values of a
        b[:7] = a[_BLOCK + 10]
        assert self._both_orders(a, b) > 0.7

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_tie_runs_longer_than_a_block_on_both_sides(self, shift):
        levels = np.array([-np.inf, 0.0, 1.0, 2.0, np.inf])
        a = np.repeat(levels, [3, 2 * _BLOCK + 5, 3, _BLOCK + 1, 7])
        b = np.repeat(levels + shift, [_BLOCK + 2, _BLOCK + 9, 3 * _BLOCK, 2,
                                       2 * _BLOCK])
        self._both_orders(a, b)


@pytest.fixture(scope="module")
def cdf_05():
    return build_cdf(0.5)


def _step_cdf(x):
    """A CDF with plateaus: steps of 0.1 at the integers -5 .. 4."""
    return np.clip(np.floor(np.asarray(x, dtype=float)) + 5.0, 0.0, 10.0) / 10


# sizes at and around one piece, and sizes over several blocks and
# several passes of cuts
_KS_SIZES = [1, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _BLOCK + 17,
             2 * _CUTS * _PIECE + _PIECE // 2]


class TestKsPruned:
    """The cores take exact gaps only on the pieces whose bound can hold
    the maximum; their statistics equal the exhaustive references of
    ks_reference bit for bit."""

    @staticmethod
    def _two(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        ref = ks_reference.merged_gap(np.sort(a), np.sort(b))
        assert _ks_two(a.copy(), b.copy()).statistic == ref
        assert _ks_two(b.copy(), a.copy()).statistic == ref
        return ref

    @staticmethod
    def _one(s, cdf):
        s = np.asarray(s, dtype=float)
        ref = ks_reference.ks_one_stat(np.sort(s), cdf)
        assert _ks_one(s.copy(), cdf).statistic == ref
        return ref

    @pytest.mark.parametrize("n", _KS_SIZES)
    @pytest.mark.parametrize("m", [1, _PIECE - 1, _PIECE, _PIECE + 1,
                                   3 * _BLOCK + 17])
    def test_two_sample_sizes(self, n, m):
        rng = np.random.default_rng(n + 7 * m)
        self._two(rng.standard_normal(n), rng.standard_normal(m) + 0.01)
        self._two(rng.integers(0, 9, n), rng.integers(0, 11, m))

    @pytest.mark.parametrize("n", _KS_SIZES)
    def test_one_sample_sizes(self, n):
        rng = np.random.default_rng(n)
        self._one(rng.logistic(size=n), ualpha_cdf(0.4))
        self._one(rng.integers(-7, 7, n), _step_cdf)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cases(self, seed, cdf_05):
        # normal or tied samples, some infinite, of random sizes; the
        # one-sample CDFs are a StableCdf, ualpha_cdf and a step CDF
        rng = np.random.default_rng(8800 + seed)
        n, m = rng.integers(1, 40 * _PIECE, 2)
        levels = np.concatenate([[-np.inf, np.inf], 5.0 *
                                 rng.standard_normal(rng.integers(1, 30))])
        if seed % 2:
            a = rng.choice(levels, n)
            b = rng.choice(levels, m)
        else:
            a = rng.standard_normal(n)
            b = rng.standard_normal(m)
            a[rng.random(n) < 0.02] = np.inf
            b[rng.random(m) < 0.02] = -np.inf
        self._two(a, b)
        cdf = (cdf_05, ualpha_cdf(0.7), _step_cdf)[seed % 3]
        self._one(np.abs(a) if seed % 3 == 0 else a, cdf)

    @pytest.mark.parametrize("shift", [0, 1, _PIECE - 1])
    def test_tie_runs_across_pieces_and_blocks(self, shift):
        # runs of ties that start just before a piece, a block or a pass
        # of cuts ends and carry on past it
        lengths = [_PIECE - 2 + shift, 2 * _PIECE + 1, 5, _BLOCK + 3,
                   _CUTS * _PIECE + 9, 1, _PIECE]
        a = np.repeat(np.arange(len(lengths), dtype=float), lengths)
        b = np.repeat(np.arange(len(lengths), dtype=float) + 0.5 * (shift % 2),
                      lengths[::-1])
        self._two(a, b)
        self._two(a, a[::3])
        self._one(a - 3.0, _step_cdf)
        self._one(np.append(a, [np.inf, -np.inf]), ualpha_cdf(0.3))

    def test_disjoint_samples(self):
        a = np.arange(3 * _BLOCK + 5, dtype=float)
        assert self._two(a, a + 10 * _BLOCK) == 1.0
        assert self._two(-a - 1.0, a) == 1.0

    def test_one_sample_inside_one_piece_of_the_other(self):
        rng = np.random.default_rng(82)
        a = np.linspace(0.0, 1.0, 40 * _PIECE)
        b = rng.uniform(a[3 * _PIECE + 2], a[3 * _PIECE + 9], 3 * _BLOCK)
        b[:5] = a[3 * _PIECE + 2]
        assert self._two(a, b) > 0.9

    def test_every_piece_can_hold_the_maximum(self):
        # every gap is the same size, so no piece is passed over
        n = 3 * _BLOCK + 1
        s = (np.arange(n) + 0.5) / n
        assert self._one(s, lambda x: np.clip(x, 0.0, 1.0)) == \
            pytest.approx(0.5 / n)
        a = 2.0 * np.arange(n)
        assert self._two(a, a + 1.0) == pytest.approx(1.0 / n)

    def test_stable_cdf(self, cdf_05):
        z = sample_stable(0.5, np.random.default_rng(83), 3 * _BLOCK)
        z[:3] = [0.0, np.inf, 1e300]
        self._one(z, cdf_05)

    def test_cdf_decreasing_at_the_cuts_raises(self):
        # a CDF must not decrease; where it visibly does, between two
        # cuts, the bounds are void and the core raises
        s = np.linspace(0.0, 1.0, 10 * _PIECE)
        with pytest.raises(DomainError, match="non-decreasing"):
            ks_one_sample(s, lambda x: 1.0 - np.asarray(x))
        with pytest.raises(DomainError, match="non-decreasing"):
            ks_one_sample(s, lambda x: np.where(np.asarray(x) > 0.5, 0.2,
                                                np.asarray(x)))

    def test_cdf_wobbling_within_the_slack_is_allowed(self):
        # a plateau whose values dip by 4e-13 here and there, as rounding
        # can make a CDF do: the cut values decrease, within the slack
        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.5, 0.25 - 4e-13 * (np.floor(x * 997) % 2),
                            x)

        s = np.linspace(0.0, 1.0, 40 * _PIECE)
        assert np.any(np.diff(cdf(s[::_PIECE])) < 0.0)
        self._one(s, cdf)


class TestKsTwoAllLive:
    def test_million_interleaved_values(self):
        # every gap is the same size, so every piece is live and each
        # batch searches its own slice of b, adding the slice's offset
        # back
        n = 10 ** 6
        a = 2.0 * np.arange(n)
        b = a + 1.0
        ref = ks_reference.merged_gap(a, b)
        assert ref == pytest.approx(1.0 / n)
        rng = np.random.default_rng(84)
        assert _ks_two(rng.permutation(a), rng.permutation(b)).statistic \
            == ref
        assert _ks_two(b.copy(), a.copy()).statistic == ref


class TestKsNan:
    """A NaN sample has no empirical CDF: the KS functions and their
    cores raise DomainError; infinite samples are allowed."""

    @pytest.mark.parametrize("a,b", [([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0]),
                                     ([1.0, 2.0, 3.0], [2.0, math.nan]),
                                     ([math.nan], [math.nan])])
    def test_two_sample(self, a, b):
        with pytest.raises(DomainError, match="NaN"):
            ks_two_sample(a, b)
        with pytest.raises(DomainError, match="NaN"):
            _ks_two(np.array(a), np.array(b))

    def test_one_sample(self):
        with pytest.raises(DomainError, match="NaN"):
            ks_one_sample([0.2, math.nan, 0.5], lambda x: x)
        with pytest.raises(DomainError, match="NaN"):
            _ks_one(np.array([math.nan, 0.5]), lambda x: x)

    def test_infinities_allowed(self):
        res = ks_two_sample([-math.inf, 1.0, math.inf], [1.0, 2.0, math.inf])
        assert res.statistic == pytest.approx(1.0 / 3.0)
        res = ks_one_sample([0.5, math.inf],
                            lambda x: np.clip(x, 0.0, 1.0))
        assert res.statistic == 0.5


class TestKsShapes:
    """Samples of any shape count as flat samples."""

    def test_one_sample(self):
        z = sample_stable(0.5, np.random.default_rng(61), (3, 4))
        kept = z.copy()
        cdf = build_cdf(0.5)
        assert ks_one_sample(z, cdf) == ks_one_sample(z.ravel(), cdf)
        assert np.array_equal(z, kept)

    def test_two_sample(self):
        rng = np.random.default_rng(62)
        a = rng.integers(0, 5, (3, 4)).astype(float)
        b = rng.integers(0, 6, (3, 4)).astype(float)
        kept = a.copy(), b.copy()
        res = ks_two_sample(a, b)
        assert res == ks_two_sample(a.ravel(), b.ravel())
        assert res.n_samples == 12 and res.m_samples == 12
        assert np.array_equal(a, kept[0]) and np.array_equal(b, kept[1])
        assert ks_two_sample(a, b[:1]) == ks_two_sample(a.ravel(), b[0])

    def test_strided_samples(self):
        a = np.random.default_rng(63).standard_normal((50, 40))
        assert (ks_two_sample(a.T, a[::2]) ==
                ks_two_sample(a.T.ravel(), a[::2].ravel()))


class TestWorkingSet:
    """numpy reports its allocations to tracemalloc, so these traced
    peaks repeat exactly; bounds are in arrays of n doubles."""

    N = 200_000

    @staticmethod
    def _peak(fn):
        fn()  # first-call set-up is not part of the working set
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_factorization_mc(self):
        # the two samples and block-sized temporaries
        peak = self._peak(lambda: check_factorization_mc(3, 7, self.N, 71))
        assert peak <= 2.5 * 8 * self.N

    def test_diff_identity(self):
        peak = self._peak(lambda: check_diff_identity(0.4, self.N, 73))
        assert peak <= 2.5 * 8 * self.N

    def test_sampler_ks(self):
        # the draws on top of the CDF build, whose size does not grow
        # with the sample
        cdf = self._peak(lambda: build_cdf(0.5))
        peak = self._peak(lambda: check_sampler_ks(0.5, self.N, 74))
        assert peak <= cdf + 1.5 * 8 * self.N

    def test_sample_stable(self):
        peak = self._peak(lambda: sample_stable(
            0.5, np.random.default_rng(72), self.N))
        assert peak <= 1.5 * 8 * self.N

    def test_factor_list_sample(self):
        fl = lemma2_product(3, 7)
        peak = self._peak(lambda: fl.sample(np.random.default_rng(75),
                                            self.N))
        assert peak <= 1.25 * 8 * self.N

    def test_ks_cores_do_not_grow_with_n(self):
        # every piece can hold the maximum, so every batch is full: the
        # cores' extra peak at 10^6 is that at 2 10^5 but for a few KB,
        # where an array of n/_PIECE doubles would add 100 KB
        def extra(n):
            s = (np.arange(n) + 0.5) / n
            a = 2.0 * np.arange(n)
            cdf = lambda x: np.clip(x, 0.0, 1.0)  # noqa: E731
            return (self._peak(lambda: _ks_one(s.copy(), cdf)) - 8 * n,
                    self._peak(lambda: _ks_two(a.copy(), a + 1.0))
                    - 3 * 8 * n)

        small, big = extra(self.N), extra(5 * self.N)
        assert big[0] <= small[0] + 16_384
        assert big[1] <= small[1] + 16_384

    def test_ks_cores(self):
        # beyond the samples they sort, the cores hold block-sized
        # temporaries only
        cdf = build_cdf(0.5)
        z = sample_stable(0.5, np.random.default_rng(76), self.N)
        other = np.random.default_rng(77).standard_normal(self.N)
        one = self._peak(lambda: _ks_one(z.copy(), cdf)) - 8 * self.N
        two = self._peak(lambda: _ks_two(z.copy(), other.copy())) \
            - 2 * 8 * self.N
        assert one <= 0.5 * 8 * self.N
        assert two <= 0.5 * 8 * self.N


class TestStableCdf:
    def test_against_closed_form_half(self):
        cdf = build_cdf(0.5)
        xs = np.geomspace(0.05, 500.0, 200)
        ref = np.array([math.erfc(0.5 / math.sqrt(x)) for x in xs])
        assert np.max(np.abs(cdf(xs) - ref)) < 5e-5

    def test_monotone_and_bounded(self):
        cdf = build_cdf(0.7)
        xs = np.geomspace(1e-3, 1e6, 500)
        vals = cdf(xs)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] >= 0.0 and vals[-1] <= 1.0

    def test_far_tail_uses_series(self):
        cdf = build_cdf(0.3)
        x = 1e20
        assert cdf(x) == pytest.approx(1.0 - survival_series(0.3, x).value,
                                       abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_tail_series_once_per_cutoff(self, alpha, monkeypatch):
        # the anchor is the tail that ended the search for the right
        # end, not a second call at that end
        for survival in (False, True):
            # cached, so that only build_cdf's own calls are counted
            verify.dens.reliable_x_min(verify.dens.as_alpha(alpha), survival)
        calls = []
        real = verify.dens.survival_series

        def counting(a, x, *args, **kwargs):
            calls.append(x)
            return real(a, x, *args, **kwargs)

        monkeypatch.setattr(verify.dens, "survival_series", counting)
        cdf = build_cdf(alpha)
        monkeypatch.undo()
        assert len(set(calls)) == len(calls)
        assert math.exp(cdf.log_xs[-1]) == pytest.approx(calls[-1], rel=1e-14)
        assert cdf.values[-1] == 1.0 - survival_series(alpha, calls[-1]).value

    def test_above_grid_matches_scalar_series(self):
        cdf = build_cdf(0.3)
        xs = np.geomspace(math.exp(cdf.log_xs[-1]) * 1.5, 1e30, 40)
        ref = [1.0 - survival_series(0.3, float(x)).value for x in xs]
        assert cdf(xs).tolist() == ref


class TestUalphaCdf:
    def test_against_arctan_closed_form(self):
        # int u_a = (1/(pi a)) [arctan((e^{a x} + cos(pi a)) / sin(pi a))]
        a = 0.4
        cdf = ualpha_cdf(a)
        spa, cpa = math.sin(math.pi * a), math.cos(math.pi * a)

        def closed(x):
            return (math.atan((math.exp(a * x) + cpa) / spa)
                    - (math.pi / 2.0 - math.pi * a)) / (math.pi * a)

        # trapezoid grid error ~3e-6, far below the KS budget of 1.6e-3
        for x in (-30.0, -3.0, 0.0, 2.5, 40.0):
            assert cdf(np.array([x]))[0] == pytest.approx(closed(x), abs=1e-5)

    @pytest.mark.parametrize("a", [0.1, 0.4, 0.5, 0.8, 0.95])
    def test_against_arctan_form_in_mpmath(self, a):
        # the arctan form above, in 40 digits, where e^{a x} overflows
        # doubles; ualpha_cdf evaluates the tanh form instead
        half = np.geomspace(1e-3, 1e4, 60)
        xs = np.concatenate([-half[::-1], [0.0], half])
        got = ualpha_cdf(a)(xs)
        with mp.workdps(40):
            pa = mp.pi * mp.mpf(a)
            ref = [float((mp.atan((mp.exp(mp.mpf(a) * mp.mpf(x)) + mp.cos(pa))
                                  / mp.sin(pa)) - (mp.pi / 2 - pa)) / pa)
                   for x in xs.tolist()]
        assert np.max(np.abs(got - np.array(ref))) < 1e-13

    def test_scalar_and_array_shapes(self):
        cdf = ualpha_cdf(0.5)
        assert cdf(0.0).shape == (1,) and cdf(0.0)[0] == 0.5
        assert cdf(np.zeros((2, 3))).shape == (2, 3)


class TestChecks:
    @staticmethod
    def _report(entry: dict) -> dict:
        """The report of one check entry, run as run_acceptance runs it."""
        (report,) = run_acceptance({"checks": [{"name": "e", **entry}]})[
            "checks"]
        return report

    def test_laplace_check_passes(self):
        rep = self._report({"kind": "laplace", "alpha": 0.5,
                            "lambdas": [0.0, 1.0], "threshold": 1e-5})
        assert rep["pass"]
        assert rep["discrepancy"] < 1e-6
        assert list(rep["details"]["per_lambda"]) == ["0.0", "1.0"]

    def test_laplace_check_respects_threshold(self):
        rep = self._report({"kind": "laplace", "alpha": 0.5,
                            "lambdas": [1.0], "threshold": 1e-16})
        assert not rep["pass"]

    def test_laplace_check_needs_a_lambda(self):
        # an empty list would pass with nothing checked; the error names
        # the check and the key
        with pytest.raises(ValueError, match="^check 'e': no cases in "
                           "lambdas$"):
            self._report({"kind": "laplace", "alpha": 0.5, "lambdas": [],
                          "threshold": 1e-5})

    @pytest.mark.parametrize("lambdas", [[0.5, 0.5, 1.0], [1, 1.0]])
    def test_laplace_check_rejects_a_repeated_lambda(self, lambdas):
        # per_lambda kept one entry for [0.5, 0.5, 1], so 2 of 3 cases
        # were reported; 1 and 1.0 are one lambda under two keys
        with pytest.raises(ValueError, match="^check 'e': repeated cases"):
            self._report({"kind": "laplace", "alpha": 0.5,
                          "lambdas": lambdas, "threshold": 1e-5})

    def test_diff_identity(self):
        rep = check_diff_identity(0.5, 100_000, seed=3)
        assert rep.passed

    def test_diff_identity_symmetry(self):
        # the difference of two iid copies is symmetric
        from stable_msu.factorizations import sample_stable
        rng = np.random.default_rng(8)
        d = np.log(sample_stable(0.6, rng, 100_000)) \
            - np.log(sample_stable(0.6, rng, 100_000))
        res = ks_two_sample(d, -d)
        assert res.passed

    def test_diff_identity_small_alpha_finite(self):
        # at alpha = 0.01 about 1 in 1000 draws of Z overflows a double;
        # the check works with the logs and never forms Z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_diff_identity(0.01, 100_000, seed=11)
        assert math.isfinite(rep.discrepancy) and rep.passed

    def test_diff_identity_draws_are_the_samplers_logs(self):
        # same random stream: exponentiated, the log-space draws are
        # sample_stable's draws bit for bit
        logs = _log_stable(0.6, np.random.default_rng(12), 10_000)
        z = sample_stable(0.6, np.random.default_rng(12), 10_000)
        assert np.array_equal(np.exp(logs), z)

    def test_diff_identity_needs_samples(self):
        with pytest.raises(PreconditionError):
            check_diff_identity(0.5, 100, seed=1)

    def test_factorization_mc(self):
        rep = check_factorization_mc(2, 5, 150_000, seed=21)
        assert rep.passed

    def test_factorization_mc_bad_pair(self):
        with pytest.raises(PreconditionError):
            check_factorization_mc(2, 4, 10_000, seed=1)

    def test_sampler_ks(self):
        rep = check_sampler_ks(0.5, 100_000, seed=5)
        assert rep.passed

    def test_mellin_factorization(self):
        rep = self._report({"kind": "lemma2_mellin", "pairs": [[2, 5]],
                            "s_values": [0.1, 0.5, 1.0, 2.0, 5.0],
                            "threshold": 1e-10})
        assert rep["pass"]
        assert rep["discrepancy"] < 1e-12

    def test_mellin_factorization_needs_an_s(self):
        # it used to pass with nothing checked
        with pytest.raises(ValueError, match="^check 'e': no cases in "
                           "s_values$"):
            self._report({"kind": "lemma2_mellin", "pairs": [[2, 5]],
                          "s_values": [], "threshold": 1e-10})

    @pytest.mark.parametrize("s_values", [[0.5, 2.0, 0.5], [2, 2.0]])
    def test_mellin_factorization_rejects_a_repeated_s(self, s_values):
        with pytest.raises(ValueError, match="^check 'e': repeated cases"):
            self._report({"kind": "lemma2_mellin", "pairs": [[2, 5]],
                          "s_values": s_values, "threshold": 1e-10})


class TestInPlaceBuffers:
    """The Monte-Carlo checks reuse their draw buffers; each result is
    bit-identical to the out-of-place expression on the same seed."""

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 7)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_factor_list_sample(self, p, n, seed):
        fl = lemma2_product(p, n)
        rng = np.random.default_rng(seed)
        got = fl.sample(rng, 5_000)
        ref_rng = np.random.default_rng(seed)
        ref = johnk_reference.product_sample(fl, ref_rng, 5_000)
        assert np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_factor_list_scalar(self):
        fl = lemma2_product(2, 5)
        rng = np.random.default_rng(4)
        got = fl.sample(rng)
        ref_rng = np.random.default_rng(4)
        ref = johnk_reference.product_sample(fl, ref_rng, None)
        assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
        assert got == ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("p,n,seed", [(2, 5, 21), (3, 7, 22), (3, 8, 23)])
    def test_factorization_mc(self, p, n, seed):
        rep = check_factorization_mc(p, n, 20_000, seed)
        rng = np.random.default_rng(seed)
        z = sample_stable(p / n, rng, 20_000) ** (-float(p))
        prod = lemma2_product(p, n).sample(rng, 20_000)
        assert rep.discrepancy == ks_two_sample(z, prod).statistic

    @pytest.mark.parametrize("alpha,seed", [(0.3, 31), (0.6, 32), (0.8, 33)])
    def test_diff_identity(self, alpha, seed):
        rep = check_diff_identity(alpha, 10_000, seed)
        rng = np.random.default_rng(seed)
        diff = (np.log(sample_stable(alpha, rng, 10_000))
                - np.log(sample_stable(alpha, rng, 10_000)))
        assert rep.discrepancy == ks_one_sample(diff,
                                                ualpha_cdf(alpha)).statistic


class TestMonteCarloWorkers:
    """Checks 07 and 08 run their cases on up to two threads; each case
    seeds its own Generator, so the reports do not depend on the worker
    count or on where the threads switch."""

    CONFIG = {"checks": [
        {"name": "fidelity", "kind": "sampler_fidelity",
         "alphas": [0.3, 0.7], "pairs": [[2, 5], [3, 7]],
         "n_samples": 20_000, "seed": 5},
        {"name": "diff", "kind": "diff_identity", "alphas": [0.4, 0.8],
         "n_samples": 20_000, "seed": 6},
    ]}

    def test_reports_equal_with_one_and_two_workers(self, monkeypatch):
        monkeypatch.setattr(verify, "_MC_WORKERS", 1)
        one = run_acceptance(self.CONFIG)
        monkeypatch.setattr(verify, "_MC_WORKERS", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            two = run_acceptance(self.CONFIG)
        finally:
            sys.setswitchinterval(interval)
        assert json.dumps(two) == json.dumps(one)
        assert list(two["checks"][1]["details"]) == [
            "one-sample-0.3", "one-sample-0.7", "two-sample-2-5",
            "two-sample-3-7"]

    def test_cases_run_on_worker_threads(self, monkeypatch):
        # with more than one CPU the cases leave the calling thread
        monkeypatch.setattr(verify.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        threads = []
        real = verify.check_diff_identity

        def spy(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(verify, "check_diff_identity", spy)
        run_acceptance({"checks": [self.CONFIG["checks"][1]]})
        assert len(threads) == 2 and threading.get_ident() not in threads

    def test_a_failing_case_raises_in_the_caller(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("case failed")

        monkeypatch.setattr(verify, "check_diff_identity", boom)
        with pytest.raises(RuntimeError, match="case failed"):
            run_acceptance({"checks": [self.CONFIG["checks"][1]]})


class TestRunAcceptance:
    def test_empty_config(self):
        summary = run_acceptance({})
        assert summary == {"schema": 1, "n_checks": 0, "all_pass": True,
                           "checks": []}

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            run_acceptance({"checks": [{"name": "x", "kind": "nope"}]})

    def test_missing_name_raises(self):
        with pytest.raises(ValueError):
            run_acceptance({"checks": [{"kind": "tail_sign"}]})

    @pytest.mark.parametrize("config,match", [
        ([1, 2], "an object with a list of checks"),
        ({"checks": {"a": 1}}, "an object with a list of checks"),
        ({"checks": [1]}, "a check must be an object"),
        ({"checks": [{"name": "t", "kind": ["tail_sign"]}]}, "unknown"),
        ({"checks": [{"name": 5, "kind": "tail_sign"},
                     {"name": "a", "kind": "tail_sign"}]}, "got 5"),
        ({"checks": [{"name": "t", "kind": "tail_sign"},
                     {"name": "t", "kind": "ualpha_dichotomy"}]}, "got 't'"),
        ({"chekcs": [{"name": "t", "kind": "tail_sign"}]},
         "unknown config keys \\['chekcs'\\]"),
        ({"schema": 2, "checks": [{"name": "t", "kind": "tail_sign"}]},
         "schema must be 1, got 2"),
        ({"schema": True, "checks": [{"name": "t", "kind": "tail_sign"}]},
         "schema must be 1, got True"),
    ])
    def test_malformed_config_raises_before_any_check(self, monkeypatch,
                                                      config, match):
        # these raised AttributeError or TypeError (after every check, in
        # the sort by name), or gave two reports under one name; a
        # misspelled "checks" ran nothing and passed, and a schema other
        # than 1 ran its checks as if it were 1
        ran = self._stub_checks(monkeypatch)
        with pytest.raises(ValueError, match=match):
            run_acceptance(config)
        assert ran == []

    @staticmethod
    def _stub_checks(monkeypatch):
        """Replace every check by a passing stub; returns the names run."""
        ran = []

        def stub(params):
            ran.append(params["name"])
            return IdentityReport(params["name"], 0.0, 1.0, True)

        for kind in list(CHECK_KINDS):
            monkeypatch.setitem(CHECK_KINDS, kind, stub)
        return ran

    def test_unknown_key_raises_before_any_check(self, monkeypatch):
        # "pionts" would otherwise run the default 400-point scan
        ran = self._stub_checks(monkeypatch)
        with pytest.raises(ValueError, match="pionts"):
            run_acceptance({"checks": [
                {"name": "t", "kind": "tail_sign", "alpha_step": 0.2},
                {"name": "typo", "kind": "msu_dichotomy",
                 "alphas_msu": [0.3], "pionts": 16},
            ]})
        assert ran == []

    @pytest.mark.parametrize("report,field", [
        (IdentityReport("bad", math.inf, 1.0, False), "discrepancy is inf"),
        (IdentityReport("bad", 0.5, 1.0, True,
                        details={"per_lambda": {"0.5": math.nan}}),
         "details.per_lambda.0.5 is nan"),
        (IdentityReport("bad", 0.5, 1.0, True,
                        details={"scans": [1.0, -math.inf]}),
         "details.scans.1 is -inf"),
    ])
    def test_non_finite_report_raises_before_the_next_check(
            self, monkeypatch, report, field):
        # the JSON write refused such a report only after every check of
        # the config had run, and named neither the check nor the field
        ran = self._stub_checks(monkeypatch)
        monkeypatch.setitem(CHECK_KINDS, "laplace", lambda params: report)
        with pytest.raises(ValueError, match=f"check 'bad': {field}, not a "
                           "finite number"):
            run_acceptance({"checks": [
                {"name": "t", "kind": "tail_sign", "alpha_step": 0.2},
                {"name": "bad", "kind": "laplace", "alpha": 0.5,
                 "lambdas": [1.0], "threshold": 1e-5},
                {"name": "u", "kind": "tail_sign", "alpha_step": 0.2}]})
        assert ran == ["t"]

    @pytest.mark.parametrize("entry,x", [
        ({"kind": "half_alpha_residual", "xs": [0.01], "threshold": 1e-7},
         "0.01"),
        ({"kind": "half_alpha_residual", "xs": [1.0, 8e-4, 2.0],
          "threshold": 1e-7}, "0.0008"),
        ({"kind": "closed_form", "alpha": [1, 2], "threshold": 1e-8,
          "x_lo": 1e-4}, "0.0001"),
    ])
    def test_unreliable_series_point_raises(self, entry, x):
        # check 05 at x = 0.01 failed with discrepancy 1.24e15 from a
        # residual of 0.476 +- 30 flagged unreliable; skipping such a
        # point could pass an entry with nothing compared
        with pytest.raises(ValueError, match=f"check 'bad': the series is "
                           f"flagged unreliable at x = {x}$"):
            run_acceptance({"checks": [{"name": "bad", **entry}]})

    def test_default_config_keys_validate(self, monkeypatch):
        ran = self._stub_checks(monkeypatch)
        summary = run_acceptance(DEFAULT_ACCEPTANCE_CONFIG)
        assert summary["all_pass"]
        assert ran == [c["name"] for c in DEFAULT_ACCEPTANCE_CONFIG["checks"]]

    def test_small_config_passes_and_is_deterministic(self):
        config = {"checks": [
            {"name": "mellin", "kind": "lemma2_mellin", "pairs": [[2, 5]],
             "s_values": [0.5, 1.0], "threshold": 1e-10},
            {"name": "tails", "kind": "tail_sign", "alpha_step": 0.1},
        ]}
        s1 = run_acceptance(config)
        s2 = run_acceptance(config)
        assert s1["all_pass"]
        assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)

    def test_expecting_msu_at_point_six_fails(self):
        # the scan finds a violation, so declaring 0.6 as MSU must fail
        config = {"checks": [
            {"name": "wrong-expectation", "kind": "msu_dichotomy",
             "alphas_msu": [0.6], "x_lo": 0.5, "x_hi": 50.0, "points": 200},
        ]}
        summary = run_acceptance(config)
        assert not summary["all_pass"]
        assert summary["checks"][0]["details"]["misclassified"] == [0.6]

    def test_config_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"checks": [
            {"name": "t", "kind": "tail_sign", "alpha_step": 0.2}]}))
        summary = run_acceptance(str(path))
        assert summary["all_pass"]
        assert summary["n_checks"] == 1

    def test_config_as_long_json_text(self, monkeypatch):
        # the built-in config as JSON text is longer than a file name may
        # be; it must be parsed, not looked up on disk.  Checks 04-06 run,
        # the others are stubbed out to keep the test short.
        text = json.dumps(DEFAULT_ACCEPTANCE_CONFIG)
        assert len(text) > 255
        real = dict(CHECK_KINDS)
        ran = []

        def dispatch(kind):
            def run(params):
                ran.append(params["name"])
                if params["name"][:3] in ("04-", "05-", "06-"):
                    return real[kind](params)
                return IdentityReport(params["name"], 0.0, 1.0, True)
            return run

        for kind in real:
            monkeypatch.setitem(CHECK_KINDS, kind, dispatch(kind))
        summary = run_acceptance("\n  " + text)
        assert ran == [c["name"] for c in DEFAULT_ACCEPTANCE_CONFIG["checks"]]
        assert summary["all_pass"]
        direct = run_acceptance({"checks": [
            c for c in DEFAULT_ACCEPTANCE_CONFIG["checks"]
            if c["name"][:3] in ("04-", "05-", "06-")]})
        assert [c for c in summary["checks"]
                if c["name"][:3] in ("04-", "05-", "06-")] == direct["checks"]

    def test_config_from_path_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"checks": [
            {"name": "t", "kind": "tail_sign", "alpha_step": 0.2}]}))
        assert run_acceptance(path)["n_checks"] == 1

    def test_non_json_string_is_a_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_acceptance(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize("entry", [
        {"kind": "laplace", "alpha": 0.5, "lambdas": [], "threshold": 1e-5},
        {"kind": "laplace", "alpha": 0.5, "threshold": 1e-5},
        {"kind": "msu_dichotomy"},
        {"kind": "msu_dichotomy", "alphas_violation": [], "alphas_msu": []},
        {"kind": "half_alpha_residual", "xs": [], "threshold": 1e-7},
        {"kind": "lemma2_mellin", "pairs": [], "s_values": [1.0],
         "threshold": 1e-10},
        {"kind": "lemma2_mellin", "pairs": [[2, 5]], "s_values": [],
         "threshold": 1e-10},
        {"kind": "sampler_fidelity"},
        {"kind": "sampler_fidelity", "alphas": [], "pairs": []},
        {"kind": "diff_identity", "alphas": []},
        {"kind": "lemma1_inequality", "triples": [], "floor": -1e-10},
        {"kind": "bb_crosscheck", "alphas": [], "threshold": 1e-5},
    ])
    def test_empty_case_list_raises_before_any_check(self, monkeypatch,
                                                     entry):
        ran = self._stub_checks(monkeypatch)
        with pytest.raises(ValueError, match="no cases"):
            run_acceptance({"checks": [
                {"name": "t", "kind": "tail_sign", "alpha_step": 0.2},
                {"name": "empty", **entry}]})
        assert ran == []

    def test_one_nonempty_list_of_a_group_suffices(self, monkeypatch):
        ran = self._stub_checks(monkeypatch)
        run_acceptance({"checks": [
            {"name": "a", "kind": "sampler_fidelity", "alphas": [],
             "pairs": [[2, 5]]},
            {"name": "b", "kind": "msu_dichotomy", "alphas_msu": [0.3]},
            {"name": "c", "kind": "half_alpha_residual", "threshold": 1e-7},
        ]})
        assert ran == ["a", "b", "c"]

    @pytest.mark.parametrize("entry,match", [
        ({"kind": "sampler_fidelity", "pairs": [[2, 4]]}, "n > 2p"),
        ({"kind": "sampler_fidelity", "pairs": [[1, 5]]}, "p >= 2"),
        ({"kind": "sampler_fidelity", "alphas": [0.5], "pairs": [[2, 5], [3, 6]]},
         "n > 2p"),
        ({"kind": "sampler_fidelity", "alphas": [0.5], "n_samples": 0},
         "at least 1"),
        ({"kind": "diff_identity", "alphas": [0.5], "n_samples": 9_999},
         "at least 10000"),
        ({"kind": "diff_identity", "alphas": [0.4, 0.4]}, "repeated"),
        ({"kind": "diff_identity", "alphas": [0.3, 0.3000000001]},
         "repeated"),
        ({"kind": "sampler_fidelity", "alphas": [0.3, 0.5, 0.3]}, "repeated"),
        ({"kind": "sampler_fidelity", "pairs": [[2, 5], [2, 5]]}, "repeated"),
        ({"kind": "diff_identity", "alphas": [0.5], "n_samples": [1]},
         "n_samples must be an integer"),
        ({"kind": "sampler_fidelity", "alphas": [0.5], "n_samples": 1.5},
         "n_samples must be an integer"),
        ({"kind": "diff_identity", "alphas": [0.5], "seed": True},
         "seed must be an integer at least 0"),
        ({"kind": "sampler_fidelity", "alphas": [0.5], "seed": -1},
         "seed must be an integer at least 0"),
    ])
    def test_malformed_monte_carlo_entry_raises_before_any_check(
            self, monkeypatch, entry, match):
        # a bad pair or too few samples would raise only when the check
        # ran, after every check before it; a repeated case shares its
        # details key with another, so one of their reports would be lost.
        # A list n_samples raised TypeError, 1.5 was truncated to one draw.
        ran = self._stub_checks(monkeypatch)
        with pytest.raises(ValueError, match=match):
            run_acceptance({"checks": [
                {"name": "t", "kind": "tail_sign", "alpha_step": 0.2},
                {"name": "mc", **entry}]})
        assert ran == []

    @pytest.mark.parametrize("entry", [
        {"kind": "closed_form", "alpha": 1.5, "threshold": 1e-8},
        {"kind": "closed_form", "alpha": [1, 1], "threshold": 1e-8},
        {"kind": "laplace", "alpha": 0.0, "lambdas": [1.0],
         "threshold": 1e-5},
        {"kind": "msu_dichotomy", "alphas_violation": [0.6, 1.2]},
        {"kind": "msu_dichotomy", "alphas_msu": [-0.3]},
        {"kind": "sampler_fidelity", "alphas": [1.0]},
        {"kind": "diff_identity", "alphas": [1.5]},
        {"kind": "bb_crosscheck", "alphas": [math.nan], "threshold": 1e-5},
    ])
    def test_bad_alpha_raises_before_any_check(self, monkeypatch, entry):
        # it used to raise only when its check ran, after every check
        # before it
        ran = self._stub_checks(monkeypatch)
        with pytest.raises(DomainError, match="alpha"):
            run_acceptance({"checks": [
                {"name": "t", "kind": "tail_sign", "alpha_step": 0.2},
                {"name": "bad", **entry}]})
        assert ran == []

    @pytest.mark.parametrize("entry,error,match", [
        ({"kind": "closed_form", "alpha": [1, 0], "threshold": 1e-8},
         DomainError, "two integers"),
        ({"kind": "closed_form", "alpha": [1, -3], "threshold": 1e-8},
         DomainError, "two integers"),
        ({"kind": "closed_form", "alpha": [1, 2, 3], "threshold": 1e-8},
         DomainError, "two integers"),
        ({"kind": "closed_form", "alpha": [1.5, 3], "threshold": 1e-8},
         DomainError, "two integers"),
        ({"kind": "closed_form", "alpha": "0.5", "threshold": 1e-8},
         DomainError, "number"),
        ({"kind": "closed_form", "alpha": True, "threshold": 1e-8},
         DomainError, "number"),
        ({"kind": "msu_dichotomy", "alphas_msu": [[1, 3]]},
         DomainError, "number"),
        ({"kind": "diff_identity", "alphas": 0.5}, ValueError,
         "alphas must be a list"),
        ({"kind": "laplace", "alpha": 0.5, "lambdas": 1.0,
          "threshold": 1e-5}, ValueError, "lambdas must be a list"),
        ({"kind": "lemma2_mellin", "pairs": [[2.7, 5]], "s_values": [1.0],
          "threshold": 1e-10}, ValueError, "two integers"),
        ({"kind": "sampler_fidelity", "pairs": [[2, 5, 1]]}, ValueError,
         "two integers"),
        ({"kind": "lemma2_mellin", "pairs": [[1, 5]], "s_values": [1.0],
          "threshold": 1e-10}, ValueError, "p >= 2"),
        ({"kind": "whitt_inequality", "safe_points": [3]}, ValueError,
         "safe_points must be an integer at least 1"),
        ({"kind": "closed_form", "alpha": 0.5, "threshold": 1e-8,
          "points": 2.9}, ValueError, "points must be an integer"),
        ({"kind": "closed_form", "alpha": 0.5, "threshold": "tiny"},
         ValueError, "threshold must be a finite number"),
        ({"kind": "laplace", "alpha": 0.5, "lambdas": [1.0],
          "threshold": math.nan}, ValueError,
         "threshold must be a finite number"),
        ({"kind": "lemma1_inequality", "triples": [[0.4, 0.6]],
          "floor": -1e-10}, ValueError, "triples must be a list of triples"),
        ({"kind": "msu_dichotomy", "alphas_msu": [0.3], "points": 8},
         ValueError, "points must be an integer at least 16"),
        ({"kind": "half_alpha_residual", "xs": [1.0, math.inf],
          "threshold": 1e-7}, ValueError, "xs must be a list of finite"),
        ({"kind": "tail_sign", "alpha_step": 1}, ValueError,
         "alpha_step must be a number in \\[1e-4, 0.4\\)"),
        ({"kind": "tail_sign", "alpha_step": 0.4}, ValueError,
         "alpha_step must be a number in \\[1e-4, 0.4\\)"),
        ({"kind": "ualpha_dichotomy", "alpha_step": 2}, ValueError,
         "alpha_step must be a number in \\[1e-4, 0.4\\)"),
        ({"kind": "ualpha_dichotomy", "alpha_step": 0.45}, ValueError,
         "alpha_step must be a number in \\[1e-4, 0.4\\)"),
        ({"kind": "closed_form", "alpha": 0.5, "threshold": 1e-8,
          "x_lo": 0}, ValueError, "x_lo must be a number in \\(0, 1e6\\]"),
        ({"kind": "msu_dichotomy", "alphas_msu": [0.3], "x_lo": 5,
          "x_hi": 1}, ValueError, "x_lo must be below x_hi, got 5 and 1"),
        ({"kind": "lemma1_inequality", "triples": [[0.4, 0.6, 0.9]],
          "floor": -1e-10, "x_lo": 30.0}, ValueError,
         "x_lo must be below x_hi, got 30.0 and 20.0"),
        ({"kind": "whitt_inequality", "x_hi": -1}, ValueError,
         "x_hi must be a number in \\(0, 1e6\\]"),
        ({"kind": "ualpha_dichotomy", "x_max": 0.0}, ValueError,
         "x_max must be a number in \\(0, 1e6\\]"),
        ({"kind": "tail_sign", "alpha_step": 1e-9}, ValueError,
         "alpha_step must be a number in \\[1e-4, 0.4\\)"),
        ({"kind": "ualpha_dichotomy", "alpha_step": 5e-5}, ValueError,
         "alpha_step must be a number in \\[1e-4, 0.4\\)"),
        ({"kind": "ualpha_dichotomy", "x_max": 1e308}, ValueError,
         "x_max must be a number in \\(0, 1e6\\]"),
        ({"kind": "closed_form", "alpha": [1, 2], "threshold": 1e-8,
          "x_hi": 1e300}, ValueError,
         "x_hi must be a number in \\(0, 1e6\\]"),
        ({"kind": "lemma2_mellin", "pairs": [[2, 5], [3, 7], [2, 5]],
          "s_values": [1.0], "threshold": 1e-10}, ValueError,
         "repeated cases \\['2/5'\\]"),
        ({"kind": "lemma1_inequality",
          "triples": [[0.4, 0.6, 0.9], [0.4, 0.6, 0.9]], "floor": -1e-10},
         ValueError, "repeated cases \\['\\(0.4,0.6,0.9\\)'\\]"),
    ])
    def test_malformed_spec_raises_before_any_check(self, monkeypatch, entry,
                                                    error, match):
        # these raised ZeroDivisionError or TypeError, raised only when
        # their check ran, or were truncated to integers and ran; a NaN
        # threshold ran every check, then failed the JSON write.  An
        # alpha_step of 0.4 or more tested one side of 1/2 at most and
        # passed, and one of 1e-9 swept about 10^9 alphas; a grid bound
        # at or below 0, or x_lo above x_hi, reached its check, which
        # raised, warned, or ran on a reversed or one-point grid, and
        # one of 1e300 or more overflowed its grid or closed form.  A
        # repeated pair or triple ran twice under one details key
        ran = self._stub_checks(monkeypatch)
        with pytest.raises(error, match=match):
            run_acceptance({"checks": [
                {"name": "t", "kind": "tail_sign", "alpha_step": 0.2},
                {"name": "bad", **entry}]})
        assert ran == []

    @pytest.mark.parametrize("entry,key", [
        ({"kind": "closed_form", "threshold": 1e-8}, "alpha"),
        ({"kind": "closed_form", "alpha": 0.5}, "threshold"),
        ({"kind": "laplace", "lambdas": [1.0], "threshold": 1e-5}, "alpha"),
        ({"kind": "laplace", "alpha": 0.5, "lambdas": [1.0]}, "threshold"),
        ({"kind": "half_alpha_residual"}, "threshold"),
        ({"kind": "lemma2_mellin", "pairs": [[2, 5]], "s_values": [1.0]},
         "threshold"),
        ({"kind": "lemma1_inequality", "triples": [[0.4, 0.6, 0.9]]},
         "floor"),
        ({"kind": "bb_crosscheck", "alphas": [0.3]}, "threshold"),
    ])
    def test_missing_required_key_raises_before_any_check(
            self, monkeypatch, entry, key):
        ran = self._stub_checks(monkeypatch)
        with pytest.raises(ValueError, match=f"missing keys \\['{key}'\\]"):
            run_acceptance({"checks": [
                {"name": "t", "kind": "tail_sign", "alpha_step": 0.2},
                {"name": "bad", **entry}]})
        assert ran == []

    @pytest.mark.parametrize("entry,match", [
        ({"kind": "half_alpha_residual", "xs": [1.0, -1.0],
          "threshold": 1e-7}, "xs must be a list of finite numbers, each "
         "above 0, got \\[1.0, -1.0\\]"),
        ({"kind": "half_alpha_residual", "xs": [0.0], "threshold": 1e-7},
         "xs must be"),
        ({"kind": "laplace", "alpha": 0.5, "lambdas": [-1.0],
          "threshold": 1e-5}, "lambdas must be a list of finite numbers, "
         "each 0 or above about 5.6e-307, got \\[-1.0\\]"),
        ({"kind": "laplace", "alpha": 0.5, "lambdas": [0.0, 1e-310],
          "threshold": 1e-5}, "lambdas must be"),
        ({"kind": "lemma2_mellin", "pairs": [[2, 5]], "s_values": [-3.0],
          "threshold": 1e-10}, "s_values must lie in \\(-0.2, inf\\) for "
         "pair \\[2, 5\\], got -3.0"),
        ({"kind": "lemma2_mellin", "pairs": [[2, 5]], "s_values": [-0.2],
          "threshold": 1e-10}, "s_values must lie in \\(-0.2, inf\\)"),
        ({"kind": "lemma2_mellin", "pairs": [[2, 5], [4, 9]],
          "s_values": [1.0, -0.15], "threshold": 1e-10},
         "s_values must lie in \\(-0.1111111111111111, inf\\) for pair "
         "\\[4, 9\\], got -0.15"),
        ({"kind": "lemma1_inequality", "triples": [[0.4, 1.5, 0.9]],
          "floor": -1e-10}, "triples must be a list of triples \\[a, b, c\\] "
         "of finite numbers with 0 < b <= 1 and a \\+ b >= c"),
        ({"kind": "lemma1_inequality", "triples": [[0.4, 0.6, 1.1]],
          "floor": -1e-10}, "triples must be"),
        ({"kind": "lemma1_inequality", "triples": [[0.4, 0.0, 0.3]],
          "floor": -1e-10}, "triples must be"),
        ({"kind": "half_alpha_residual", "xs": [1, 2.0, 1.0],
          "threshold": 1e-7}, "repeated cases \\[1.0\\]"),
        ({"kind": "bb_crosscheck", "alphas": [0.3, 0.5, 0.3],
          "threshold": 1e-5}, "repeated cases \\[0.3\\]"),
    ], ids=["negative-x", "zero-x", "negative-lambda", "tiny-lambda",
            "s-below-domain", "s-at-bound", "s-below-second-pair",
            "b-above-1", "c-above-a-plus-b", "b-zero", "repeated-x",
            "repeated-bb-alpha"])
    def test_bad_case_raises_before_any_check(self, monkeypatch, entry,
                                              match):
        # the first ten raised DomainError or HypothesisError from their
        # check, naming neither the check nor the key, after every check
        # before them had run; a repeated x or alpha was checked twice
        ran = self._stub_checks(monkeypatch)
        with pytest.raises(ValueError, match=f"^check 'bad': {match}"):
            run_acceptance({"checks": [
                {"name": "t", "kind": "tail_sign", "alpha_step": 0.2},
                {"name": "bad", **entry}]})
        assert ran == []

    def test_lambda_rule_is_laplace_checks_own(self):
        # the rule takes a lambda exactly where laplace_check does
        ok = verify.CHECK_PARAMS["laplace"]["lambdas"][0].ok
        smallest = 100.0 / sys.float_info.max
        for lam in (0.0, -0.0, 1.0, 1e-300, smallest, math.nextafter(
                smallest, 1.0), math.nextafter(smallest, 0.0), 1e-310,
                5e-324, -1e-3, -1.0):
            try:
                laplace_check(0.5, lam)
                takes = True
            except DomainError:
                takes = False
            assert ok([lam]) == takes, lam

    def test_smallest_monte_carlo_entries_validate(self, monkeypatch):
        ran = self._stub_checks(monkeypatch)
        run_acceptance({"checks": [
            {"name": "a", "kind": "sampler_fidelity", "alphas": [0.5],
             "pairs": [[2, 5], [3, 7]], "n_samples": 1},
            {"name": "b", "kind": "diff_identity", "alphas": [0.4, 0.5],
             "n_samples": 10_000},
        ]})
        assert ran == ["a", "b"]

    def test_default_config_covers_all_kinds(self):
        kinds = {c["kind"] for c in DEFAULT_ACCEPTANCE_CONFIG["checks"]}
        assert kinds == {"closed_form", "laplace", "msu_dichotomy",
                         "tail_sign", "half_alpha_residual", "lemma2_mellin",
                         "sampler_fidelity", "diff_identity",
                         "ualpha_dichotomy", "whitt_inequality",
                         "lemma1_inequality", "bb_crosscheck"}


class TestCheckParams:
    """``verify.CHECK_PARAMS`` is the one declaration of what an entry of
    each check kind may hold; these tests keep the checks, the table and
    the README in step."""

    # each kind's required keys and one small case
    SMALLEST = {
        "closed_form": {"alpha": [1, 2], "threshold": 1e-8},
        "laplace": {"alpha": 0.5, "lambdas": [1.0], "threshold": 1e-5},
        "msu_dichotomy": {"alphas_msu": [0.3]},
        "tail_sign": {},
        "half_alpha_residual": {"threshold": 1e-7},
        "lemma2_mellin": {"pairs": [[2, 5]], "s_values": [1.0],
                          "threshold": 1e-10},
        "sampler_fidelity": {"pairs": [[2, 5]], "n_samples": 5_000},
        "diff_identity": {"alphas": [0.5], "n_samples": 10_000},
        "ualpha_dichotomy": {},
        "whitt_inequality": {},
        "lemma1_inequality": {"triples": [[0.4, 0.6, 0.9]],
                              "floor": -1e-10},
        "bb_crosscheck": {"alphas": [0.3], "threshold": 1e-5},
    }

    def test_table_covers_the_check_kinds(self):
        assert set(verify.CHECK_PARAMS) == set(CHECK_KINDS) == set(
            self.SMALLEST)

    def test_every_case_list_has_its_rules(self):
        # a list-valued key that no group holds would let an entry pass
        # with nothing checked, and a group that forms no case keys
        # would let it check one case twice
        for kind, spec in verify._KINDS.items():
            grouped = {key for keys in spec.groups for key in keys}
            lists = {key for key, (_, default) in spec.params.items()
                     if isinstance(default, tuple)}
            assert lists == grouped, kind
            assert all(map(callable, spec.groups.values())), kind
        entries = verify._entries({"checks": [
            {"name": kind, "kind": kind, **entry}
            for kind, entry in self.SMALLEST.items()]})
        for entry in entries:
            for keys, cases in verify._KINDS[entry["kind"]].groups.items():
                assert len(cases(entry)) == sum(map(len, (
                    entry[key] for key in keys))), (entry["name"], keys)

    def test_filled_entries_hold_every_key(self):
        entries = verify._entries({"checks": [
            {"name": kind, "kind": kind, **entry}
            for kind, entry in self.SMALLEST.items()]})
        for entry in entries:
            assert set(entry) == set(verify.CHECK_PARAMS[entry["kind"]]) \
                | {"name", "kind"}

    def test_every_default_passes_its_rule(self):
        for kind, params in verify.CHECK_PARAMS.items():
            for key, (rule, default) in params.items():
                if default is not verify._REQUIRED:
                    assert rule.ok(default), (kind, key, default)

    def test_each_kind_runs_on_its_smallest_entry(self):
        # every key a check reads that the entry leaves out must come
        # from the table, or the check raises KeyError
        summary = run_acceptance({"checks": [
            {"name": kind, "kind": kind, **entry}
            for kind, entry in self.SMALLEST.items()]})
        assert summary["n_checks"] == len(CHECK_KINDS)
        assert summary["all_pass"], [c["name"] for c in summary["checks"]
                                     if not c["pass"]]

    def test_readme_table_matches(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Acceptance config\n")[1]
        rows = [[cell.strip().strip("`") for cell in line.split("|")[1:-1]]
                for line in section.split("\n## ")[0].splitlines()
                if line.startswith("| `")]
        assert len(rows) == sum(map(len, verify.CHECK_PARAMS.values()))
        table = {}
        for kind, key, default, what in rows:
            table.setdefault(kind, {})[key] = (default, what)
        assert table == {
            kind: {key: ("required" if default is verify._REQUIRED
                         else json.dumps(default), rule.what)
                   for key, (rule, default) in params.items()}
            for kind, params in verify.CHECK_PARAMS.items()}


# what json.loads can give a key: it reads NaN and Infinity too, and an
# integer of any size
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024])
                | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10)


class TestConfigContract:
    """The config contract as a property (Claessen & Hughes, "QuickCheck",
    ICFP 2000): whatever JSON value one key of an entry holds, the others
    as in ``TestCheckParams.SMALLEST``, ``_entries`` returns, or raises a
    ValueError (DomainError among them) that names the check."""

    KEYS = [(kind, key) for kind, params in verify.CHECK_PARAMS.items()
            for key in params]

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.sampled_from(KEYS), _JSON_VALUES)
    @example(("closed_form", "threshold"), 10 ** 400)
    @example(("laplace", "lambdas"), [10 ** 400])
    @example(("laplace", "alpha"), [10 ** 400, 3])
    @example(("lemma2_mellin", "pairs"), [[2, 200]])
    @example(("lemma2_mellin", "s_values"), [1000.0])
    def test_entries_return_or_name_the_check(self, kind_key, value):
        kind, key = kind_key
        entry = {"name": "p", "kind": kind,
                 **TestCheckParams.SMALLEST[kind], key: value}
        try:
            verify._entries({"checks": [entry]})
        except ValueError as exc:
            assert str(exc).startswith("check 'p': "), exc
