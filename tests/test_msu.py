import math

import mpmath as mp
import numpy as np
import pytest

from stable_msu import density as density_mod
from stable_msu import msu as msu_mod
from stable_msu.density import (SeriesConfig, density_jet, density_jet_grid,
                                density_series)
from stable_msu.errors import DomainError, PoleError, UnreliableScanError
from stable_msu.msu import (NO_VIOLATION, VIOLATION, _bb_terms,
                            bb_expansion, bb_log_density, lce_residual,
                            msu_scan, tail_residual_sign,
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
            r = lce_residual(a, x)
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

    @pytest.mark.parametrize("x_lo,x_hi", [(1.0, math.inf), (math.nan, 2.0),
                                           (-math.inf, 2.0), (1.0, math.nan)])
    def test_non_finite_bound(self, x_lo, x_hi):
        # x_hi = inf used to scan a nan grid and report no violation
        with pytest.raises(DomainError):
            msu_scan(0.5, x_lo, x_hi, 64)

    @pytest.mark.parametrize("alpha", [0.65, 0.7, 0.8, 0.9])
    def test_inflection_bisection_stops_early(self, alpha, monkeypatch):
        # once sqrt(lo*hi) is lo or hi the bracket cannot move, so the
        # early stop must give the 60-step loop's result with fewer
        # theta-sums
        calls = []
        real_bisect = msu_mod.bisect_log

        def counting_bisect(below, lo, hi, *args, **kwargs):
            calls.append(0)

            def counting_below(x):
                calls[-1] += 1
                return below(x)
            return real_bisect(counting_below, lo, hi, *args, **kwargs)

        monkeypatch.setattr(msu_mod, "bisect_log", counting_bisect)
        rep = msu_scan(alpha, 0.5, 50.0, 400)
        assert rep.inflection_estimate is not None

        # the scan's bracket: the first f'' sign change from the mode on
        grid = rep.grid
        fpp = density_jet_grid(alpha, np.array(grid)).fpp.value
        reliable = [i for i, r in enumerate(rep.residuals) if r.reliable]
        prev = None
        for i in reliable:
            if grid[i] >= rep.mode_estimate and prev is not None \
                    and fpp[prev] < 0.0 <= fpp[i]:
                break
            prev = i
        lo, hi = grid[prev], grid[i]
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if density_jet(alpha, mid).fpp.value < 0.0:
                lo = mid
            else:
                hi = mid
        assert rep.inflection_estimate == 0.5 * (lo + hi)
        # the mode's bisection where the mode lies inside the grid, then
        # the inflection's; each stops early
        assert 1 <= len(calls) <= 2 and all(n < 60 for n in calls)

    @pytest.mark.parametrize("x_lo,x_hi,points", [
        (0.05, 5.0, 200), (0.08, 50.0, 120), (0.1, 1.0, 64)])
    def test_half_mode_is_one_sixth(self, x_lo, x_hi, points):
        # f_{1/2} = x^{-3/2} e^{-1/(4x)} / (2 sqrt(pi)) peaks at x = 1/6;
        # a golden-section search on f placed it only to about sqrt(eps)
        mode = msu_scan(0.5, x_lo, x_hi, points).mode_estimate
        assert mode == pytest.approx(1.0 / 6.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.8, 0.85, 0.9])
    def test_mode_does_not_depend_on_the_grid(self, alpha):
        modes = [msu_scan(alpha, *grid).mode_estimate
                 for grid in ((0.1, 50.0, 400), (0.08, 20.0, 150),
                              (0.12, 5.0, 64))]
        assert max(modes) / min(modes) - 1.0 < 1e-13

    def test_normalized_residuals_sign_match(self):
        rep = msu_scan(0.6, 0.5, 50.0, 100)
        for r, nr in zip(rep.residuals, rep.normalized_residuals):
            if r.reliable and not math.isnan(nr):
                assert (nr > 0) == (r.value > 0)


def _loop_summary(alpha, x_lo, x_hi, points):
    """msu_scan's summary as the scan once classified it: with index
    loops over Python copies of its arrays.  Kept as a reference for the
    array classification; it raises UnreliableScanError where the scan
    must.  Its f'' signs come from the density jets, so that it checks
    the scan's signs of S2 - S1."""
    alpha = msu_mod.as_alpha(alpha)
    grid = np.geomspace(x_lo, x_hi, points)
    sums = msu_mod._hp_sums_grid(alpha, grid, SeriesConfig(), order=2)
    res = msu_mod._residual(sums)
    f, s1, s2 = sums[0]
    ok = res.reliable & (f > 0.0)
    norm = np.full(points, math.nan)
    norm[ok] = s2[ok] / f[ok] - (s1[ok] / f[ok]) ** 2
    residuals = msu_mod._points(res)
    normalized = norm.tolist()
    fs, fpps = f.tolist(), density_jet_grid(alpha, grid).fpp.value.tolist()
    grid = grid.tolist()

    reliable_idx = [i for i, r in enumerate(residuals) if r.reliable]
    unreliable_fraction = 1.0 - len(reliable_idx) / points
    if unreliable_fraction > 0.5:
        raise UnreliableScanError("reference")

    witness = None
    best = 0.0
    for i in reliable_idx:
        r = residuals[i]
        if r.value > r.abs_error_estimate:
            score = normalized[i]
            if witness is None or score > best:
                witness, best = grid[i], score

    fvals = {i: fs[i] for i in reliable_idx}
    i_mode = max(fvals, key=fvals.get)
    if 0 < i_mode < points - 1 and (i_mode - 1) in fvals \
            and (i_mode + 1) in fvals:
        lo, hi = grid[i_mode - 1], grid[i_mode + 1]
        for _ in range(60):
            midp = math.sqrt(lo * hi)
            if not lo < midp < hi:
                break
            if density_jet(alpha, midp).fp.value > 0.0:
                lo = midp
            else:
                hi = midp
        mode = 0.5 * (lo + hi)
    else:
        mode = grid[i_mode]

    inflection = None
    prev = None
    for i in reliable_idx:
        if grid[i] < mode:
            prev = i
            continue
        if prev is not None and fpps[prev] < 0.0 <= fpps[i]:
            lo, hi = grid[prev], grid[i]
            for _ in range(60):
                midp = math.sqrt(lo * hi)
                if not lo < midp < hi:
                    break
                if density_jet(alpha, midp).fpp.value < 0.0:
                    lo = midp
                else:
                    hi = midp
            inflection = 0.5 * (lo + hi)
            break
        prev = i

    if inflection is not None:
        check_upto = inflection
    elif reliable_idx and fpps[reliable_idx[0]] > 0.0:
        check_upto = -math.inf
    else:
        check_upto = grid[-1]
    pre_ok = all(residuals[i].value <= residuals[i].abs_error_estimate
                 for i in reliable_idx if grid[i] <= check_upto)
    return {
        "alpha": alpha.value,
        "classification": VIOLATION if witness is not None else NO_VIOLATION,
        "witness": witness,
        "mode": float(mode),
        "inflection": inflection,
        "unreliable_fraction": unreliable_fraction,
        "pre_inflection_ok": pre_ok,
    }


class TestScanMatchesLoopReference:
    """msu_scan classifies on its grid arrays; its summary must be the
    loop reference's, bit for bit, ties and nan scores included."""

    @staticmethod
    def _assert_same(alpha, x_lo, x_hi, points):
        try:
            expected = _loop_summary(alpha, x_lo, x_hi, points)
        except UnreliableScanError:
            with pytest.raises(UnreliableScanError):
                msu_scan(alpha, x_lo, x_hi, points)
            return
        rep = msu_scan(alpha, x_lo, x_hi, points)
        assert repr(rep.summary()) == repr(expected)

    # x_lo = 0.2 and 0.08 put unreliable points, and at alpha >= 0.9
    # unusable (nan) ones, at the left of the grid; (0.05, 0.3) and
    # (0.01, 0.5) are over half unreliable from alpha = 0.7 on
    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.5, 0.55, 0.7, 0.9, 0.95])
    @pytest.mark.parametrize("x_lo,x_hi,points", [
        (0.5, 50.0, 100), (0.2, 50.0, 100), (0.08, 50.0, 120),
        (0.05, 0.3, 32), (0.01, 0.5, 40)])
    def test_sweep(self, alpha, x_lo, x_hi, points):
        self._assert_same(alpha, x_lo, x_hi, points)

    @pytest.mark.parametrize("signs", [
        # f, f'' per point: a first candidate (g > 0 = error bar) with
        # f < 0 has a nan score and is kept; a later one is passed over
        [(-1, -1), (1, 1), (1, 1), (1, -1)],
        [(1, 1), (-1, -1), (1, 1), (1, -1)],
        # the nan candidate lies before the inflection: pre_ok fails
        [(1, -1), (-1, -1), (1, 1), (1, 1)],
        # equal f everywhere: the mode is the first point
        [(1, -1), (1, -1), (1, 1), (1, 1)],
        # f'' turns nonnegative only below the mode, at the last point:
        # no inflection
        [(1, -1), (1, 1)] + [(1, -1)] * 29 + [(2, -1)],
    ])
    def test_synthetic_jets(self, monkeypatch, signs):
        # f' = 0 and exact values make g = x^2 f'' f and its error bar 0,
        # so the signs set which points are candidates and which scores
        # are nan; the pattern repeats over the grid, and the
        # refinements still evaluate the real density.  The theta-sums
        # are S0 = f, S1 = x f' = 0 and S2 = x^2 f'', in the scan and in
        # the jets that the reference takes its f'' signs from
        pattern = np.array(signs, dtype=float)
        points = 32

        def sums(alpha, grid, cfg, order):
            f, fpp = np.resize(pattern, (points, 2)).T
            return (np.stack([f, np.zeros(points), grid * grid * fpp]),
                    np.zeros((3, points)), np.ones((3, points), dtype=bool),
                    np.full(points, 8), np.ones(points, dtype=bool))

        monkeypatch.setattr(msu_mod, "_hp_sums_grid", sums)
        monkeypatch.setattr(density_mod, "_hp_sums_grid", sums)
        self._assert_same(0.6, 0.5, 5.0, points)


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

    def test_zeta_values_independent_of_mpmath_precision(self):
        ref = bb_expansion(39).b_coeffs
        with mp.workdps(5):
            assert bb_expansion(39).b_coeffs == ref


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

    @pytest.mark.parametrize("a,far_margin", [(0.3, math.inf), (0.5, 1.0),
                                              (0.8, -math.inf)])
    def test_array_input(self, a, far_margin):
        # |a x| > 700 takes the limits: margin +-inf or 1
        xs = np.array([-3000.0, -40.0, -1.0, 0.0, 2.5, 3000.0])
        margin = ualpha_logconcavity_margin(a, xs)
        assert margin.shape == xs.shape
        assert margin.tolist() == [ualpha_logconcavity_margin(a, x)
                                   for x in xs.tolist()]
        assert isinstance(ualpha_logconcavity_margin(a, 1.0), float)
        assert margin[0] == margin[-1] == far_margin
