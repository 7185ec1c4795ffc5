import json
import math

import numpy as np
import pytest

from stable_msu.errors import PreconditionError
from stable_msu.verify import (CHECK_KINDS, DEFAULT_ACCEPTANCE_CONFIG,
                               IdentityReport, build_cdf, check_diff_identity,
                               check_factorization_mc, check_laplace,
                               check_mellin_factorization, check_sampler_ks,
                               ks_one_sample, ks_two_sample, run_acceptance,
                               ualpha_cdf)


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
        from stable_msu.density import survival_series
        assert cdf(x) == pytest.approx(1.0 - survival_series(0.3, x).value,
                                       abs=1e-12)


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


class TestChecks:
    def test_laplace_check_passes(self):
        rep = check_laplace(0.5, [0.0, 1.0], threshold=1e-5)
        assert rep.passed
        assert rep.discrepancy < 1e-6

    def test_laplace_check_respects_threshold(self):
        rep = check_laplace(0.5, [1.0], threshold=1e-16)
        assert not rep.passed

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
        rep = check_mellin_factorization(2, 5, [0.1, 0.5, 1.0, 2.0, 5.0])
        assert rep.passed
        assert rep.discrepancy < 1e-12


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

    def test_default_config_covers_all_kinds(self):
        kinds = {c["kind"] for c in DEFAULT_ACCEPTANCE_CONFIG["checks"]}
        assert kinds == {"closed_form", "laplace", "msu_dichotomy",
                         "tail_sign", "half_alpha_residual", "lemma2_mellin",
                         "sampler_fidelity", "diff_identity",
                         "ualpha_dichotomy", "whitt_inequality",
                         "lemma1_inequality", "bb_crosscheck"}
