"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime.  The same checks, with the same parameters and
seeds, back the ``stable-msu acceptance`` subcommand via
DEFAULT_ACCEPTANCE_CONFIG.
"""

import time

import pytest

from stable_msu import verify
from stable_msu.density import density_closed
from stable_msu.msu import lce_residual
from stable_msu.verify import CHECK_KINDS, DEFAULT_ACCEPTANCE_CONFIG


def _entry(name_prefix: str) -> list[dict]:
    """The built-in entries whose names start with ``name_prefix``, each
    with every absent key at its default, as run_acceptance runs them."""
    return verify._entries({"checks": [
        c for c in DEFAULT_ACCEPTANCE_CONFIG["checks"]
        if c["name"].startswith(name_prefix)]})


def _run(entry: dict, budget_s: float) -> verify.IdentityReport:
    start = time.perf_counter()
    report = CHECK_KINDS[entry["kind"]](entry)
    elapsed = time.perf_counter() - start
    status = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {entry['name']}: {status} "
          f"(discrepancy={report.discrepancy:.3g}, "
          f"threshold={report.threshold:.3g}, {elapsed:.1f}s)")
    assert elapsed < budget_s, f"{entry['name']} exceeded {budget_s}s"
    return report


def test_criterion_01_closed_form_agreement():
    start = time.perf_counter()
    reports = [CHECK_KINDS[e["kind"]](e) for e in _entry("01")]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports)
    print(f"ACCEPTANCE 01 closed-form agreement: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s)")
    assert elapsed < 5.0
    for r in reports:
        assert r.passed, r


def test_criterion_02_laplace_oracle():
    start = time.perf_counter()
    reports = [CHECK_KINDS[e["kind"]](e) for e in _entry("02")]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports)
    print(f"ACCEPTANCE 02 Laplace oracle: {'PASS' if ok else 'FAIL'} "
          f"(worst={max(r.discrepancy for r in reports):.2e}, {elapsed:.1f}s)")
    assert elapsed < 30.0
    for r in reports:
        assert r.passed, r


def test_criterion_03_theorem_dichotomy():
    report = _run(_entry("03")[0], budget_s=120.0)
    assert report.passed, report.details.get("misclassified")


def test_criterion_04_tail_sign_law():
    report = _run(_entry("04")[0], budget_s=1.0)
    assert report.passed, report.details


def test_criterion_05_half_alpha_exact_residual():
    report = _run(_entry("05")[0], budget_s=1.0)
    assert report.passed
    # spot value against an independent in-test oracle
    f1 = density_closed(0.5, 1.0).value
    assert lce_residual(0.5, 1.0).value == pytest.approx(-f1 * f1 / 4.0,
                                                         rel=1e-7)


def test_criterion_06_lemma2_mellin_identity():
    report = _run(_entry("06")[0], budget_s=1.0)
    assert report.passed
    # spot value: both sides equal 60 at (2, 5), s = 1
    from stable_msu.factorizations import lemma2_product, mellin_product
    assert mellin_product(lemma2_product(2, 5))(1.0) == pytest.approx(60.0,
                                                                      rel=1e-10)


def test_criterion_07_sampler_fidelity():
    report = _run(_entry("07")[0], budget_s=180.0)
    assert report.passed, report.details


def test_criterion_08_log_difference_identity():
    report = _run(_entry("08")[0], budget_s=120.0)
    assert report.passed, report.details


def test_criterion_09_ualpha_dichotomy():
    report = _run(_entry("09")[0], budget_s=5.0)
    assert report.passed, report.details


def test_criterion_10_whittaker_inequality():
    report = _run(_entry("10")[0], budget_s=10.0)
    assert report.passed, report.details
    assert report.details["witness_x"] < 1.0 / 6.0
    assert report.details["witness_margin"] < 0.0


def test_criterion_11_lemma1_inequality():
    report = _run(_entry("11")[0], budget_s=30.0)
    assert report.passed, report.details


def test_criterion_12_bb_crosscheck():
    report = _run(_entry("12")[0], budget_s=5.0)
    assert report.passed, report.details
