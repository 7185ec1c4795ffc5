"""Positive stable laws: densities, multiplicative log-concavity
diagnostics, product factorizations, exact sampling and verification.

The library is organized around the residual
g(x) = (x^2 f'' + x f') f - x^2 (f')^2, whose sign decides whether
t -> f(e^t) is log-concave (multiplicative strong unimodality): the
dichotomy holds exactly for stability index <= 1/2.
"""

from .density import (Alpha, DEFAULT_SERIES_CONFIG, DensityJet, EvalResult,
                      SeriesConfig, density_closed, density_jet,
                      density_jet_grid, density_series, density_series_grid,
                      laplace_check, survival_series, survival_series_grid,
                      tail_coefficient)
from .errors import (DomainError, HypothesisError, PoleError,
                     PreconditionError, UnreliableScanError,
                     UnsupportedAlphaError)
from .factorizations import (Factor, FactorList, MellinProfile, kanter_b,
                             lemma1_g, lemma1_inequality,
                             lemma1_product_density, lemma2_product,
                             mellin_product, mellin_stable, sample_stable,
                             whitt_margin, williams_product)
from .msu import (BbExpansion, MsuReport, NO_VIOLATION, VIOLATION,
                  bb_expansion, bb_log_density, lce_residual, msu_scan,
                  tail_residual_sign, ualpha_density,
                  ualpha_logconcavity_margin)
from .specfun import (SpecEval, bessel_k, gamma_value, log_gamma, psi_chf,
                      whittaker_w_stable)
from .verify import (DEFAULT_ACCEPTANCE_CONFIG, IdentityReport, KsResult,
                     StableCdf, build_cdf, check_diff_identity,
                     check_factorization_mc, check_laplace,
                     check_mellin_factorization, check_sampler_ks,
                     ks_one_sample, ks_two_sample, run_acceptance, ualpha_cdf)

__version__ = "0.1.0"

__all__ = [
    "Alpha", "BbExpansion", "DEFAULT_ACCEPTANCE_CONFIG",
    "DEFAULT_SERIES_CONFIG", "DensityJet", "DomainError", "EvalResult",
    "Factor", "FactorList", "HypothesisError", "IdentityReport", "KsResult",
    "MellinProfile", "MsuReport", "NO_VIOLATION", "PoleError",
    "PreconditionError", "SeriesConfig", "SpecEval", "StableCdf",
    "UnreliableScanError", "UnsupportedAlphaError", "VIOLATION",
    "bb_expansion", "bb_log_density", "bessel_k",
    "build_cdf", "check_diff_identity", "check_factorization_mc",
    "check_laplace", "check_mellin_factorization", "check_sampler_ks",
    "density_closed", "density_jet", "density_jet_grid", "density_series",
    "density_series_grid", "gamma_value",
    "kanter_b", "ks_one_sample", "ks_two_sample",
    "laplace_check", "lce_residual", "lemma1_g", "lemma1_inequality",
    "lemma1_product_density", "lemma2_product", "log_gamma",
    "mellin_product", "mellin_stable", "msu_scan", "psi_chf",
    "run_acceptance", "sample_stable", "survival_series",
    "survival_series_grid",
    "tail_coefficient", "tail_residual_sign", "ualpha_cdf",
    "ualpha_density", "ualpha_logconcavity_margin", "whitt_margin",
    "whittaker_w_stable", "williams_product",
]
