"""``stable_msu.__all__`` matches what the package's ``__init__`` imports,
so a name deleted from a module cannot linger in ``__all__`` and break
``from stable_msu import *``; and every public evaluator of a value
with an error bar returns the one record, ``EvalResult``."""

import ast
from pathlib import Path

import numpy as np
import pytest

import stable_msu
from stable_msu import (Alpha, DensityJet, EvalResult, bb_expansion,
                        bb_log_density, bessel_k, density, density_closed,
                        density_jet, density_jet_grid, density_series,
                        density_series_grid, lce_residual, lemma1_g,
                        log_gamma, psi_chf, specfun, survival_series,
                        survival_series_grid, util, whittaker_w_stable)


def _imported_names() -> list[str]:
    """The names bound by the ``from .module import ...`` lines of
    stable_msu/__init__.py."""
    tree = ast.parse(Path(stable_msu.__file__).read_text())
    return [alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_export_resolves():
    missing = [name for name in stable_msu.__all__
               if not hasattr(stable_msu, name)]
    assert not missing, f"__all__ names that the package lacks: {missing}"
    namespace = {}
    exec("from stable_msu import *", namespace)
    assert set(stable_msu.__all__) <= set(namespace)


def test_no_duplicate_exports():
    assert len(stable_msu.__all__) == len(set(stable_msu.__all__))


def test_exports_equal_imports():
    imported = _imported_names()
    assert imported
    assert set(stable_msu.__all__) == set(imported)


_GRID = np.array([1.0, 2.0])

# every public evaluator of a value with an error bar, with arguments
# inside its domain; a jet holds three such records
_EVALUATORS = {
    "density_series": lambda: density_series(0.6, 2.0),
    "density_jet": lambda: density_jet(0.6, 2.0),
    "survival_series": lambda: survival_series(0.6, 2.0),
    "density_series_grid": lambda: density_series_grid(0.6, _GRID),
    "density_jet_grid": lambda: density_jet_grid(0.6, _GRID),
    "survival_series_grid": lambda: survival_series_grid(0.6, _GRID),
    "density_closed-1/3": lambda: density_closed(Alpha.from_fraction(1, 3),
                                                 1.0),
    "density_closed-1/2": lambda: density_closed(0.5, 1.0),
    "density_closed-2/3": lambda: density_closed(Alpha.from_fraction(2, 3),
                                                 1.0),
    "bessel_k": lambda: bessel_k(1.0 / 3.0, 1.0),
    "psi_chf": lambda: psi_chf(1.0 / 6.0, 4.0 / 3.0, 1.0),
    "whittaker_w_stable": lambda: whittaker_w_stable(1.0),
    "lemma1_g": lambda: lemma1_g(0.4, 0.6, 0.9, 0, 1.0),
    "log_gamma": lambda: log_gamma(-0.6)[0],
    "lce_residual": lambda: lce_residual(0.6, 2.0),
    "bb_log_density": lambda: bb_log_density(0.3, 2.0, bb_expansion(10)),
}


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
def test_every_evaluator_returns_one_record(name):
    result = _EVALUATORS[name]()
    records = ([result.f, result.fp, result.fpp]
               if isinstance(result, DensityJet) else [result])
    assert all(type(r) is EvalResult for r in records)


def test_one_record_type():
    assert EvalResult is util.EvalResult is density.EvalResult
    assert not hasattr(specfun, "SpecEval")
