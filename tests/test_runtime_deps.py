"""The package runs on numpy and mpmath alone; scipy is a test oracle,
mpmath and the thread pool are imported only by the code that uses
them, and numpy.polynomial not at all."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                         check=True, capture_output=True, text=True, env=env)
    return out.stdout.strip()


def test_no_scipy_module_loaded():
    # a fresh interpreter, so that the test suite's own scipy imports
    # cannot hide a lazy import inside the package
    script = textwrap.dedent("""
        import sys
        import stable_msu
        import stable_msu.cli
        from stable_msu import (bb_expansion, build_cdf, laplace_check,
                                ualpha_cdf)
        laplace_check(0.5, 1.0)
        build_cdf(0.3)
        ualpha_cdf(0.4)(0.0)
        bb_expansion(5)
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "[]"


def test_mpmath_loaded_only_on_use():
    # double-precision series, scans, CDFs and bb_expansion (its zeta
    # values are a table) leave mpmath unimported; the extended precision
    # mode imports it itself
    out = _run_fresh("""
        import sys
        import stable_msu
        import stable_msu.cli
        from stable_msu import (SeriesConfig, bb_expansion, build_cdf,
                                density_series, laplace_check, msu_scan)
        laplace_check(0.5, 1.0)
        build_cdf(0.3)
        msu_scan(0.7, 0.5, 50.0, 64)
        b1 = bb_expansion(5).b_coeffs[1]
        print("mpmath" in sys.modules)
        r = density_series(0.5, 0.01, SeriesConfig(dps=30, max_terms=600))
        print(r.reliable, "mpmath" in sys.modules)
        print(b1)
    """)
    assert out.splitlines()[:2] == ["False", "True True"]
    assert float(out.splitlines()[2]) != 0.0


def test_thread_pool_loaded_only_on_use():
    # the Monte Carlo checks import concurrent.futures when they start
    # their workers; importing the package and its CLI leaves it out,
    # which keeps its import time out of every command's start-up
    out = _run_fresh("""
        import sys
        import stable_msu
        import stable_msu.cli
        print("concurrent.futures" in sys.modules)
    """)
    assert out == "False"


def test_numpy_polynomial_not_loaded():
    # laplace_check's Gauss-Legendre rule is a table of literals; numpy's
    # leggauss would import numpy.polynomial (about 1 MB and 7 ms)
    out = _run_fresh("""
        import sys
        import stable_msu
        import stable_msu.cli
        from stable_msu import laplace_check
        laplace_check(0.5, 0.0)
        laplace_check(0.5, 1.0)
        laplace_check(0.5, 1e-9)
        print("numpy.polynomial" in sys.modules)
    """)
    assert out == "False"
