"""The package runs on numpy and mpmath alone; scipy is a test oracle."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
