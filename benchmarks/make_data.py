"""Regenerate ``benchmarks/data/reference.json``, the frozen inputs and
reference values of the ``pointwise`` workload.

    python3 benchmarks/make_data.py

* ``coverage``: for alpha in {0.55, 0.6, 0.7, 0.8, 0.9}, 25 log-spaced
  points on [x_min, 4 x_min], where x_min is ``reliable_x_min`` of the
  package at generation time; f, f' and f'' at each point from this
  script's own mpmath sum of the series at 60 digits, confirmed against
  a 100-digit sum.
* ``closed``: f at 20 points on [0.2, 20] for alpha in {1/3, 1/2, 2/3},
  from the same 60-digit sum.
* ``bessel_k``: K_{1/3}(x) at 60 points on [0.1, 10] (mpmath.besselk).
* ``psi``: Psi(1/6, c, x) = U(1/6, c, x) for c in {1/3, 4/3, 7/3} at
  20 points each on [0.05, 20] (mpmath.hyperu).

Every x is stored as the exact double the workload evaluates at.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
COVERAGE_ALPHAS = (0.55, 0.6, 0.7, 0.8, 0.9)
COVERAGE_POINTS = 25
CLOSED_FORMS = ((1, 3), (1, 2), (2, 3))
DPS = 60
CONFIRM_DPS = 100


def series_jet(alpha, x: float, dps: int) -> tuple:
    """f, f', f'' of the positive stable density at x from

        f(x) = (1/pi) sum_{n>=1} (-1)^{n-1}/n! sin(pi a n) Gamma(1+a n) x^{-(1+a n)},

    differentiated term by term, summed at ``dps`` digits until the
    terms are below 10^-dps of the partial sums and decreasing."""
    with mp.workdps(dps + 10):
        a = mp.mpf(alpha[0]) / alpha[1] if isinstance(alpha, tuple) else mp.mpf(alpha)
        xm = mp.mpf(x)
        lx = mp.log(xm)
        sums = [mp.mpf(0)] * 3
        tol = mp.mpf(10) ** (-dps - 5)
        prev = mp.inf
        for n in range(1, 100_000):
            m = 1 + a * n
            mag = mp.gamma(m) / mp.factorial(n) * mp.exp(-m * lx)
            t = (-1) ** (n - 1) * mp.sinpi(a * n) * mag / mp.pi
            sums[0] += t
            sums[1] += -m * t / xm
            sums[2] += m * (m + 1) * t / (xm * xm)
            bound = mag * (m + 1) ** 2 / (xm * xm)
            if n > 10 and bound < prev and bound < tol * min(abs(s) for s in sums):
                break
            prev = bound
        else:
            raise RuntimeError(f"series did not converge at alpha={alpha}, x={x}")
        return tuple(sums)


def _coverage():
    sys.path.insert(0, str(HERE.parent / "src"))
    from stable_msu import density

    out = []
    worst = 0.0
    for a in COVERAGE_ALPHAS:
        x_min = density.reliable_x_min(density.Alpha(a))
        for x in np.geomspace(x_min, 4.0 * x_min, COVERAGE_POINTS):
            x = float(x)
            ref = series_jet(a, x, DPS)
            confirm = series_jet(a, x, CONFIRM_DPS)
            worst = max(worst, max(abs(r - c) / abs(c) for r, c in zip(ref, confirm)))
            out.append({"alpha": a, "x": x, "f": float(ref[0]),
                        "fp": float(ref[1]), "fpp": float(ref[2])})
    return out, float(worst)


def main() -> int:
    coverage, worst = _coverage()
    if worst > 1e-20:
        raise RuntimeError(f"{DPS}- and {CONFIRM_DPS}-digit sums differ by {worst}")
    closed = [{"p": p, "n": n, "x": float(x), "f": float(series_jet((p, n), float(x), DPS)[0])}
              for p, n in CLOSED_FORMS for x in np.geomspace(0.2, 20.0, 20)]
    with mp.workdps(30):
        bessel = [{"x": float(x), "k": float(mp.besselk(mp.mpf(1) / 3, float(x)))}
                  for x in np.geomspace(0.1, 10.0, 60)]
        psi = [{"c": c, "x": float(x),
                "psi": float(mp.hyperu(mp.mpf(1) / 6, mp.mpf(c), float(x)))}
               for c in (1.0 / 3.0, 4.0 / 3.0, 7.0 / 3.0)
               for x in np.geomspace(0.05, 20.0, 20)]
    data = {"schema": 1, "series_dps": DPS, "confirm_dps": CONFIRM_DPS,
            "confirm_max_rel_diff": worst, "coverage": coverage,
            "closed": closed, "bessel_k": bessel, "psi": psi}
    (HERE / "data").mkdir(exist_ok=True)
    path = HERE / "data" / "reference.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {path}: {len(coverage)} coverage points, "
          f"{DPS}-digit vs {CONFIRM_DPS}-digit max rel diff {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
