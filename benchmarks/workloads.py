"""The four benchmark workloads.

Each workload warms up once (part of set-up: it fills the package's
``lru_cache``s) and then runs passes.  A pass times every operation,
then checks every output; a wrong answer raises :class:`CheckFailed`
instead of being timed.  Only API that the ROADMAP keeps is called:
CLI defaults (never ``--threads``), no ``threads=``, no
``SeriesConfig(dps=...)``, and ``psi_chf`` only with a = 1/6.

* ``scan``: ``stable-msu scan-msu`` through ``cli.main`` with CLI
  defaults (auto thread pool) for alpha = 0.1 .. 0.9 at 2000 points.
  Nearly all time is in the series loop and the msu residual; samplers
  and quadrature do nothing.  One operation is one ``scan-msu`` call;
  the failure unit is a grid point flagged unreliable.
* ``pointwise``: values computed one at a time -- Laplace checks (scipy
  ``quad`` over scalar series calls), the Lemma 1 and Whitt kernels,
  Bessel K and Psi grids, the closed forms and the coverage set of
  ``data/reference.json``.  Opposite of ``scan``: length-1 series calls
  from an adaptive integrator, and the DE quadrature does most work.
* ``montecarlo``: the log-difference and Beta x Gamma KS identities at
  10^6 draws seeded from the benchmark seed.  Samplers, products and KS
  sorts only; no series call.  A KS rejection at 1 percent is a failed
  operation, not a wrong answer.
* ``acceptance``: ``stable-msu acceptance`` through ``cli.main`` with
  the built-in config and seeds.  One operation is one acceptance check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data" / "reference.json"

NAMES = ("scan", "pointwise", "montecarlo", "acceptance")


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class PassResult:
    wall_s: float
    op_s: list
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)  # workload-specific detail


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value: float, ref: float, rel: float, what: str) -> None:
    _require(math.isfinite(value) and abs(value - ref) <= rel * abs(ref),
             f"{what}: {value!r} differs from reference {ref!r} by more than {rel:g} relative")


def _run_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def count_bar_misses(jets_and_refs) -> tuple[int, int]:
    """Reliable jet components whose distance to the reference exceeds
    their ``abs_error_estimate``, and all reliable components."""
    misses = reliable = 0
    for jet, ref in jets_and_refs:
        for comp, key in ((jet.f, "f"), (jet.fp, "fp"), (jet.fpp, "fpp")):
            _require(math.isfinite(comp.value), f"non-finite jet at {ref}")
            if comp.reliable:
                reliable += 1
                misses += abs(comp.value - ref[key]) > comp.abs_error_estimate
    return misses, reliable


def bar_misses(pkg) -> tuple[int, int]:
    """:func:`count_bar_misses` over the whole coverage set."""
    coverage = json.loads(DATA.read_text())["coverage"]
    return count_bar_misses((pkg.density.density_jet(r["alpha"], r["x"]), r)
                            for r in coverage)


class Scan:
    ALPHAS = ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9")

    def __init__(self, pkg, seed: int, smoke: bool):
        self.pkg = pkg
        self.alphas = list(("0.3", "0.7") if smoke else self.ALPHAS)
        random.Random(seed).shuffle(self.alphas)
        self.points = 64 if smoke else 2000

    def _scan(self, alpha: str, points: int):
        return _run_cli(self.pkg.cli, ["scan-msu", "--alpha", alpha,
                                       "--points", str(points)])

    def warm_up(self) -> None:
        for a in self.alphas:
            self._scan(a, 16)

    def run_pass(self) -> PassResult:
        ops, outputs = [], []
        start = time.perf_counter()
        for a in self.alphas:
            t0 = time.perf_counter()
            out = self._scan(a, self.points)
            ops.append(time.perf_counter() - t0)
            outputs.append((a, out))
        wall = time.perf_counter() - start
        failed = 0
        for a, (rc, text) in outputs:
            _require(rc == 0, f"scan-msu --alpha {a} exited {rc}")
            summary = json.loads(text)
            expect = "violation_found" if float(a) > 0.5 else "no_violation_found"
            _require(summary["classification"] == expect,
                     f"alpha {a}: classification {summary['classification']}")
            failed += round(summary["unreliable_fraction"] * self.points)
        return PassResult(wall, ops, self.points * len(self.alphas), failed)


class Pointwise:
    LAPLACE_ALPHAS = (0.3, 0.5, 0.7)
    LAMBDAS = (0.0, 0.5, 1.0, 2.0, 4.0)
    LEMMA1_TRIPLES = ((0.4, 0.6, 0.9), (0.3, 0.5, 0.7), (0.5, 1.0, 1.2),
                      (0.7, 0.8, 1.5), (0.2, 0.9, 1.0))

    def __init__(self, pkg, seed: int, smoke: bool):
        self.pkg = pkg
        data = json.loads(DATA.read_text())
        d, f, s = pkg.density, pkg.factorizations, pkg.specfun
        step = 12 if smoke else 1
        lam = self.LAMBDAS[2:3] if smoke else self.LAMBDAS
        ops = [("laplace", (a, x), lambda a=a, x=x: d.laplace_check(a, x))
               for a in self.LAPLACE_ALPHAS[: 1 if smoke else None] for x in lam]
        n_lemma = 2 if smoke else 12
        ops += [("lemma1", None, lambda t=t, x=float(x): f.lemma1_inequality(*t, x))
                for t in self.LEMMA1_TRIPLES
                for x in np.geomspace(0.01, 20.0, n_lemma)]
        n_whitt = 4 if smoke else 60
        ops += [("whitt_safe", x, lambda x=float(x): f.whitt_margin(x))
                for x in np.geomspace(1.0 / 6.0, 40.0, n_whitt)]
        ops += [("whitt_low", x, lambda x=float(x): f.whitt_margin(x))
                for x in np.geomspace(1e-3, 1.0 / 6.0, n_whitt, endpoint=False)]
        ops += [("bessel_k", r, lambda x=r["x"]: s.bessel_k(1.0 / 3.0, x).value)
                for r in data["bessel_k"][::step]]
        ops += [("psi", r, lambda r=r: s.psi_chf(1.0 / 6.0, r["c"], r["x"]).value)
                for r in data["psi"][::step]]
        ops += [("closed", r, lambda r=r: d.density_closed(
                    d.Alpha.from_fraction(r["p"], r["n"]), r["x"]).value)
                for r in data["closed"][::step]]
        ops += [("coverage", r, lambda r=r: d.density_jet(r["alpha"], r["x"]))
                for r in data["coverage"][::step]]
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def warm_up(self) -> None:
        d = self.pkg.density
        for a in self.LAPLACE_ALPHAS:
            d.laplace_check(a, 1.0)
        for p, n in ((1, 3), (1, 2), (2, 3)):
            d.density_closed(d.Alpha.from_fraction(p, n), 1.0)
        for kind, _, fn in self.ops:
            if kind == "coverage":
                fn()

    def run_pass(self) -> PassResult:
        times, values = [], []
        start = time.perf_counter()
        for _, _, fn in self.ops:
            t0 = time.perf_counter()
            values.append(fn())
            times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        witness = False
        jets = []
        for (kind, ref, _), v in zip(self.ops, values):
            if kind == "coverage":
                jets.append((v, ref))
                continue
            _require(math.isfinite(v), f"{kind} {ref}: non-finite value {v!r}")
            if kind == "laplace":
                _require(v < 1e-5, f"laplace_check{ref} = {v!r} >= 1e-5")
            elif kind == "lemma1":
                _require(v >= -1e-10, f"lemma1_inequality = {v!r} < -1e-10")
            elif kind == "whitt_safe":
                _require(v >= 0.0, f"whitt_margin({ref}) = {v!r} < 0")
            elif kind == "whitt_low":
                witness = witness or v < 0.0
            elif kind == "bessel_k":
                _close(v, ref["k"], 1e-8, f"bessel_k(1/3, {ref['x']})")
            elif kind == "psi":
                _close(v, ref["psi"], 1e-8, f"psi_chf(1/6, {ref['c']}, {ref['x']})")
            elif kind == "closed":
                rel = 1e-6 if (ref["p"], ref["n"]) == (2, 3) else 1e-8
                _close(v, ref["f"], rel, f"density_closed({ref['p']}/{ref['n']}, {ref['x']})")
        _require(witness, "whitt_margin has no negative witness below 1/6")
        misses, reliable = count_bar_misses(jets)
        return PassResult(wall, times, len(self.ops), 0, {"bar_miss_share": {
            "value": misses / reliable, "misses": misses, "reliable": reliable}})


class MonteCarlo:
    DIFF_ALPHAS = (0.4, 0.8)
    PAIRS = ((2, 5), (3, 7))

    def __init__(self, pkg, seed: int, smoke: bool):
        self.pkg = pkg
        self.draws = 10_000 if smoke else 1_000_000
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]
        v = pkg.verify
        ops = [(f"diff-{a}", lambda n, a=a, s=s: v.check_diff_identity(a, n, s))
               for a, s in zip(self.DIFF_ALPHAS, seeds[:2])]
        ops += [(f"factorization-{p}-{q}",
                 lambda n, p=p, q=q, s=s: v.check_factorization_mc(p, q, n, s))
                for (p, q), s in zip(self.PAIRS, seeds[2:])]
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def warm_up(self) -> None:
        for _, fn in self.ops:
            fn(10_000)

    def run_pass(self) -> PassResult:
        times, reports = [], []
        start = time.perf_counter()
        for _, fn in self.ops:
            t0 = time.perf_counter()
            reports.append(fn(self.draws))
            times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        verdicts = {}
        for (name, _), rep in zip(self.ops, reports):
            _require(0.0 <= rep.discrepancy <= 1.0 and rep.threshold > 0.0,
                     f"{name}: KS statistic {rep.discrepancy!r}")
            verdicts[name] = {"statistic": rep.discrepancy, "passed": rep.passed,
                              "critical_1pct": rep.threshold,
                              "seed": rep.details["seed"]}
        failed = sum(not v["passed"] for v in verdicts.values())
        return PassResult(wall, times, len(self.ops), failed, {"ks": verdicts})


class Acceptance:
    # the quick checks of the built-in suite, for the smoke mode
    SMOKE_CHECKS = ("01a-closed-form-1-2", "04-tail-sign", "05-half-residual",
                    "06-lemma2-mellin")

    def __init__(self, pkg, seed: int, smoke: bool):
        self.pkg = pkg
        self.check_s: list = []
        self._config_dir = None
        self.argv = ["acceptance"]
        if smoke:
            config = {"schema": 1, "checks": [
                c for c in pkg.verify.DEFAULT_ACCEPTANCE_CONFIG["checks"]
                if c["name"] in self.SMOKE_CHECKS]}
            self._config_dir = tempfile.TemporaryDirectory()
            path = Path(self._config_dir.name) / "smoke.json"
            path.write_text(json.dumps(config))
            self.argv += ["--config", str(path)]

    def warm_up(self) -> None:
        d = self.pkg.density
        for a in Pointwise.LAPLACE_ALPHAS:
            d.laplace_check(a, 1.0)
        for p, n in ((1, 3), (1, 2), (2, 3)):
            d.density_closed(d.Alpha.from_fraction(p, n), 1.0)
        for check in self.pkg.verify.DEFAULT_ACCEPTANCE_CONFIG["checks"]:
            for key in ("alphas", "alphas_violation", "alphas_msu"):
                for a in check.get(key, ()):
                    d.density_jet(float(a), 1.0)

    @contextlib.contextmanager
    def _timed_checks(self):
        """Time each acceptance check: one check is one operation."""
        table = self.pkg.verify.CHECK_KINDS
        originals = dict(table)

        def timed(check):
            def run(params):
                t0 = time.perf_counter()
                try:
                    return check(params)
                finally:
                    self.check_s.append(time.perf_counter() - t0)
            return run

        table.update({kind: timed(check) for kind, check in originals.items()})
        try:
            yield
        finally:
            table.update(originals)

    def run_pass(self) -> PassResult:
        self.check_s = []
        with self._timed_checks():
            start = time.perf_counter()
            rc, text = _run_cli(self.pkg.cli, self.argv)
            wall = time.perf_counter() - start
        summary = json.loads(text)
        failed = [c["name"] for c in summary["checks"] if not c["pass"]]
        _require(rc == 0 and summary["all_pass"] and not failed,
                 f"acceptance exited {rc}; failed checks {failed}")
        return PassResult(wall, self.check_s, summary["n_checks"], 0)

    def close(self) -> None:
        if self._config_dir is not None:
            self._config_dir.cleanup()


WORKLOADS = {"scan": Scan, "pointwise": Pointwise, "montecarlo": MonteCarlo,
             "acceptance": Acceptance}
