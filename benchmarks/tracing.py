"""Span tracing for the benchmark's traced runs.

Timing wrappers are installed from outside the package, around the
public functions of each ``stable_msu`` module (the layers).  A wrapped
function is replaced under every name through which code reaches it:
its home module, every package module that imported it by name, and
the entries of ``verify.CHECK_KINDS``.  Each call records a span
``(id, name, start, end, parent, thread, info)`` in memory; the spans of
one pass are summarised into per-layer metrics after the pass.

A span opened on a thread that has no open span of its own (a worker of
the scan's thread pool) is parented to the innermost open span of the
thread that installed the tracer, which is the span that started the
pool.  Summed child busy time can therefore exceed the parent's wall
time; self time subtracts the union of the child intervals instead.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

import numpy as np


def _evals(result):
    """(terms_used, reliable) of the EvalResults inside a series result."""
    if hasattr(result, "fpp"):  # DensityJet
        result = result.f
    return (result.terms_used, result.reliable)


def _size_arg(args, kwargs, index):
    size = kwargs.get("size", args[index] if len(args) > index else None)
    return 1 if size is None else int(np.prod(size))


# (home module, attribute, span name, counter).  The counter maps
# (args, kwargs, result) to the span's ``info``.
TARGETS = [
    ("density", "density_jet", "density.density_jet", lambda a, k, r: _evals(r)),
    ("density", "density_series", "density.density_series", lambda a, k, r: _evals(r)),
    ("density", "survival_series", "density.survival_series", lambda a, k, r: _evals(r)),
    ("density", "laplace_check", "density.laplace_check", None),
    ("density", "reliable_x_min", "density.reliable_x_min", None),
    ("density", "density_closed", "density.density_closed", None),
    ("msu", "msu_scan", "msu.msu_scan", None),
    ("msu", "lce_residual", "msu.lce_residual", None),
    ("factorizations", "sample_stable", "factorizations.sample_stable",
     lambda a, k, r: _size_arg(a, k, 2)),
    ("factorizations", "FactorList.sample", "factorizations.FactorList.sample",
     lambda a, k, r: _size_arg(a, k, 2)),
    ("factorizations", "lemma1_inequality", "factorizations.lemma1_inequality", None),
    ("factorizations", "lemma1_g", "factorizations.lemma1_g", None),
    ("factorizations", "whitt_margin", "factorizations.whitt_margin", None),
    ("specfun", "bessel_k", "specfun.bessel_k", None),
    ("specfun", "psi_chf", "specfun.psi_chf", None),
    ("specfun", "log_gamma", "specfun.log_gamma", None),
    ("quadrature", "de_halfline", "quadrature.de_halfline", lambda a, k, r: r.levels),
    ("verify", "build_cdf", "verify.build_cdf", None),
    ("verify", "StableCdf.__call__", "verify.StableCdf.call",
     lambda a, k, r: int(np.size(a[1]))),
    ("verify", "ks_one_sample", "verify.ks_one_sample", None),
    ("verify", "ks_two_sample", "verify.ks_two_sample", None),
    ("verify", "ualpha_cdf", "verify.ualpha_cdf", None),
    ("cli", "main", "cli.main", None),
]

# Span names whose self time is reported.
SELF_TIME = ("density.laplace_check", "msu.msu_scan", "verify.build_cdf", "cli.main")

# The built-in acceptance checks, timed as ``verify.check.<name>``.
CHECK_NAMES = (
    "01a-closed-form-1-2", "01b-closed-form-1-3", "01c-closed-form-2-3",
    "02a-laplace-0.3", "02b-laplace-0.5", "02c-laplace-0.7",
    "03-msu-dichotomy", "04-tail-sign", "05-half-residual",
    "06-lemma2-mellin", "07-sampler-fidelity", "08-diff-identity",
    "09-ualpha-dichotomy", "10-whitt-inequality", "11-lemma1-inequality",
    "12-bb-crosscheck",
)


def _metric_units() -> dict[str, str]:
    units = {}
    for _, _, name, _ in TARGETS:
        count = {"factorizations.sample_stable": "draws",
                 "factorizations.FactorList.sample": "draws",
                 "verify.StableCdf.call": "points"}.get(name, "calls")
        units[f"{name}.{count}"] = "count"
        units[f"{name}.busy_s"] = "s"
        if name in SELF_TIME:
            units[f"{name}.self_s"] = "s"
    units["density.terms_per_eval"] = "count"
    units["density.reliable_ratio"] = "ratio"
    units["density.bar_miss_share"] = "ratio"
    units["quadrature.de_halfline.levels_mean"] = "count"
    for check in CHECK_NAMES:
        units[f"verify.check.{check}.s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


# Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = _metric_units()


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, package):
        self._package = package
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = counter(args, kwargs, result) if counter else None
            tracer.spans.append((sid, name, start, end, parent,
                                 threading.get_ident(), info))
            return result

        return traced

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        self._local.stack = self._owner_stack
        self.missing = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == self._package.__name__
                   or key.startswith(self._package.__name__ + ".")]
        for home_name, attr, name, counter in TARGETS:
            home = sys.modules.get(f"{self._package.__name__}.{home_name}")
            owner_path, _, leaf = attr.rpartition(".")
            owner = getattr(home, owner_path, None) if owner_path else home
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            if owner_path:
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        verify = sys.modules[f"{self._package.__name__}.verify"]
        for kind, check in list(verify.CHECK_KINDS.items()):
            self._patch_check(verify.CHECK_KINDS, kind, check)

    def _patch_check(self, table, kind, check) -> None:
        tracer = self

        @functools.wraps(check)
        def traced_check(params):
            return tracer._wrap(f"verify.check.{params.get('name')}", check,
                                None)(params)

        self._patches.append((table, kind, check))
        table[kind] = traced_check

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (zero where a layer
    did no work)."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    terms = evals = reliable = 0
    levels = quads = 0
    for sid, name, start, end, _, _, info in spans:
        dur = end - start
        if name.startswith("verify.check."):
            key = f"{name}.s"
            if key in out:
                out[key] += dur
            continue
        count_key = next(k for k in (f"{name}.calls", f"{name}.draws",
                                     f"{name}.points") if k in out)
        out[count_key] += info if count_key.endswith((".draws", ".points")) else 1
        out[f"{name}.busy_s"] += dur
        if name in SELF_TIME:
            out[f"{name}.self_s"] += dur - _union_length(
                children.get(sid, ()), start, end)
        if name.startswith("density.") and info is not None:
            terms += info[0]
            reliable += info[1]
            evals += 1
        elif name == "quadrature.de_halfline":
            levels += info
            quads += 1
    out["density.terms_per_eval"] = terms / evals if evals else 0.0
    out["density.reliable_ratio"] = reliable / evals if evals else 0.0
    out["quadrature.de_halfline.levels_mean"] = levels / quads if quads else 0.0
    return out


def spans_to_records(spans, pass_index: int):
    """JSON-ready span records for writing out at the end of a run."""
    for sid, name, start, end, parent, thread, info in spans:
        yield {"pass": pass_index, "id": sid, "name": name, "start": start,
               "end": end, "parent": parent, "thread": thread,
               "info": list(info) if isinstance(info, tuple) else info}

