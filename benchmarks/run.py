"""Benchmark of stable_msu: end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1 \\
        --out benchmarks/results/BENCH_1.json

Workloads (see workloads.py): scan, pointwise, montecarlo, acceptance,
or ``all``, which runs each in its own process, one after another.  The
package is imported from ``src/`` of the checkout this file sits in.
BENCHMARK.json lists pointwise and acceptance, whose run-to-run spread
on a shared 2-vCPU machine stays well inside their bounds; there scan
(its GIL-bound thread pool) and montecarlo (10^6-element arrays, bound
by memory traffic that neighbours share) move by 20-25 percent from run
to run, so they are run by name or through ``all``.

A run measures set-up in fresh interpreters, warms up, then runs passes
of the workload for ``--seconds`` (at least a few passes) and checks
every output.  With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: fresh interpreter to ready (import plus warm-up), the
  fastest of several child interpreters started at intervals over the
  run (the median is in the detail line);
* ``wall_s``: wall time of one pass at its fastest, the sum over its
  operations of each operation's fastest latency in the run (see
  ``fastest_pass``; the median pass time, its quartiles and the pass
  count are printed and in the detail line);
* ``peak_rss_mb``: peak resident memory of this process;

and prints three more: ``op_tail_s``, the per-operation latency at the
highest percentile with at least ten operations beyond it (set by bursts
of host contention more than by the program, so not bounded);
``failed_share``, failed over attempted operations; and, for
``pointwise``, ``bar_miss_share``, the reliable jet components of the
coverage set outside their own error bar.  The last two may be 0; they
are carried by ``attempted``/``failed`` and the detail line.

With ``--trace 1`` untraced and traced passes alternate; the traced
passes give the per-layer metrics (median per pass) and
``trace.overhead_share`` compares the two kinds of pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, starting with ``detail``, holds every statistic and the provenance.
Exit codes: 0 success, 1 a wrong output or a program error, 2 the
program or its environment is unusable (no ``src/stable_msu``, or
``STABLE_MSU_THREADS`` set).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The bounded end-to-end metrics; op_tail_s, failed_share and
# bar_miss_share are printed and kept in the detail line.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _import_package():
    sys.path.insert(0, str(SRC))
    import stable_msu
    from stable_msu import (cli, density, factorizations, msu, quadrature,
                            specfun, verify)  # noqa: F401  (layers)
    if Path(stable_msu.__file__).resolve().parent != SRC / "stable_msu":
        raise ImportError(f"stable_msu imported from {stable_msu.__file__}, not {SRC}")
    return stable_msu


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fastest_pass(results) -> float:
    """Wall time of one pass at its fastest: the sum over the operations
    of a pass of each operation's fastest latency in the run.  On a
    shared host, neighbours slow the CPU in stretches of seconds to
    minutes that can cover most of a run, which moves every median of
    the run with them; each operation still meets an unhindered moment,
    and a slower program raises that time as much as any other.  The
    set-up time is taken the same way, from probes spread over the run."""
    return sum(min(ops) for ops in zip(*(r.op_s for r in results)))


def op_tail(latencies) -> dict:
    """The highest percentile with at least ten operations beyond it."""
    ops = sorted(latencies)
    n = len(ops)
    beyond = min(10, n - 1)
    return {"value": ops[n - 1 - beyond], "percentile": 100.0 * (n - beyond) / n,
            "beyond": beyond, "operations": n}


def _child_argv(args, workload: str, *extra) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), *extra]
    return argv + (["--smoke"] if args.smoke else [])


def measure_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the workload being
    ready, measured on a child process."""
    t0 = time.perf_counter()
    with subprocess.Popen(_child_argv(args, args.workload, "--setup-probe"),
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


def _make_workload(pkg, args):
    return workloads.WORKLOADS[args.workload](pkg, args.seed, args.smoke)


def setup_probe(args) -> int:
    pkg = _import_package()
    wl = _make_workload(pkg, args)
    try:
        wl.warm_up()
    finally:
        getattr(wl, "close", lambda: None)()
    print("ready", flush=True)
    return 0


def run_one(args) -> int:
    # set-up probes are spread over the run, like the passes, so that a
    # slow stretch of the host does not cover all of them
    probes = 1 if args.smoke else SETUP_PROBES
    setup = [measure_setup(args)]
    pkg = _import_package()
    wl = _make_workload(pkg, args)
    try:
        wl.warm_up()
        tracer = tracing.Tracer(pkg) if args.trace else None
        min_passes = (2 if args.trace else 1) if args.smoke else MIN_PASSES + args.trace
        passes, layer_passes, spans = [], [], []
        start = time.perf_counter()
        probing = 0.0

        def measured() -> float:
            return time.perf_counter() - start - probing

        while len(passes) < min_passes or measured() < args.seconds:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                result = wl.run_pass()
            finally:
                if traced:
                    tracer.uninstall()
            passes.append((traced, result))
            if traced:
                pass_spans = tracer.take()
                layer_passes.append(tracing.summarize(pass_spans))
                if args.spans:
                    spans.extend(tracing.spans_to_records(pass_spans, len(passes) - 1))
            if len(setup) < probes and measured() >= len(setup) * args.seconds / probes:
                t0 = time.perf_counter()
                setup.append(measure_setup(args))
                probing += time.perf_counter() - t0
        setup += [measure_setup(args) for _ in range(probes - len(setup))]
        if tracer is not None and tracer.missing:
            print(f"warning: not traced (not found): {tracer.missing}", file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bar = workloads.bar_misses(pkg) if args.trace else None
    finally:
        getattr(wl, "close", lambda: None)()

    plain = [r for traced, r in passes if not traced]
    attempted = sum(r.attempted for _, r in passes)
    failed = sum(r.failed for _, r in passes)
    walls = [r.wall_s for r in plain]
    q1, med, q3 = _quartiles(walls)
    tail = op_tail([t for r in plain for t in r.op_s])
    detail = {
        "workload": args.workload, "seconds": args.seconds, "smoke": args.smoke,
        "provenance": provenance(args.seed),
        "setup_s": {"value": min(setup), "median": statistics.median(setup),
                    "samples": setup},
        "wall_s": {"value": fastest_pass(plain), "pass_median": med, "q1": q1,
                   "q3": q3, "passes": len(walls), "walls": walls},
        "op_tail_s": tail,
        "peak_rss_mb": {"value": peak_rss_mb},
        "failed_share": {"value": failed / attempted, "failed": failed,
                         "attempted": attempted},
    }
    detail.update(plain[-1].notes)
    if tracer is not None:
        traced = [r for is_traced, r in passes if is_traced]
        layer = {name: statistics.median(p[name] for p in layer_passes)
                 for name in tracing.PER_LAYER_UNITS}
        layer["trace.overhead_share"] = fastest_pass(traced) / fastest_pass(plain) - 1.0
        layer["density.bar_miss_share"] = bar[0] / bar[1]
        detail["per_layer"] = layer
        detail["traced_passes"] = len(traced)
        if args.spans:
            with open(args.spans, "w") as fh:
                for record in spans:
                    fh.write(json.dumps(record) + "\n")

    _print_human(detail)
    if args.trace:
        metrics = {k: {"value": detail["per_layer"][k], "unit": u}
                   for k, u in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": detail[k]["value"], "unit": u}
                   for k, u in E2E_UNITS.items()}
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_human(d: dict) -> None:
    w = d["workload"]
    p = d["provenance"]
    print(f"[{w}] commit {p['git_commit'][:12]} seed {p['seed']} nproc {p['nproc']} "
          f"cpu_count {p['os_cpu_count']} ({p['cpu_model']}) python {p['python']} "
          f"numpy {p['numpy']} scipy {p['scipy']} mpmath {p['mpmath']} "
          f"blas_env {p['blas_env']}")
    s, wl, t = d["setup_s"], d["wall_s"], d["op_tail_s"]
    print(f"[{w}] setup_s        {s['value']:.4f} s (fastest of {len(s['samples'])} probes "
          f"spread over the run; median {s['median']:.4f})")
    print(f"[{w}] wall_s         {wl['value']:.4f} s (sum of per-operation fastest over "
          f"{wl['passes']} passes; pass median {wl['pass_median']:.4f}, "
          f"q1 {wl['q1']:.4f}, q3 {wl['q3']:.4f})")
    print(f"[{w}] op_tail_s      {t['value']:.6f} s (p{t['percentile']:.2f}, "
          f"{t['beyond']} of {t['operations']} operations beyond)")
    f = d["failed_share"]
    print(f"[{w}] failed_share   {f['value']:.6f} ratio ({f['failed']}/{f['attempted']})")
    print(f"[{w}] peak_rss_mb    {d['peak_rss_mb']['value']:.1f} MB")
    if "ks" in d:
        for name, ks in d["ks"].items():
            print(f"[{w}] ks {name}: statistic {ks['statistic']:.6f}, critical "
                  f"{ks['critical_1pct']:.6f}, seed {ks['seed']}, "
                  f"{'pass' if ks['passed'] else 'REJECT'} at 1%")
    if "bar_miss_share" in d:
        b = d["bar_miss_share"]
        print(f"[{w}] bar_miss_share {b['value']:.6f} ratio ({b['misses']}/{b['reliable']})")
    for name, value in d.get("per_layer", {}).items():
        print(f"[{w}] {name} {value:.6g} {tracing.PER_LAYER_UNITS[name]}")


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    results, status = {}, 0
    for name in workloads.NAMES:
        for traced in sorted({0, args.trace}):
            argv = _child_argv(args, name, "--seconds", str(args.seconds),
                               "--trace", str(traced))
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            for line in lines[:-2]:
                print(line)
            if proc.returncode != 0 or len(lines) < 2:
                print(f"[{name}] failed with exit {proc.returncode}", file=sys.stderr)
                status = status or proc.returncode or 1
                continue
            detail = json.loads(lines[-2][len("detail "):])
            results.setdefault(name, {}).update(
                {k: v for k, v in detail.items() if k != "provenance"})
            results["provenance"] = detail["provenance"]
    if args.out:
        Path(args.out).write_text(json.dumps({"schema": 1, **results}, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "pointwise", "montecarlo", "acceptance", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up probe, one pass per kind")
    parser.add_argument("--out", help="also write the statistics and provenance here")
    parser.add_argument("--spans", help="with --trace 1, write the spans here (JSON lines)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if "STABLE_MSU_THREADS" in os.environ:
        print("error: STABLE_MSU_THREADS is set; it changes the measured program",
              file=sys.stderr)
        return 2
    if not (SRC / "stable_msu" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'stable_msu'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception as exc:  # a wrong output or a program error ends the run
        traceback.print_exc()
        kind = "wrong output" if isinstance(exc, workloads.CheckFailed) else "error"
        print(f"[{args.workload}] {kind}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
