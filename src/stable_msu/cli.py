"""Command-line surface.

Each subcommand writes exactly one documented format to stdout (CSV or
JSON, floats at full round-trip precision); diagnostics go to stderr.
Exit codes: 0 success, 1 check failure, 2 usage error.  ``sample``
defaults to a fixed seed (42) unless --entropy is passed; every check,
of any kind, runs through ``acceptance --config``, whose checks carry
their own seeds.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import density as dens
from . import factorizations as fact
from . import msu as msu_mod
from . import specfun
from . import verify

DEFAULT_SEED = 42


def _alpha_from_string(text: str) -> dens.Alpha:
    if "/" in text:
        p, n = text.split("/", 1)
        return dens.Alpha.from_fraction(int(p), int(n))
    return dens.as_alpha(float(text))


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(out, rows, header) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _emit_json(payload: dict) -> None:
    """Write ``payload`` as JSON.  It is serialised in full first, so a
    non-finite float (not valid JSON) raises ValueError, a usage error,
    before anything reaches stdout."""
    payload.setdefault("schema", 1)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    sys.stdout.write(text + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stable-msu",
        description="Positive stable densities, multiplicative "
                    "log-concavity diagnostics and product factorizations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("density",
                       help="CSV x,f,f_err,fp,fpp,reliable on a log grid")
    p.add_argument("--alpha", required=True, type=_alpha_from_string,
                   help="stability index in (0,1); fractions like 2/3 allowed")
    p.add_argument("--x-min", type=float, default=0.1)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--rel-tol", type=float, default=1e-12)
    p.add_argument("--max-terms", type=int, default=400)
    p.add_argument("--dps", type=int, default=None,
                   help="mpmath digits for extended precision")

    p = sub.add_parser("scan-msu",
                       help="JSON residual-scan summary; --format csv for "
                            "the per-point grid x,g,g_err,g_over_f2,reliable")
    p.add_argument("--alpha", required=True, type=_alpha_from_string)
    p.add_argument("--x-min", type=float, default=0.5)
    p.add_argument("--x-max", type=float, default=50.0)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--csv", metavar="FILE", default=None,
                   help="also write the per-point CSV to FILE")

    p = sub.add_parser("sample", help="one exact draw of Z_alpha per line")
    p.add_argument("--alpha", required=True, type=_alpha_from_string)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--entropy", action="store_true",
                   help="use OS entropy instead of the seed")

    p = sub.add_parser("special",
                       help="CSV of a special-function kernel on a grid")
    p.add_argument("--function", required=True,
                   choices=("log-gamma", "bessel-k", "psi", "whittaker-w"))
    p.add_argument("--x-min", type=float, default=0.1)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--nu", type=float, default=1.0 / 3.0,
                   help="order for bessel-k")
    p.add_argument("--a", type=float, default=1.0 / 6.0, help="psi parameter a")
    p.add_argument("--c", type=float, default=4.0 / 3.0, help="psi parameter c")

    p = sub.add_parser("acceptance",
                       help="run the acceptance suite, or any checks of "
                            "any kind; JSON summary")
    p.add_argument("--config", default=verify.DEFAULT_ACCEPTANCE_CONFIG,
                   help="JSON config: a file path, or JSON text when it "
                        "starts with '{' (default: built-in suite)")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_density(args) -> int:
    cfg = dens.SeriesConfig(max_terms=args.max_terms, rel_tol=args.rel_tol,
                            dps=args.dps)
    xs = np.geomspace(args.x_min, args.x_max, args.points)
    jet = dens.density_jet_grid(args.alpha, xs, cfg)
    rows = zip(xs.tolist(), jet.f.value.tolist(),
               jet.f.abs_error_estimate.tolist(), jet.fp.value.tolist(),
               jet.fpp.value.tolist(),
               ("true" if r else "false" for r in jet.f.reliable.tolist()))
    _write_csv(sys.stdout, rows, ("x", "f", "f_err", "fp", "fpp", "reliable"))
    return 0


def _cmd_scan_msu(args) -> int:
    report = msu_mod.msu_scan(args.alpha, args.x_min, args.x_max, args.points)
    csv_rows = [(x, r.value, r.abs_error_estimate, nr,
                 "true" if r.reliable else "false")
                for x, r, nr in zip(report.grid, report.residuals,
                                    report.normalized_residuals)]
    header = ("x", "g", "g_err", "g_over_f2", "reliable")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            _write_csv(fh, csv_rows, header)
    if args.format == "csv":
        _write_csv(sys.stdout, csv_rows, header)
    else:
        _emit_json(report.summary())
    return 0


def _cmd_sample(args) -> int:
    rng = np.random.default_rng(None if args.entropy else args.seed)
    z = fact.sample_stable(args.alpha, rng, args.count)
    for v in np.atleast_1d(z):
        sys.stdout.write(repr(float(v)) + "\n")
    return 0


def _cmd_special(args) -> int:
    rows = []
    if args.function == "log-gamma":
        for x in np.linspace(args.x_min, args.x_max, args.points):
            ev, sign = specfun.log_gamma(float(x))
            rows.append((float(x), ev.value, sign, ev.abs_error_estimate,
                         "lgamma"))
        _write_csv(sys.stdout, rows,
                   ("x", "log_abs_gamma", "sign", "abs_error", "method"))
        return 0
    for x in np.geomspace(args.x_min, args.x_max, args.points):
        if args.function == "bessel-k":
            ev = specfun.bessel_k(args.nu, float(x))
        elif args.function == "psi":
            ev = specfun.psi_chf(args.a, args.c, float(x))
        else:
            ev = specfun.whittaker_w_stable(float(x))
        rows.append((float(x), ev.value, ev.abs_error_estimate, "quadrature"))
    _write_csv(sys.stdout, rows, ("x", "value", "abs_error", "method"))
    return 0


def _cmd_acceptance(args) -> int:
    summary = verify.run_acceptance(args.config)
    _emit_json(summary)
    return 0 if summary["all_pass"] else 1


_COMMANDS = {
    "density": _cmd_density,
    "scan-msu": _cmd_scan_msu,
    "sample": _cmd_sample,
    "special": _cmd_special,
    "acceptance": _cmd_acceptance,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; pass it through
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
