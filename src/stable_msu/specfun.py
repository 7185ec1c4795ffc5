"""Special-function kernels: log-gamma, Macdonald K_nu, Tricomi-type Psi.

All operations are pure functions returning a :class:`SpecEval` bundling
the value with a conservative absolute error estimate and the method
used.  The quadrature-backed kernels use the double-exponential rules
from :mod:`stable_msu.quadrature` at a default relative tolerance of
1e-10; their error estimates are the difference between the last two
refinement levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError
from .quadrature import (Integrand, QuadResult, _half_table, _levels_table,
                         de_halfline)
from .util import log_cosh, sinpi

DEFAULT_REL_TOL = 1e-10

_METHODS = ("lgamma", "quadrature")


@dataclass(frozen=True)
class SpecEval:
    """A special-function value with an absolute error estimate.

    ``sign`` is only meaningful for :func:`log_gamma`, where the value is
    log|Gamma(x)| and the sign of Gamma(x) is reported separately; the
    strictly positive kernels always carry sign +1.
    """

    value: float
    abs_error_estimate: float
    method: str
    sign: int = 1

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.abs_error_estimate)
                and self.abs_error_estimate >= 0.0):
            raise ValueError("abs_error_estimate must be finite and >= 0")


def log_gamma(x: float) -> SpecEval:
    """log|Gamma(x)| together with the sign of Gamma(x), from the
    standard library's ``math.lgamma``.

    Nonpositive integers raise :class:`PoleError`; a non-finite x, or x
    whose log|Gamma(x)| overflows a double, raises :class:`DomainError`.
    """
    if not math.isfinite(x):
        raise DomainError(f"log_gamma requires a finite x, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"Gamma pole at x = {x}")
    try:
        value = math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log Gamma({x}) overflows a double") from None
    sign = 1 if x > 0.0 or sinpi(x) > 0.0 else -1
    return SpecEval(value, 5e-15 * (1.0 + abs(value)), "lgamma", sign)


def _guard(name: str, args: tuple, integrand: Integrand) -> Integrand:
    """integrand, raising DomainError naming the kernel call
    ``name(*args)`` where it overflows a double at a node.  The
    quadrature would count such a node as 0."""

    def guarded(x: np.ndarray) -> np.ndarray:
        values = integrand(x)
        if values.max() == math.inf:
            raise DomainError(f"{name}{args} overflows a double: its "
                              "integrand is infinite at a quadrature node")
        return values

    return guarded


def _scaled(name: str, args: tuple, res: QuadResult, scale: float):
    """(scale * value, scale * error) of res, as floats for one integral
    and as lists of floats for rows, raising DomainError naming the
    kernel call ``name(*args)`` unless all of them are finite."""
    if isinstance(res.value, float):
        value, error = scale * res.value, scale * res.error
        finite = math.isfinite(value) and math.isfinite(error)
    else:
        value = [scale * v for v in res.value.tolist()]
        error = [scale * e for e in res.error.tolist()]
        finite = all(map(math.isfinite, value + error))
    if not finite:
        raise DomainError(f"{name}{args} overflows a double: its "
                          "quadrature value is not finite")
    return value, error


@lru_cache(maxsize=16)
def _log_cosh_nodes(nu: float, levels: tuple[int, int]) -> np.ndarray:
    """log cosh(nu x) at the exp-sinh nodes x of the given levels (see
    quadrature._half_table), read-only.  Every caller in the package
    passes nu = 1/3, whose tables up to level 10 take six entries."""
    out = log_cosh(nu * _levels_table(levels).half_x)
    out.flags.writeable = False
    return out


def bessel_k(nu: float, x: float, rel_tol: float = DEFAULT_REL_TOL) -> SpecEval:
    """Macdonald function K_nu(x), nu >= 0, x > 0.

    Evaluated from the cosh integral representation
    ``K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt``
    by double-exponential quadrature.  Raises :class:`DomainError` where
    the integrand or K_nu(x) overflows a double.
    """
    if not x > 0.0:
        raise DomainError("bessel_k requires x > 0")
    if not nu >= 0.0:
        raise DomainError("bessel_k requires nu >= 0")

    def integrand(t: np.ndarray) -> np.ndarray:
        levels, nodes = _half_table(t)
        e = x * nodes.half_cosh - _log_cosh_nodes(nu, levels)
        return np.where((t > 700.0) | (e > 745.0), 0.0, np.exp(-e))

    args = (nu, x)
    res = de_halfline(_guard("bessel_k", args, integrand), rel_tol=rel_tol)
    return SpecEval(*_scaled("bessel_k", args, res, 1.0), "quadrature")


def _psi_quad(a: float, cs: tuple, x: float, rel_tol: float):
    """Psi(a, c, x) and its error bar for each c in cs, one quadrature
    row each, as two lists of floats."""
    if not a > 0.0:
        raise DomainError("psi_chf requires a > 0")
    if not x > 0.0:
        raise DomainError("psi_chf requires x > 0")
    if any(math.isnan(c) for c in cs):
        raise DomainError("psi_chf requires a number c, got nan")
    am1 = a - 1.0
    cam1 = np.array([[c - a - 1.0] for c in cs])

    def integrand(s: np.ndarray) -> np.ndarray:
        _, nodes = _half_table(s)
        e = -x * s + am1 * nodes.half_log + cam1 * nodes.half_log1p
        return np.where(e > 709.0, math.inf,
                        np.where(e < -745.0, 0.0, np.exp(e)))

    args = (a, cs, x)
    res = de_halfline(_guard("psi_chf", args, integrand), rel_tol=rel_tol)
    return _scaled("psi_chf", args, res, 1.0 / math.gamma(a))


def psi_chf(a: float, c: float, x: float,
            rel_tol: float = DEFAULT_REL_TOL) -> SpecEval:
    """Confluent hypergeometric kernel

    ``Psi(a, c, x) = Gamma(a)^-1 int_0^inf e^{-x s} s^{a-1} (1+s)^{c-a-1} ds``

    for a > 0, x > 0 (Tricomi's U(a, c, x)).  Strictly decreasing in x
    and strictly increasing in c.  Raises :class:`DomainError` where the
    integrand (taken as overflowing past e^709) or Psi overflows a
    double.
    """
    (value,), (error,) = _psi_quad(a, (c,), x, rel_tol)
    return SpecEval(value, error, "quadrature")


def whittaker_w_stable(x: float, rel_tol: float = DEFAULT_REL_TOL) -> SpecEval:
    """The Whittaker kernel W_{1/2,1/6}(x) for x > 0.

    Reduced to the Psi kernel: ``W(x) = e^{-x/2} x^{2/3} Psi(1/6, 4/3, x)``.
    """
    if not x > 0.0:
        raise DomainError("whittaker_w_stable requires x > 0")
    psi = psi_chf(1.0 / 6.0, 4.0 / 3.0, x, rel_tol=rel_tol)
    factor = math.exp(-0.5 * x + (2.0 / 3.0) * math.log(x))
    return SpecEval(factor * psi.value, factor * psi.abs_error_estimate,
                    "quadrature")
