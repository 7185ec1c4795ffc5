"""Special-function kernels: log-gamma, Macdonald K_nu, Tricomi-type Psi,
and zeta at the integers from a table.

Each kernel returns an :class:`~stable_msu.util.EvalResult`, and
:func:`log_gamma` the sign of Gamma(x) beside it.  The quadrature-backed
kernels, and the Lemma 1 kernels of :mod:`stable_msu.factorizations`,
are each one call of :func:`_tricomi`: Tricomi's integral by the
exp-sinh rule of :mod:`stable_msu.quadrature` (default relative
tolerance 1e-10), with the difference between the last two levels as
its error estimate, the levels taken as ``terms_used`` and the rule's
own stopping test as ``reliable``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleError
from .quadrature import _half_table, de_halfline
from .util import EvalResult, sinpi

DEFAULT_REL_TOL = 1e-10


def log_gamma(x: float) -> tuple[EvalResult, int]:
    """log|Gamma(x)| and the sign of Gamma(x), from the standard
    library's ``math.lgamma``.

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
    return EvalResult(value, 5e-15 * (1.0 + abs(value)), 1, True), sign


# zeta(k) for k = 2..53, correctly rounded; from k = 54 on,
# zeta(k) = 1 + 2^-k + 3^-k + ... is within half an ulp of 1 and rounds
# to 1.0
_ZETA = (
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
    1.03692775514337, 1.0173430619844492, 1.008349277381923,
    1.0040773561979444, 1.0020083928260821, 1.000994575127818,
    1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086,
    1.0000076371976379, 1.000003817293265, 1.0000019082127165,
    1.0000009539620338, 1.0000004769329869, 1.0000002384505027,
    1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334,
    1.0000000018626598, 1.0000000009313275, 1.0000000004656628,
    1.000000000232831, 1.0000000001164155, 1.0000000000582077,
    1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095,
    1.0000000000004547, 1.0000000000002274, 1.0000000000001137,
    1.0000000000000568, 1.0000000000000284, 1.0000000000000142,
    1.000000000000007, 1.0000000000000036, 1.0000000000000018,
    1.0000000000000009, 1.0000000000000004, 1.0000000000000002,
    1.0000000000000002)


def _zeta(k: int) -> float:
    """The Riemann zeta function at an integer k >= 2, correctly rounded."""
    return _ZETA[k - 2] if k < 54 else 1.0


def _tricomi(name: str, args: tuple, z: float, am1: float, expos: tuple,
             log_scale: float, rel_tol: float):
    """exp(log_scale) int_0^inf e^{-z s} s^am1 (1+s)^expo ds for each
    expo in expos, one quadrature row each, as one tuple per row in the
    field order of EvalResult: value, error bar, the row's own level,
    and whether the row converged; 0 +- 0 at z = inf.  The scale sits
    inside the exponent, so a value whose unscaled integral overflows
    evaluates.
    Raises DomainError naming ``name(*args)`` where the exponent passes
    709 (or is NaN) at a node, or a value or bar is not finite."""
    if z == math.inf:
        return [(0.0, 0.0, 0, True)] * len(expos)
    expo = np.array([[e] for e in expos])

    def integrand(s: np.ndarray) -> np.ndarray:
        nodes = _half_table(s)
        e = expo * nodes.half_log1p
        e += am1 * nodes.half_log - z * s + log_scale
        if not e.max() <= 709.0:
            raise DomainError(f"{name}{args} overflows a double: its "
                              "integrand passes e^709 at a quadrature node")
        return np.exp(e, out=e)

    res = de_halfline(integrand, rel_tol=rel_tol)
    value, error = res.value.tolist(), res.error.tolist()
    if not all(map(math.isfinite, value + error)):
        raise DomainError(f"{name}{args} overflows a double: its "
                          "quadrature value is not finite")
    return list(zip(value, error, res.row_levels, res.converged))


def bessel_k(nu: float, x: float,
             rel_tol: float = DEFAULT_REL_TOL) -> EvalResult:
    """Macdonald function K_nu(x), nu >= 0, x > 0.

    Evaluated as the Tricomi function
    ``K_nu(x) = sqrt(pi) (2x)^nu e^{-x} U(nu + 1/2, 2 nu + 1, 2x)``
    (DLMF 10.39.6) by double-exponential quadrature; 0 at x = inf.
    Raises :class:`DomainError` where the integrand or K_nu(x)
    overflows a double.
    """
    if not x > 0.0:
        raise DomainError("bessel_k requires x > 0")
    if not 0.0 <= nu < math.inf:
        raise DomainError("bessel_k requires finite nu >= 0")
    args = (nu, x)
    try:
        log_scale = (nu * math.log(2.0 * x) - x + 0.5 * math.log(math.pi)
                     - math.lgamma(nu + 0.5))
    except OverflowError:  # lgamma overflows for nu past about 2.5e305
        raise DomainError(f"bessel_k{args} overflows a double") from None
    return EvalResult(*_tricomi("bessel_k", args, 2.0 * x, nu - 0.5,
                                (nu - 0.5,), log_scale, rel_tol)[0])


def psi_chf(a: float, c: float, x: float,
            rel_tol: float = DEFAULT_REL_TOL) -> EvalResult:
    """Confluent hypergeometric kernel

    ``Psi(a, c, x) = Gamma(a)^-1 int_0^inf e^{-x s} s^{a-1} (1+s)^{c-a-1} ds``

    for a > 0, x > 0 (Tricomi's U(a, c, x)); 0 at x = inf.  Strictly
    decreasing in x and strictly increasing in c.  Raises
    :class:`DomainError` where the integrand (taken as overflowing past
    e^709) or Psi overflows a double.
    """
    if not a > 0.0:
        raise DomainError("psi_chf requires a > 0")
    if not x > 0.0:
        raise DomainError("psi_chf requires x > 0")
    if math.isnan(c):
        raise DomainError("psi_chf requires a number c, got nan")
    return EvalResult(*_tricomi("psi_chf", (a, (c,), x), x, a - 1.0,
                                (c - a - 1.0,), -math.lgamma(a), rel_tol)[0])


def whittaker_w_stable(x: float,
                       rel_tol: float = DEFAULT_REL_TOL) -> EvalResult:
    """The Whittaker kernel W_{1/2,1/6}(x) for x > 0.

    Reduced to the Psi kernel: ``W(x) = e^{-x/2} x^{2/3} Psi(1/6, 4/3, x)``;
    0 at x = inf.
    """
    if not x > 0.0:
        raise DomainError("whittaker_w_stable requires x > 0")
    psi = psi_chf(1.0 / 6.0, 4.0 / 3.0, x, rel_tol=rel_tol)
    if x == math.inf:
        return psi  # 0 +- 0; e^{-x/2} x^{2/3} would make it inf * 0
    factor = math.exp(-0.5 * x + (2.0 / 3.0) * math.log(x))
    return EvalResult(factor * psi.value, factor * psi.abs_error_estimate,
                      psi.terms_used, psi.reliable)
