"""Positive stable densities on (0, inf), normalized so that
``int_0^inf e^{-lambda t} f_a(t) dt = exp(-lambda**a)`` for 0 < a < 1.

The density and its first two derivatives are evaluated from the
convergent large-x expansion

    f_a(x) = (1/pi) sum_{n>=1} (-1)^{n-1}/n! sin(pi a n) Gamma(1+a n) x^{-(1+a n)}

which may be differentiated term by term; the logarithmic-derivative
combinations x f' and x^2 f'' + x f' share the same coefficients with
multipliers -(1+a n) and +(1+a n)^2.  The sine form makes terms with
``a n`` integer vanish exactly, and summation is compensated
(Neumaier).  At small x the terms grow before they decay and the sum
cancels catastrophically; a guard (the constant ``_CANCELLATION_GUARD``)
flags such evaluations as unreliable instead of returning noise.  An
optional extended precision mode (``SeriesConfig.dps``) pushes the
reliable region down by evaluating with mpmath.

The series engine has two paths with one set of rules (truncation,
compensation, overflow cut, error bars and flags):

* ``_hp_sums`` sums one float x in a plain Python loop, with each
  Neumaier sum in its own local variables.  The scalar operations use
  it, and so do the pointwise callers: ``msu.lce_residual``, the mode
  and inflection bisections of ``msu.msu_scan``, ``reliable_x_min``,
  and the lambda = 0 ladder of ``laplace_check`` and its tail value for
  a cutoff past that ladder.
* ``_hp_sums_grid`` sums a whole x array, one column per point, a block
  of terms at a time: 8 terms, then 16, 32 and so on, fewer where the
  grid is wide.  In a block the running sums and the running sums of
  the Neumaier corrections are taken along the term axis, adding in
  the float loop's order; each column then stops at the first term that
  the float loop would stop at, and leaves the working arrays.
  ``msu.msu_scan`` and the ``*_grid`` operations use it, and every
  other caller with a grid goes through those: both segments of
  ``verify.build_cdf``, the closed-form and expansion acceptance checks,
  ``laplace_check`` (once per alpha its left piece with both endpoints
  and the lambda = 0 ladder's piece ends, and that ladder's middle
  piece; a lambda > 0 call only for a cutoff past the ladder, its
  whole middle piece) and the ``density`` CLI.

Both paths return bit-identical values, error bars, term counts and
flags.  They read each term's log from the same coefficient arrays
(``_coef_arrays``) and take its exp from numpy's vectorised kernel,
the float loop 32 terms at a time.  That rests on one premise, which
the tests check: numpy's exp gives an argument the same bits whatever
the length of the array and the argument's place in it.  A grid call
for one point costs several float-loop calls, so pointwise callers
stay on the float loop.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import specfun
from .errors import DomainError, UnsupportedAlphaError
from .util import EvalResult, bisect_log, sinpi

_LN_PI = math.log(math.pi)
_EPS = 2.220446049250313e-16
_TINY = 1e-300
_NORMAL_MIN = sys.float_info.min


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alpha:
    """Stability index in (0, 1), optionally carrying an exact rational form.

    When ``rational_form = (p, n)`` is present it is stored reduced and
    exact; series coefficients then decide ``a*n in N`` by integer
    arithmetic instead of floating point.
    """

    value: float
    rational_form: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.value < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.value}")
        if self.rational_form is not None:
            p, n = self.rational_form
            if p < 1 or n < 2 or math.gcd(p, n) != 1:
                raise DomainError(f"bad rational form {self.rational_form}")
            if p / n != self.value:
                raise DomainError("rational_form does not match value")

    @classmethod
    def from_fraction(cls, p: int, n: int) -> "Alpha":
        if not 0 < p < n:
            # checked before p / n is formed, which overflows for a large p
            raise DomainError(f"alpha = {p}/{n} needs integers 0 < p < n")
        g = math.gcd(p, n)
        p, n = p // g, n // g
        return cls(p / n, (p, n))


def as_alpha(a) -> Alpha:
    """Coerce a float or Alpha to Alpha."""
    if isinstance(a, Alpha):
        return a
    return Alpha(float(a))


# the largest tolerated ratio of the largest |term| to the |sum| of a
# series evaluated in doubles
_CANCELLATION_GUARD = 1e8


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation and reliability policy for the series evaluators.

    A sum is reliable while its largest |term| is at most
    ``_CANCELLATION_GUARD`` times the |sum|; with ``dps`` set the guard
    scales up by 10**(dps-16) since the extra digits absorb the
    cancellation.
    """

    max_terms: int = 400
    rel_tol: float = 1e-12
    dps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.dps is not None and self.dps < 5:
            raise ValueError("dps must be >= 5")

    def effective_guard(self) -> float:
        if self.dps is None:
            return _CANCELLATION_GUARD
        return _CANCELLATION_GUARD * 10.0 ** max(0, self.dps - 16)


DEFAULT_SERIES_CONFIG = SeriesConfig()


@dataclass(frozen=True)
class DensityJet:
    """f, f' and f'' at one point (or, from density_jet_grid, at every
    point of an array), sharing term generation and policy."""

    f: EvalResult
    fp: EvalResult
    fpp: EvalResult


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def _sin_pi_alpha_n(alpha: Alpha, n: int) -> float:
    """sin(pi*alpha*n) with exact zeros when alpha*n is an integer."""
    if alpha.rational_form is not None:
        p, den = alpha.rational_form
        r = (p * n) % (2 * den)
        if r % den == 0:
            return 0.0
        return math.sin(math.pi * r / den)
    return sinpi(alpha.value * n)


@lru_cache(maxsize=64)
def _coef_table(alpha: Alpha, n_max: int):
    """log-magnitudes and signs of c_n = (-1)^{n-1} sin(pi a n) G(1+a n)/(pi n!)."""
    logs = [0.0] * (n_max + 1)
    signs = [0] * (n_max + 1)
    a = alpha.value
    for n in range(1, n_max + 1):
        s = _sin_pi_alpha_n(alpha, n)
        if s == 0.0:
            continue
        logs[n] = (math.log(abs(s)) + math.lgamma(1.0 + a * n)
                   - math.lgamma(n + 1.0) - _LN_PI)
        signs[n] = (1 if n % 2 == 1 else -1) * (1 if s > 0.0 else -1)
    return tuple(logs), tuple(signs)


@lru_cache(maxsize=64)
def _coef_arrays(alpha: Alpha, n_max: int, survival: bool):
    """_coef_table as read-only float arrays indexed by n = 0..n_max:
    (logs, powers, signs) with log|term_n| = logs[n] - powers[n] log x.

    For the density powers[n] = 1 + a n; for the integrated tail
    powers[n] = a n and logs[n] carries the extra -log(a n).  Rows with
    c_n = 0 (and row 0) hold log -inf and sign 0, so their terms come out
    as exact zeros and never trip the overflow cut.
    """
    logs, signs = _coef_table(alpha, n_max)
    a = alpha.value
    an = [a * n for n in range(n_max + 1)]
    if survival:
        lg = [logs[n] - math.log(an[n]) if signs[n] else -math.inf
              for n in range(n_max + 1)]
        pw = an
    else:
        lg = [logs[n] if signs[n] else -math.inf for n in range(n_max + 1)]
        pw = [1.0 + v for v in an]
    arrays = (np.array(lg), np.array(pw), np.array(signs, dtype=float))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _log_terms(logs, powers, lx: float, n0: int):
    """Lists of log|t_n| and exp(log|t_n|) for n = n0 .. n0+31, from
    numpy's exp as in _hp_sums_grid.  Logs past 700, which lie beyond the
    overflow cut and are never used, are exponentiated as 700.
    """
    lt = logs[n0:n0 + 32] - powers[n0:n0 + 32] * lx
    return lt.tolist(), np.exp(np.minimum(lt, 700.0)).tolist()


# ---------------------------------------------------------------------------
# series engine
# ---------------------------------------------------------------------------

_BUDGET, _CONVERGED, _BLOWN = 0, 1, 2

# largest block of _hp_sums_grid, in elements: k sums x b terms x columns
_BLOCK_ELEMENTS = 1 << 15
# from this many lanes (k sums x columns) on, _running_sums adds by rows
_ROW_LOOP_LANES = 256


def _running_sums(a) -> None:
    """Replace the (k, rows, columns) array ``a`` by its running sums
    along the rows, added strictly in row order as the float loop adds.

    ufunc.accumulate walks one lane (k, column) at a time; with many
    lanes one vector add per row is faster, and the sums are the same.
    """
    if a.shape[0] * a.shape[2] < _ROW_LOOP_LANES:
        np.add.accumulate(a, axis=1, out=a)
    else:
        for i in range(1, a.shape[1]):
            np.add(a[:, i - 1], a[:, i], out=a[:, i])


def _bars(totals, maxabs, lastnz, n_used: int, status: int,
          cfg: SeriesConfig, ulp):
    """Error bars and reliability flags of one point's finished sums.

    ``ulp`` is the unit roundoff of the loop that summed: _EPS for the
    float loop, 10**-dps for the mpmath loop, which passes its maxima and
    last terms as mpf and calls this under its working precision.  A sum
    whose largest |term| is below the least normal double is unreliable:
    its terms have underflowed, to 0 or to subnormals, and its value and
    bar with them.  _hp_sums_grid applies the same rule to whole arrays.
    """
    if status == _BLOWN:
        return [math.inf] * len(totals), [False] * len(totals)
    converged = status == _CONVERGED
    guard = cfg.effective_guard()
    errors = []
    flags = []
    for total, mx, last in zip(totals, maxabs, lastnz):
        noise = float(mx * ulp) * min(n_used, 64)
        mx, last = float(mx), float(last)
        if converged:
            trunc = 3.0 * last + cfg.rel_tol * abs(total)
        else:
            trunc = abs(last) + mx * cfg.rel_tol
        errors.append(trunc + 2.0 * noise)
        flags.append(converged and _NORMAL_MIN <= mx
                     <= guard * (abs(total) + _TINY))
    return errors, flags


def _check_order(order: int, survival: bool) -> None:
    """Both engines sum the density (order 0), its jet (order 2) or the
    integrated tail (order 0 only)."""
    if order not in (0, 2):
        raise ValueError(f"series order must be 0 or 2, got {order}")
    if survival and order != 0:
        raise ValueError("the survival series has order 0 only")


def _hp_sums(alpha: Alpha, x: float, cfg: SeriesConfig, order: int,
             survival: bool = False):
    """Shared evaluator for the density series and its theta-derivatives.

    Returns (totals, errors, reliable_flags, terms_used, converged):
    totals[i] is the sum with per-term multiplier 1, -(1+a n), (1+a n)^2
    for i = 0, 1, 2 (order 2; order 0 gives i = 0 only).  With
    ``survival=True`` (order 0 only) the termwise integrated tail
    ``sum c_n x^{-a n}/(a n)`` is produced instead.

    Sum i keeps its running total, Neumaier correction, largest |term|
    and last nonzero |term| in the locals s_i, c_i, m_i and l_i, and the
    Neumaier step is written out for each sum: the jet costs about 40
    percent less than with lists of sums and a loop over them.
    """
    _check_order(order, survival)
    if not x > 0.0:
        raise DomainError("series evaluation requires x > 0")
    if cfg.dps is not None:
        return _hp_sums_mp(alpha, x, cfg, order, survival)
    signs = _coef_table(alpha, cfg.max_terms)[1]
    logs, powers, _ = _coef_arrays(alpha, cfg.max_terms, survival)
    a = alpha.value
    rel_tol = cfg.rel_tol
    jet = order == 2
    lx = math.log(x)
    s0 = c0 = m0 = l0 = 0.0
    s1 = c1 = m1 = l1 = 0.0
    s2 = c2 = m2 = l2 = 0.0
    small_run = 0
    status = _BUDGET
    n_used = 0
    for n in range(1, cfg.max_terms + 1):
        n_used = n
        j = (n - 1) % 32
        if j == 0:
            lts, exps = _log_terms(logs, powers, lx, n)
        sgn = signs[n]
        if sgn == 0:
            t0 = 0.0
        else:
            if lts[j] > 690.0:
                # terms overflow doubles; the sum is hopeless here
                status = _BLOWN
                break
            t0 = sgn * exps[j]
        t = t0 * 1.0
        new = s0 + t
        if abs(s0) >= abs(t):
            c0 += (s0 - new) + t
        else:
            c0 += (t - new) + s0
        s0 = new
        at = abs(t)
        if at > m0:
            m0 = at
        if at > 0.0:
            l0 = at
        if jet:
            m = 1.0 + a * n
            t = t0 * -m
            new = s1 + t
            if abs(s1) >= abs(t):
                c1 += (s1 - new) + t
            else:
                c1 += (t - new) + s1
            s1 = new
            at = abs(t)
            if at > m1:
                m1 = at
            if at > 0.0:
                l1 = at
            t = t0 * (m * m)
            new = s2 + t
            if abs(s2) >= abs(t):
                c2 += (s2 - new) + t
            else:
                c2 += (t - new) + s2
            s2 = new
            at = abs(t)
            if at > m2:
                m2 = at
            if at > 0.0:
                l2 = at
        if abs(t0) <= rel_tol * (abs(s0 + c0) + _TINY):
            small_run += 1
            if small_run >= 3 and n >= 4:
                status = _CONVERGED
                break
        else:
            small_run = 0
    if jet:
        totals = [s0 + c0, s1 + c1, s2 + c2]
        maxabs, lastnz = [m0, m1, m2], [l0, l1, l2]
    else:
        totals, maxabs, lastnz = [s0 + c0], [m0], [l0]
    errors, flags = _bars(totals, maxabs, lastnz, n_used, status, cfg, _EPS)
    return totals, errors, flags, n_used, status == _CONVERGED


def _hp_sums_mp(alpha: Alpha, x: float, cfg: SeriesConfig, order: int,
                survival: bool):
    """mpmath mirror of _hp_sums for the extended precision mode."""
    import mpmath as mp  # only this mode needs it; it adds 4 MB and 40 ms
    k = order + 1
    with mp.workdps(cfg.dps):
        if alpha.rational_form is not None:
            a = mp.mpf(alpha.rational_form[0]) / alpha.rational_form[1]
        else:
            a = mp.mpf(alpha.value)
        xm = mp.mpf(x)
        sums = [mp.mpf(0)] * k
        maxabs = [mp.mpf(0)] * k
        lastnz = [mp.mpf(0)] * k
        small_run = 0
        status = _BUDGET
        n_used = 0
        floor = mp.mpf(10) ** -2000
        for n in range(1, cfg.max_terms + 1):
            n_used = n
            if alpha.rational_form is not None:
                p, den = alpha.rational_form
                s = mp.mpf(0) if (p * n) % den == 0 \
                    else mp.sinpi(mp.mpf(p * n) / den)
            else:
                s = mp.sinpi(a * n)
            if s == 0:
                t0 = mp.mpf(0)
            else:
                sign = 1 if n % 2 == 1 else -1
                base = sign * s * mp.gamma(1 + a * n) / (mp.pi * mp.factorial(n))
                if survival:
                    t0 = base * xm ** (-a * n) / (a * n)
                else:
                    t0 = base * xm ** (-(1 + a * n))
            if k == 1:
                multipliers = (mp.mpf(1),)
            else:
                m = 1 + a * n
                multipliers = (mp.mpf(1), -m, m * m)
            for i in range(k):
                t = t0 * multipliers[i]
                sums[i] += t
                at = abs(t)
                if at > maxabs[i]:
                    maxabs[i] = at
                if at > 0:
                    lastnz[i] = at
            if abs(t0) <= cfg.rel_tol * (abs(sums[0]) + floor):
                small_run += 1
                if small_run >= 3 and n >= 4:
                    status = _CONVERGED
                    break
            else:
                small_run = 0
        totals = [float(s) for s in sums]
        errors, flags = _bars(totals, maxabs, lastnz, n_used, status, cfg,
                              mp.mpf(10) ** (-cfg.dps))
    return totals, errors, flags, n_used, status == _CONVERGED


def _hp_sums_grid(alpha: Alpha, xs, cfg: SeriesConfig, order: int,
                  survival: bool = False):
    """Array counterpart of _hp_sums over a one-dimensional x array.

    Applies _hp_sums's truncation rule, Neumaier steps, overflow cut,
    error bars and flags to every column, a block of b terms at a time:
    b starts at 8 and doubles from block to block, capped so that one
    (k, b, columns) array holds at most _BLOCK_ELEMENTS numbers (at least
    one term).  A column stops at the first term past e^690 (before
    adding it) or at the third small term in a row from n = 4 on,
    whichever comes first, and leaves the working arrays.  Returns (totals,
    errors, flags, terms_used, converged) with shapes (k, N), (k, N),
    (k, N), (N,) and (N,) for k = order + 1.
    """
    _check_order(order, survival)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("grid evaluation needs a one-dimensional x array")
    if not np.all(xs > 0.0):
        raise DomainError("series evaluation requires x > 0")
    k = order + 1
    if cfg.dps is not None:
        cols = [_hp_sums_mp(alpha, x, cfg, order, survival)
                for x in xs.tolist()]
        totals, errors, flags = (
            np.array([c[j] for c in cols], dtype=kind).reshape(-1, k).T
            for j, kind in ((0, float), (1, float), (2, bool)))
        return (totals, errors, flags,
                np.array([c[3] for c in cols], dtype=int),
                np.array([c[4] for c in cols], dtype=bool))
    logs, powers, signs = _coef_arrays(alpha, cfg.max_terms, survival)
    if k > 1:
        mult = np.stack([np.ones_like(powers), -powers, powers * powers])
    n_pts = xs.size
    out_tot = np.zeros((k, n_pts))
    out_max = np.zeros((k, n_pts))
    out_last = np.zeros((k, n_pts))
    out_n = np.full(n_pts, cfg.max_terms)
    status = np.full(n_pts, _BUDGET)

    # state of the unfinished columns after the last block, with the
    # small-term flags of its last two rows
    idx = np.arange(n_pts)
    lx = np.fromiter(map(math.log, xs.tolist()), float, n_pts)
    sums = np.zeros((k, n_pts))
    comps = np.zeros((k, n_pts))
    maxabs = np.zeros((k, n_pts))
    lastnz = np.zeros((k, n_pts))
    small = np.zeros((2, n_pts), dtype=bool)

    # A block takes terms n0 .. n0+b-1 of every unfinished column.  Its
    # arrays have shape (k, b+1, columns) with the carried state in row
    # 0, so an accumulate along the rows makes the float loop's
    # sequential updates in the same order, bit for bit.  Each column
    # then takes the state at its stopping row, and later rows are
    # dropped.  The float loop lets sums overflow to inf and nan without
    # a word (only terms past e^690 are cut); the columns follow it.
    n0, rows = 1, 8
    with np.errstate(over="ignore", invalid="ignore"):
        while idx.size and n0 <= cfg.max_terms:
            nc = idx.size
            cols = np.arange(nc)
            b = min(rows, max(1, _BLOCK_ELEMENTS // (k * nc)),
                    cfg.max_terms + 1 - n0)
            n1 = n0 + b
            lt = logs[n0:n1, None] - powers[n0:n1, None] * lx
            t0 = signs[n0:n1, None] * np.exp(lt)
            ts = np.empty((k, b + 1, nc))
            ts[:, 0] = sums
            if k == 1:
                ts[0, 1:] = t0
            else:
                np.multiply(t0, mult[:, n0:n1, None], out=ts[:, 1:])
            run = ts.copy()
            _running_sums(run)
            # each step's Neumaier correction, then their running sum
            prev, new, t = run[:, :-1], run[:, 1:], ts[:, 1:]
            at = np.abs(t)
            comp = np.empty_like(ts)
            comp[:, 0] = comps
            comp[:, 1:] = np.where(np.abs(prev) >= at, (prev - new) + t,
                                   (t - new) + prev)
            _running_sums(comp)
            # block row (from 1) of each nonzero term, 0 for a zero term;
            # a term is zero in all k sums or in none (|multipliers| >= 1)
            a0 = at[0]
            nz_row = np.where(a0 > 0.0, np.arange(1, b + 1)[:, None], 0)

            # stopping rows: a term past e^690 stops the column before it
            # is added; three small terms in a row stop it after the
            # third, from n = 4 on; the first of the two wins
            denom = np.abs(run[0, 1:] + comp[0, 1:]) + _TINY
            sm = np.concatenate([small, a0 <= cfg.rel_tol * denom])
            conv = sm[2:] & sm[1:-1] & sm[:-2]
            conv[:max(0, 4 - n0)] = False
            blown = lt > 690.0
            event = blown | conv
            r = event.argmax(axis=0)
            done = event[r, cols]
            blew = done & blown[r, cols]

            # the state at the end of the block, for the columns that go on
            li = nz_row.max(axis=0)
            end_last = np.where(li > 0, np.abs(ts[:, li, cols]), lastnz)
            end_max = np.fmax(maxabs, np.fmax.reduce(at, axis=1))
            keep = slice(None)
            if done.any():
                # a stopped column keeps the rows before its overflowing
                # term, or up to its third small one
                d = np.flatnonzero(done)
                j = np.where(blew[d], r[d], r[d] + 1)
                used = np.arange(b)[:, None] < j
                li = np.where(used, nz_row[:, d], 0).max(axis=0)
                c = idx[d]
                out_tot[:, c] = run[:, j, d] + comp[:, j, d]
                out_max[:, c] = np.fmax(maxabs[:, d], np.fmax.reduce(
                    np.where(used, at[:, :, d], 0.0), axis=1))
                out_last[:, c] = np.where(li > 0, np.abs(ts[:, li, d]),
                                          lastnz[:, d])
                out_n[c] = n0 + r[d]
                status[c] = np.where(blew[d], _BLOWN, _CONVERGED)
                keep = np.flatnonzero(~done)
            idx, lx, small = idx[keep], lx[keep], sm[-2:, keep]
            sums, comps = run[:, -1, keep], comp[:, -1, keep]
            maxabs, lastnz = end_max[:, keep], end_last[:, keep]
            n0, rows = n1, 2 * rows
        out_tot[:, idx] = sums + comps
        out_max[:, idx] = maxabs
        out_last[:, idx] = lastnz

        converged = status == _CONVERGED
        noise = out_max * _EPS * np.minimum(out_n, 64)
        trunc = np.where(converged,
                         3.0 * out_last + cfg.rel_tol * np.abs(out_tot),
                         np.abs(out_last) + out_max * cfg.rel_tol)
        errors = np.where(status == _BLOWN, math.inf, trunc + 2.0 * noise)
        flags = converged & (out_max >= _NORMAL_MIN) & (
            out_max <= cfg.effective_guard() * (np.abs(out_tot) + _TINY))
    return out_tot, errors, flags, out_n, converged


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _series_result(sums) -> EvalResult:
    totals, errors, flags, n_used, _ = sums
    return EvalResult(totals[0], errors[0], n_used, flags[0])


def _jet_result(sums, x) -> DensityJet:
    totals, errors, flags, n_used, _ = sums
    fields = ((totals[0], errors[0]), (totals[1] / x, errors[1] / x),
              ((totals[2] - totals[1]) / (x * x),
               (errors[2] + errors[1]) / (x * x)))
    # a derivative overflows where x is tiny: no field is reliable unless
    # every value and bar is finite
    ok = flags[0] & flags[1] & flags[2]
    for part in (p for field in fields for p in field):
        ok = ok & (abs(part) < math.inf)
    return DensityJet(*(EvalResult(v, e, n_used, ok) for v, e in fields))


def density_series(alpha, x: float,
                   cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """f_alpha(x) from the series; nonnegative whenever reliable."""
    return _series_result(_hp_sums(as_alpha(alpha), x, cfg, order=0))


def density_jet(alpha, x: float,
                cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> DensityJet:
    """f, f', f'' at x with shared term generation.

    The series produce f, x f' and x^2 f'' + x f' directly; the
    derivatives are recovered by dividing out the powers of x.  All
    three results carry one shared reliability verdict, which also asks
    that every value and bar be finite.
    """
    sums = _hp_sums(as_alpha(alpha), x, cfg, order=2)
    if x * x != 0.0:
        return _jet_result(sums, x)
    # x^2 underflows to 0: divide by it with IEEE inf and nan, as
    # density_jet_grid does
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        jet = _jet_result(sums, np.float64(x))
    return DensityJet(*(EvalResult(float(r.value), float(r.abs_error_estimate),
                                   r.terms_used, bool(r.reliable))
                        for r in (jet.f, jet.fp, jet.fpp)))


def survival_series(alpha, x: float,
                    cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """P[Z > x] from termwise integration of the density series.

    Near zero the value saturates at 1, so the guard there effectively
    measures absolute (not relative) trustworthiness, which is what the
    consumers (CDF and Laplace assembly) need.
    """
    return _series_result(_hp_sums(as_alpha(alpha), x, cfg, order=0,
                                   survival=True))


def density_series_grid(
        alpha, xs, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """density_series at every point of the 1-d array ``xs``; each field
    of the result is an array over the grid."""
    return _series_result(_hp_sums_grid(as_alpha(alpha), xs, cfg, order=0))


def density_jet_grid(alpha, xs,
                     cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> DensityJet:
    """density_jet at every point of the 1-d array ``xs``; every field of
    the jet and of its EvalResults is an array over the grid."""
    xs = np.asarray(xs, dtype=float)
    sums = _hp_sums_grid(as_alpha(alpha), xs, cfg, order=2)
    # a cancelled sum over a tiny x^2 may overflow, and x^2 may underflow
    # to 0; those points get IEEE inf and nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _jet_result(sums, xs)


def survival_series_grid(
        alpha, xs, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> EvalResult:
    """survival_series at every point of the 1-d array ``xs``; each field
    of the result is an array over the grid."""
    return _series_result(_hp_sums_grid(as_alpha(alpha), xs, cfg, order=0,
                                        survival=True))


def tail_coefficient(alpha) -> float:
    """lim_{x->inf} f_alpha(x) x^{1+alpha} = alpha / Gamma(1-alpha)."""
    alpha = as_alpha(alpha)
    return alpha.value / math.gamma(1.0 - alpha.value)


_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)
_INV_TWO_SQRT_PI = 1.0 / _TWO_SQRT_PI
# density_closed at the x where its x**1.5 or x*x underflows (below
# 1e-162): each closed form has a factor exp(-c/x^p) with c/x^p above
# 1e99 there, so f is below the least subnormal
_UNDERFLOWED = EvalResult(0.0, math.ulp(0.0), 1, True)


def density_closed(alpha, x: float) -> EvalResult:
    """Closed forms for alpha in {1/3, 1/2, 2/3}.

    * 1/2: elementary.
    * 1/3: Macdonald function of order 1/3.
    * 2/3: Whittaker kernel.

    The kernel forms pass their kernel's levels and convergence through.
    """
    alpha = as_alpha(alpha)
    if not x > 0.0:
        raise DomainError("density_closed requires x > 0")
    a = alpha.value
    if a == 0.5:
        if x > 1e205:
            # x**1.5 would overflow; f < 1e-308 here, so its roundings
            # add less than 2 eps of it and half a subnormal ulp
            v = _INV_TWO_SQRT_PI / x / math.sqrt(x)
            return EvalResult(v, 2.0 * _EPS * v + math.ulp(0.0), 1, True)
        t = 0.25 / x
        e = math.exp(-t)
        d = _TWO_SQRT_PI * x ** 1.5
        if d == 0.0:
            return _UNDERFLOWED
        v = e / d
        # Each rounding is at most half an ulp, or one for exp and **.
        # t's rounding is an error of t eps/2 in exp's argument, and so
        # relative in e; 2 sqrt(pi) (math.pi and the sqrt), x**1.5 and
        # the product add 4.5 half-ulps of d, rounded up to 5 for the
        # products of all these; then one ulp of e, over d, and half an
        # ulp of v.  The last two hold where e or v is subnormal, too.
        bar = (0.5 * _EPS * (t + 5.0) * v + math.ulp(e) / d
               + 0.5 * math.ulp(v))
        return EvalResult(v, bar, 1, True)
    if a == 1.0 / 3.0:
        if x < 1e-200:
            return _UNDERFLOWED
        arg = (2.0 / (3.0 * math.sqrt(3.0))) / math.sqrt(x)
        k = specfun.bessel_k(1.0 / 3.0, arg, rel_tol=1e-12)
        if x > 1e205:
            # x**1.5 would overflow: divide by its factors in turn
            r = 3.0 * math.pi * math.sqrt(x)
            v = k.value / r / x
            return EvalResult(v, k.abs_error_estimate / r / x + math.ulp(v),
                              k.terms_used, k.reliable)
        scale = 1.0 / (3.0 * math.pi * x ** 1.5)
        return EvalResult(scale * k.value, scale * k.abs_error_estimate,
                          k.terms_used, k.reliable)
    if a == 2.0 / 3.0:
        # Whittaker form of f_{2/3} (Zolotarev, One-dimensional Stable
        # Distributions, 1986):
        # sqrt(3/pi)/x exp(-2/(27x^2)) W_{1/2,1/6}(4/(27x^2))
        y = 27.0 * x * x
        if y == 0.0:
            return _UNDERFLOWED
        w = specfun.whittaker_w_stable(4.0 / y, rel_tol=1e-12)
        v = (math.sqrt(3.0 / math.pi) / x) * math.exp(-2.0 / y) * w.value
        return EvalResult(v, 1e-9 * abs(v), w.terms_used, w.reliable)
    raise UnsupportedAlphaError(
        f"no closed form for alpha = {a}; supported: 1/3, 1/2, 2/3")


# ---------------------------------------------------------------------------
# reliable-domain detection and the Laplace transform oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def reliable_x_min(alpha: Alpha, survival: bool = False) -> float:
    """Smallest x at which the series evaluation is flagged reliable,
    found by bisecting the guard flag: 25 geometric bisections of a
    factor-2 bracket place it within about 2e-8 relative."""
    def unreliable(x: float) -> bool:
        if survival:
            return not survival_series(alpha, x).reliable
        return not all(_hp_sums(alpha, x, DEFAULT_SERIES_CONFIG, order=2)[2])

    hi = 1.0
    while unreliable(hi):
        hi *= 2.0
        if hi > 2.0 ** 40:
            raise DomainError("no reliable region found")
    lo = hi
    while lo > 1e-12 and not unreliable(lo * 0.5):
        lo *= 0.5
    if lo <= 1e-12:
        return 1e-12
    return bisect_log(unreliable, lo * 0.5, lo, steps=25)[1]


def _decade_edges(lo: float, hi: float) -> tuple[float, ...]:
    """lo, 10 lo, 100 lo, ... up to hi (the last piece may be shorter),
    with the first piece halved at its geometric midpoint.

    For alpha near 1 the density climbs as exp(-c x^{-a/(1-a)}) just
    above the reliable bound; one 64-point rule over that whole decade
    is off by 3e-10 at alpha = 0.95 and 7e-9 at 0.99, two are not.
    """
    edges = [lo]
    while edges[-1] < hi:
        edges.append(min(hi, edges[-1] * 10.0))
    edges.insert(1, math.sqrt(edges[0] * edges[1]))
    return tuple(edges)


# The positive half of the 64-point Gauss-Legendre rule on [-1, 1]:
# (node, weight) in increasing node order, as numpy's leggauss(64) gives
# them (it symmetrises the rule exactly, and its weights sum to 2).
_GL64_HALF = (
    ('0x1.8ef487a8cbc32p-6', '0x1.8ee0567ee2e5dp-5'),
    ('0x1.2afad5ee95ad0p-4', '0x1.8dee238192cdcp-5'),
    ('0x1.f182ff48e8a26p-4', '0x1.8c0a5097676c0p-5'),
    ('0x1.5b6e88ad5c00fp-3', '0x1.89360387fe3b9p-5'),
    ('0x1.bd489b79ec83bp-3', '0x1.8572f41fbb53dp-5'),
    ('0x1.0f0a26c56e49cp-2', '0x1.80c36b24bdd21p-5'),
    ('0x1.3ecb6c46c76cbp-2', '0x1.7b2a40f3ccde2p-5'),
    ('0x1.6dcb1f0620fffp-2', '0x1.74aadbc614fb9p-5'),
    ('0x1.9becb55272c9dp-2', '0x1.6d492da0c2510p-5'),
    ('0x1.c9142c5898fc5p-2', '0x1.6509b1efb8dfcp-5'),
    ('0x1.f52619257c3a1p-2', '0x1.5bf16accdf431p-5'),
    ('0x1.1003dca600f34p-1', '0x1.5205ddf5a36e2p-5'),
    ('0x1.24cf81925487fp-1', '0x1.474d117092830p-5'),
    ('0x1.38e95ace7b3c3p-1', '0x1.3bcd87e50de1ep-5'),
    ('0x1.4c4533c68b412p-1', '0x1.2f8e3ca7574e3p-5'),
    ('0x1.5ed74b4532f83p-1', '0x1.22969f7b5c8bdp-5'),
    ('0x1.70945a96f12c4p-1', '0x1.14ee9010d92e3p-5'),
    ('0x1.81719c62ec68ep-1', '0x1.069e593b92368p-5'),
    ('0x1.9164d335425e2p-1', '0x1.ef5d57d53b4b8p-6'),
    ('0x1.a0644fb6d8db8p-1', '0x1.d05133c3af946p-6'),
    ('0x1.ae66f68eedbc6p-1', '0x1.b02b2071c0c76p-6'),
    ('0x1.bb6445eadae2cp-1', '0x1.8efea34684612p-6'),
    ('0x1.c7545aa8c0dadp-1', '0x1.6cdfe10bba36ep-6'),
    ('0x1.d22ff5221288ap-1', '0x1.49e391bd2143cp-6'),
    ('0x1.dbf07d935a5afp-1', '0x1.261ef40a7a2d6p-6'),
    ('0x1.e490081f2891bp-1', '0x1.01a7c0a5c98d9p-6'),
    ('0x1.ec09586b58faap-1', '0x1.b9283b35df8d9p-7'),
    ('0x1.f257e4db5aabcp-1', '0x1.6df524de84deap-7'),
    ('0x1.f777d976cfadap-1', '0x1.21e400109d33cp-7'),
    ('0x1.fb661ac8c85a9p-1', '0x1.aa46b24145aa3p-8'),
    ('0x1.fe204ab274eccp-1', '0x1.0fc7ac3ac3b55p-8'),
    ('0x1.ffa4e911f7533p-1', '0x1.d379f1845dadfp-10'),
)


def _legendre64_rule():
    """The 64-point rule's nodes and weights on [-1, 1], read-only, with
    the negative half mirrored from _GL64_HALF."""
    half = np.array([[float.fromhex(h) for h in pair] for pair in _GL64_HALF])
    t = np.concatenate((-half[::-1, 0], half[:, 0]))
    w = np.concatenate((half[::-1, 1], half[:, 1]))
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


_GL64_NODES, _GL64_WEIGHTS = _legendre64_rule()


def _rule(lo, hi):
    """The 64-point rule on each interval (lo[i], hi[i]), nodes and
    weights concatenated in interval order.  Each node is computed from
    its own interval alone, so an interval's nodes have the same bits in
    any batch."""
    t, w = _GL64_NODES, _GL64_WEIGHTS
    lo = np.asarray(lo, dtype=float)[:, None]
    hi = np.asarray(hi, dtype=float)[:, None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return (mid + half * t).ravel(), (half * w).ravel()


def _middle(alpha: Alpha, edges: tuple[float, ...]):
    """Nodes, weights and density values of the 64-point rule on each
    piece of ``edges``, from one grid call."""
    nodes, weights = _rule(edges[:-1], edges[1:])
    return nodes, weights, density_series_grid(alpha, nodes).value


def _read_only(*arrays) -> tuple:
    """Copies of ``arrays`` that own their data and refuse writes."""
    copies = tuple(np.array(arr) for arr in arrays)
    for arr in copies:
        arr.flags.writeable = False
    return copies


class _LambdaFree(NamedTuple):
    """Everything laplace_check computes that depends on alpha
    alone, with read-only arrays:

    * the bounds x_s <= x_m, the 64-point rule on (x_s, x_m) (empty when
      x_s = x_m), and F = 1 - S at its nodes, at x_s and at x_m;
    * the lambda = 0 ladder's middle piece: the ends of its pieces
      (from _decade_edges, x_m excluded), S at each end, and the 64
      nodes, weights and density values of every piece (at most 29
      pieces, for alpha <= 0.08);
    * the lambda = 0 value.
    """

    x_s: float
    x_m: float
    left_nodes: np.ndarray
    left_weights: np.ndarray
    left_f: np.ndarray
    f_s: float
    f_m: float
    ends: tuple[float, ...]
    s_ends: tuple[float, ...]
    nodes: np.ndarray
    weights: np.ndarray
    f: np.ndarray
    at_zero: float


@lru_cache(maxsize=128)
def _lambda_free(alpha: Alpha) -> _LambdaFree:
    """laplace_check's record for alpha: the lambda = 0 ladder on the
    float loop, then one survival grid call over the left rule's nodes,
    both bounds and the ladder's piece ends, and one density grid call
    over the ladder's pieces (the grid's bits are the float loop's)."""
    x_m = reliable_x_min(alpha)
    x_s = min(reliable_x_min(alpha, survival=True), x_m)
    if x_s < x_m:
        left_nodes, left_weights = _rule([x_s], [x_m])
    else:
        left_nodes = left_weights = np.empty(0)

    # lambda = 0: raise the cutoff tenfold until S(x_hi) <= 1e-3
    x_hi = max(10.0, 4.0 * x_m)
    s_hi = survival_series(alpha, x_hi).value
    while s_hi > 1e-3 and x_hi < 1e15:
        x_hi *= 10.0
        s_hi = survival_series(alpha, x_hi).value
    edges = _decade_edges(x_m, x_hi)
    n = left_nodes.size
    s = survival_series_grid(
        alpha, np.concatenate((left_nodes, (x_s, x_m), edges[1:]))).value
    f_m = 1.0 - float(s[n + 1])
    nodes, weights, f = _middle(alpha, edges)
    at_zero = abs(f_m + float(np.dot(weights, f)) + s_hi - 1.0)
    return _LambdaFree(x_s, x_m,
                       *_read_only(left_nodes, left_weights, 1.0 - s[:n]),
                       1.0 - float(s[n]), f_m,
                       edges[1:], tuple(s[n + 2:].tolist()),
                       *_read_only(nodes, weights, f), at_zero)


def _takes_lambda(lam: float) -> bool:
    """Whether laplace_check takes a finite lam: 0, or above about
    5.6e-307, where twice the cutoff 50/lam is a double."""
    return lam == 0.0 or (lam > 0.0 and 100.0 / lam < math.inf)


def laplace_check(alpha, lam: float) -> float:
    """|int_0^inf e^{-lam t} f_a(t) dt - exp(-lam**a)|.

    Assembled from 64-point Gauss-Legendre rules over the series'
    reliable domain, one rule per decade (see _decade_edges), plus integrated-tail
    corrections on both sides: below the reliable region the survival
    sum (which only needs absolute accuracy there) pins the missing mass
    via integration by parts, and beyond the upper cutoff the integrated
    tail series closes the transform.  Fixed rules suit the integrands:
    they are smooth but carry series noise at the 1e-7 absolute level
    near x_s, which trips adaptive subdivision without improving the
    answer, and a decade of x^{-1-a} is resolved to rounding by 64 nodes.

    Once per alpha, and cached in one record (_lambda_free): the
    bounds x_s and x_m, the left rule's nodes and F = 1 - S there and at
    both bounds, the pieces of the lambda = 0 ladder's middle piece with
    the density at their nodes and S at their ends, and the lambda = 0
    value.  A call with lam > 0 whose cutoff max(50/lam, 4 x_m, 10) the
    ladder reaches takes the ladder's whole pieces up to the first that
    ends at or past the cutoff, and the tail e^{-lam end} S(end) at that
    end: it makes no series call.  The stretch past the cutoff weighs at
    most e^{-50}, and 64 nodes resolve a decade [A, 10 A] of
    e^{-lam t} t^{-1-a} with lam A <= 50 to rounding.  A cutoff past the
    ladder (lam below 50 over the ladder's end: about 0.05 at
    alpha = 0.9, 5e-5 at 0.5) evaluates its whole middle piece, clipped
    at the cutoff, in one grid call (a piece's nodes and density values
    have the same bits as the ladder's), and the tail from the float
    loop.  Either way it
    then computes the weights e^{-lam t} and the trapezoid below x_s.
    Raises :class:`DomainError` for lam below about 5.6e-307, where
    twice the cutoff overflows a double.
    """
    alpha = as_alpha(alpha)
    if not 0.0 <= lam < math.inf:
        raise DomainError("laplace_check requires a finite lambda >= 0")
    if not _takes_lambda(lam):
        # the rule on the last piece adds its ends, the larger being the
        # cutoff 50/lam
        raise DomainError(f"lambda = {lam!r} is too small for laplace_check: "
                          "twice its cutoff 50/lambda overflows a double")
    rec = _lambda_free(alpha)
    if lam == 0.0:
        return rec.at_zero
    x_hi = max(50.0 / lam, 4.0 * rec.x_m, 10.0)
    j = bisect.bisect_left(rec.ends, x_hi)
    if j < len(rec.ends):
        # the ladder's pieces 0..j, the last one ending at or past x_hi
        n = 64 * (j + 1)
        ts, ws, fs = rec.nodes[:n], rec.weights[:n], rec.f[:n]
        x_hi, s_hi = rec.ends[j], rec.s_ends[j]
    else:
        ts, ws, fs = _middle(alpha, _decade_edges(rec.x_m, x_hi))
        s_hi = survival_series(alpha, x_hi).value
    # a huge lam takes -lam t past -inf, where e^{-lam t} is 0
    with np.errstate(over="ignore"):
        mid = float(np.dot(ws, np.exp(-lam * ts) * fs))
        # int_0^{x_m} e^{-lam t} f dt by parts: e^{-lam x_m} F(x_m)
        #   + lam * int_0^{x_m} e^{-lam t} F(t) dt  with F = 1 - S
        inner = float(np.dot(rec.left_weights,
                             np.exp(-lam * rec.left_nodes) * rec.left_f))
    # below x_s: F rises from 0 to F(x_s); trapezoid estimate, the
    # dropped curvature is bounded by lam * x_s * F(x_s)
    inner += 0.5 * rec.x_s * math.exp(-lam * rec.x_s) * rec.f_s
    left = math.exp(-lam * rec.x_m) * rec.f_m + lam * inner
    tail = math.exp(-lam * x_hi) * s_hi
    return abs(left + mid + tail - math.exp(-lam ** alpha.value))
