"""Constructive representations of positive stable laws.

* exact sampling from the uniform-exponential decomposition of log Z;
* the product of p unit Gamma variables representing Z_{1/p}^{-1};
* the Beta x Gamma product representing Z_{p/n}^{-p} for n > 2p;
* Mellin transforms (fractional moments) of all of the above, which is
  how the product identities are verified;
* the kernels behind the Beta x Gamma log-concavity inequality and the
  Whittaker-side inequality for the 2/3 case, each one call of the
  Tricomi quadrature kernel of :mod:`stable_msu.specfun`.

Factors are drawn in log space, matching the unit-scale density
convention Gamma(c): y^{c-1} e^{-y} / Gamma(c).  Beta(a, b) with a, b <= 1
comes from Johnk's rejection method over vectorised rounds of uniforms,
and Gamma(c) with c < 1 as Exp(1) x Beta(c, 1 - c); every factor that
williams_product and lemma2_product build is of these kinds.  A factor
with a parameter above 1, or below _JOHNK_MIN, is drawn by numpy's
Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import specfun
from .density import as_alpha
from .errors import DomainError, HypothesisError, PreconditionError
from .util import EvalResult

_BETA = "beta"
_GAMMA = "gamma"

# elements per block of the samplers and the KS reductions: their
# temporaries stay this size at any sample size
_BLOCK = 1 << 14

# half a block: the candidates per round of the Johnk sampler, which
# holds three buffers of this many values, and the most points the KS
# core evaluates in one batch
_HALF = _BLOCK // 2

# smallest parameter the Johnk sampler takes.  Generator.random's least
# positive value is 2**-53, so from here up log(U) / a stays finite and
# only U = 0 or V = 0 gives an infinite d; below it log(U) / a overflows
# for most U and the kernel would reject nearly every candidate
_JOHNK_MIN = 1e-300


# ---------------------------------------------------------------------------
# factors and factor lists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """One independent factor: Beta(a, b) or unit-scale Gamma(c)."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in (_BETA, _GAMMA):
            raise PreconditionError(f"unknown factor kind {self.kind!r}")
        n = 2 if self.kind == _BETA else 1
        if len(self.params) != n or not all(0.0 < p < math.inf
                                            for p in self.params):
            raise PreconditionError(f"bad parameters {self.params} for {self.kind}")

    @classmethod
    def beta(cls, a: float, b: float) -> "Factor":
        return cls(_BETA, (float(a), float(b)))

    @classmethod
    def gamma(cls, c: float) -> "Factor":
        return cls(_GAMMA, (float(c),))

    def mellin_lower_bound(self) -> float:
        # E[X^s] finite for s > -a (beta) resp. s > -c (gamma)
        return -self.params[0]

    def log_mellin(self, s: float) -> float:
        if self.kind == _BETA:
            a, b = self.params
            return (math.lgamma(s + a) + math.lgamma(a + b)
                    - math.lgamma(s + a + b) - math.lgamma(a))
        c, = self.params
        return math.lgamma(s + c) - math.lgamma(c)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Draws of the factor, a scalar for size=None: those of the
        product of this factor alone."""
        return FactorList(1.0, (self,)).sample(rng, size)

    def _add_logs(self, rng: np.random.Generator, flat: np.ndarray) -> None:
        """Add the logs of ``flat.size`` draws to the flat float64 array
        ``flat``, in order."""
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == _GAMMA:
                c, = self.params
                if _JOHNK_MIN <= c < 1.0:
                    _add_log_johnk(rng, c, 1.0 - c, flat, exponential=True)
                else:
                    _add_log_draws(lambda r: rng.gamma(c, 1.0, r), flat)
            elif _JOHNK_MIN <= min(self.params) and max(self.params) <= 1.0:
                _add_log_johnk(rng, *self.params, flat)
            else:
                # above 1 Johnk's acceptance rate G(1+a)G(1+b)/G(1+a+b)
                # collapses; below _JOHNK_MIN log(U) / a overflows
                _add_log_draws(lambda r: rng.beta(*self.params, r), flat)


@dataclass(frozen=True)
class FactorList:
    """A positive scale times an ordered independent product of factors."""

    scale: float
    factors: tuple[Factor, ...]
    represents: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:
            raise PreconditionError("scale must be positive and finite")
        if not self.factors:
            raise PreconditionError("factor list must be non-empty")

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Draws of the product, a scalar for size=None.  The result
        starts at log(scale); each factor's log draws are added into it
        (see ``Factor._add_logs``), one factor after another, and one
        ``exp`` closes the draw.  Beside the result the working set is
        three buffers of ``_HALF`` values."""
        out = np.full(size if size is not None else (), math.log(self.scale))
        flat = out.reshape(-1)
        for factor in self.factors:
            factor._add_logs(rng, flat)
        np.exp(out, out=out)
        return out if size is not None else out[()]


def _add_log_draws(draw: Callable[[int], np.ndarray], flat: np.ndarray) -> None:
    """Add the logs of ``draw(r)``, a new array of r draws, to the flat
    float64 array ``flat``, ``_HALF`` values at a time."""
    for lo in range(0, flat.size, _HALF):
        block = flat[lo:lo + _HALF]
        draws = draw(block.size)
        block += np.log(draws, out=draws)
        del draws  # freed before the next round's draws are made


def _add_log_johnk(rng: np.random.Generator, a: float, b: float,
                   flat: np.ndarray, exponential: bool = False) -> None:
    """Add the logs of Beta(a, b) draws, a, b <= 1, to the flat float64
    array ``flat``, by Johnk's method (Metrika 8, 1964), for
    a, b >= _JOHNK_MIN; with
    ``exponential`` each draw is times a standard exponential, which
    makes Exp(1) x Beta(c, 1 - c) a Gamma(c) draw.

    For uniforms U, V on [0, 1) let lx = log(U)/a, ly = log(V)/b and
    d = lx - ly.  Johnk keeps a candidate when X + Y <= 1, X = e^lx and
    Y = e^ly, and draws X/(X + Y).  In logs it is kept when
    max(lx, ly) + log1p(e^-|d|) <= 0, and its log draw is
    min(d, 0) - log1p(e^-|d|): near 1 that is -e^-d to full precision,
    where lx - log(X + Y) would round to 0.  For a, b >= _JOHNK_MIN only
    a candidate with U = 0 or V = 0 has no finite |d|, and it is
    rejected.

    Each round draws min(_HALF, draws missing) uniforms U, then as many
    V, and then, with ``exponential``, one exponential per kept
    candidate; the kept candidates fill ``flat`` in order.  The caller
    ignores numpy's divide and invalid warnings (log 0, -inf - -inf).
    """
    size = flat.size
    cap = min(size, _HALF)
    uv = np.empty(2 * cap)
    d = np.empty(cap)
    keep = np.empty(cap, dtype=bool)
    finite = np.empty_like(keep)
    done = 0
    while done < size:
        r = min(size - done, _HALF)
        both = uv[:2 * r]
        rng.random(out=both)  # the round's U's, then its V's
        np.log(both, out=both)
        x, y = both[:r], both[r:]
        x /= a
        y /= b
        t = np.subtract(x, y, out=d[:r])
        np.maximum(x, y, out=x)
        np.copysign(t, -1.0, out=y)  # -|d|
        f = np.greater(y, -math.inf, out=finite[:r])
        np.exp(y, out=y)
        np.log1p(y, out=y)  # log1p(e^-|d|)
        x += y
        k = np.less_equal(x, 0.0, out=keep[:r])
        k &= f
        np.minimum(t, 0.0, out=t)
        t -= y
        draws = t[k]
        kept = draws.size
        if exponential:
            e = rng.standard_exponential(out=uv[:kept])
            draws += np.log(e, out=e)
        flat[done:done + kept] += draws
        del draws  # freed before the next round's draws are made
        done += kept


@dataclass(frozen=True)
class MellinProfile:
    """s -> fractional moment, with its open interval of validity; a
    moment that overflows a double raises DomainError."""

    evaluator: Callable[[float], float]
    valid_s: tuple[float, float]

    def __call__(self, s: float) -> float:
        lo, hi = self.valid_s
        if not (lo < s < hi):
            raise DomainError(f"s = {s} outside the validity interval ({lo}, {hi})")
        try:
            return self.evaluator(s)
        except OverflowError:
            raise DomainError(f"the moment at s = {s} overflows a double") \
                from None


# ---------------------------------------------------------------------------
# exact sampler
# ---------------------------------------------------------------------------

def _log_kanter_b(a: float, u: np.ndarray, out: np.ndarray) -> None:
    """Write log b(u) into ``out``, for float a in (0, 1) and u in (0, pi);
    ``u`` and ``out`` are flat float64 arrays of one length, and ``out``
    may be ``u`` itself.

    Each sine comes from t = tan(x/2) as sin x = 2t/(1 + t^2): numpy's
    float64 tan is vectorised where its sin is scalar libm.  The
    exponents a, 1-a and -1 of the three sines sum to 0, so the factor 2
    cancels and only log(t/(1 + t^2)) is formed.  The work runs block by
    block through two block-sized temporaries (three in place); each
    element sees the same operations as in one whole-array pass.
    """
    tmp = np.empty(min(u.size, _BLOCK))
    sq = np.empty_like(tmp)
    # in place, each block of u is copied out before out overwrites it
    u_copy = np.empty_like(tmp) if np.may_share_memory(u, out) else None

    def log_half_sin(ub, scale, dst):
        # log(sin(scale*u)/2) into dst; scale*u/2 lies in (0, pi/2)
        s = sq[:ub.size]
        np.multiply(ub, 0.5 * scale, out=dst)
        np.tan(dst, out=dst)
        np.multiply(dst, dst, out=s)
        np.add(s, 1.0, out=s)
        dst /= s
        return np.log(dst, out=dst)

    for lo in range(0, u.size, _BLOCK):
        ub = u[lo:lo + _BLOCK]
        if u_copy is not None:
            ub = u_copy[:ub.size]
            ub[...] = u[lo:lo + _BLOCK]
        ob = out[lo:lo + _BLOCK]
        t = tmp[:ub.size]
        log_half_sin(ub, a, ob)
        ob *= a
        log_half_sin(ub, 1.0 - a, t)
        t *= 1.0 - a
        ob += t
        ob -= log_half_sin(ub, 1.0, t)


def kanter_b(alpha, u):
    """The factor b(u) = (sin(a u)/sin u)^a (sin((1-a)u)/sin u)^{1-a}
    on (0, pi); tends to a^a (1-a)^{1-a} at 0+ and diverges at pi-.

    b(u) = b(0+) (1 + a (1-a) u^2/2 + O(u^4)), so below u = 1e-8 it is
    its limit in doubles, and the limit is returned there: the sines of
    a u or (1-a) u underflow for tiny u.  Accepts a scalar or an ndarray
    for u.
    """
    a = as_alpha(alpha).value
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr > 0.0) & (u_arr < math.pi)):  # NaN fails too
        raise DomainError("kanter_b requires u strictly inside (0, pi)")
    val = np.full(u_arr.shape, math.exp(a * math.log(a)
                                        + (1.0 - a) * math.log1p(-a)))
    far = u_arr >= 1e-8
    logs = np.empty(np.count_nonzero(far))
    _log_kanter_b(a, u_arr[far], logs)
    val[far] = np.exp(logs)
    return float(val) if np.isscalar(u) or u_arr.ndim == 0 else val


def _log_stable(a: float, source: np.random.Generator, n) -> np.ndarray:
    """The logs of sample_stable's draws, for n an int or a shape, as a
    new array; finite where exponentiating would overflow.

    Every uniform is drawn into that array first and log b(U) replaces
    them in place; then the exponentials are drawn block by block, so
    the rest of the working set is block-sized.
    """
    # pi U: numpy's uniform(0, pi) forms 0 + pi U, the same bits, slower
    z = source.random(n)
    z *= math.pi
    # endpoint draws are measure zero but would hit the log singularities
    if z.size and (z.min() <= 0.0 or z.max() >= math.pi):
        bad = (z <= 0.0) | (z >= math.pi)
        while np.any(bad):
            z[bad] = source.uniform(0.0, math.pi, int(bad.sum()))
            bad = (z <= 0.0) | (z >= math.pi)
    flat = z.reshape(-1)
    _log_kanter_b(a, flat, flat)
    ell = np.empty(min(flat.size, _BLOCK))
    for lo in range(0, flat.size, _BLOCK):
        zb = flat[lo:lo + _BLOCK]
        log_ell = ell[:zb.size]
        source.standard_exponential(out=log_ell)
        np.log(log_ell, out=log_ell)
        log_ell *= a - 1.0
        zb += log_ell
        zb /= a
    return z


def sample_stable(alpha, source: np.random.Generator, size=None):
    """Exact draws of Z_alpha from
    log Z = (1/a) [log b(U) + (a-1) log L],
    U uniform on (0, pi), L standard exponential.

    Returns a scalar for size=None, else an ndarray of that shape.
    """
    a = as_alpha(alpha).value
    scalar = size is None
    z = _log_stable(a, source, 1 if scalar else size)
    np.exp(z, out=z)
    return float(z[0]) if scalar else z


# ---------------------------------------------------------------------------
# product representations
# ---------------------------------------------------------------------------

def williams_product(p: int) -> FactorList:
    """Z_{1/p}^{-1} as p^p times the product of Gamma(k/p), k = 1..p-1."""
    if p < 2:
        raise DomainError("williams_product requires p >= 2")
    factors = tuple(Factor.gamma(k / p) for k in range(1, p))
    return FactorList(float(p) ** p, factors, represents=f"Z_{{1/{p}}}^{{-1}}")


def lemma2_product(p: int, n: int) -> FactorList:
    """Z_{p/n}^{-p} as (n^n / p^p) times Beta/Gamma factors, for n > 2p.

    Factor pattern: Beta(2k/n, k/p - 2k/n) Gamma((2k-1)/n) for
    k = 1..p-1, then Gamma(m/n) for m = 2p-1 .. n-1.  All parameters are
    formed in exact rational arithmetic; each Beta second parameter is
    positive precisely because n > 2p.  The pattern is validated by the
    Mellin identity (see mellin_product), which is the authority.
    """
    if p < 2:
        raise PreconditionError("lemma2_product requires p >= 2")
    if n <= 2 * p:
        raise PreconditionError(f"lemma2_product requires n > 2p, got ({p}, {n})")
    factors: list[Factor] = []
    for k in range(1, p):
        a = Fraction(2 * k, n)
        b = Fraction(k, p) - Fraction(2 * k, n)
        factors.append(Factor.beta(float(a), float(b)))
        factors.append(Factor.gamma(float(Fraction(2 * k - 1, n))))
    for m in range(2 * p - 1, n):
        factors.append(Factor.gamma(float(Fraction(m, n))))
    scale = float(Fraction(n ** n, p ** p))
    return FactorList(scale, tuple(factors), represents=f"Z_{{{p}/{n}}}^{{-{p}}}")


def mellin_stable(alpha) -> MellinProfile:
    """Fractional moments E[Z^s] = Gamma(1 - s/a) / Gamma(1 - s), s < a."""
    alpha_obj = as_alpha(alpha)
    a = alpha_obj.value

    def moment(s: float) -> float:
        return math.exp(math.lgamma(1.0 - s / a) - math.lgamma(1.0 - s))

    return MellinProfile(moment, (-math.inf, a))


def mellin_product(fl: FactorList) -> MellinProfile:
    """Mellin transform of a FactorList: scale^s times the product of
    factor moments; valid for s above every factor's lower bound."""
    lo = max(f.mellin_lower_bound() for f in fl.factors)
    log_scale = math.log(fl.scale)

    def moment(s: float) -> float:
        acc = s * log_scale
        for f in fl.factors:
            acc += f.log_mellin(s)
        return math.exp(acc)

    return MellinProfile(moment, (lo, math.inf))


# ---------------------------------------------------------------------------
# Beta x Gamma log-concavity kernels
# ---------------------------------------------------------------------------

def _lemma1_rows(alpha: float, beta: float, c: float, shifts: tuple,
                 x: float):
    """g_{a,b,c+shift}(x) of :func:`lemma1_g` for each shift in shifts,
    one quadrature row each, as :func:`specfun._tricomi` gives them."""
    if not beta > 0.0:
        raise DomainError("lemma1_g requires beta > 0")
    if math.isnan(alpha) or math.isnan(c):
        raise DomainError("lemma1_g requires numbers alpha and c, got nan")
    if any(shift not in (-1, 0, 1) for shift in shifts):
        raise DomainError("shift must be one of -1, 0, +1")
    if not x >= 0.0:
        raise DomainError("lemma1_g requires x >= 0")
    if x == 0.0 and alpha <= c + max(shifts):
        raise DomainError("integral diverges at x = 0 unless alpha > c + shift")
    expos = tuple((c + shift) - (alpha + beta) for shift in shifts)
    return specfun._tricomi("lemma1_g", (alpha, beta, c, shifts, x), x,
                            beta - 1.0, expos, -x, 1e-11)


def lemma1_g(alpha: float, beta: float, c: float, shift: int,
             x: float) -> EvalResult:
    """g_{a,b,c+shift}(x) = e^{-x} int_0^inf e^{-x u} u^{b-1} (u+1)^{(c+shift)-(a+b)} du.

    At x = 0 the integral converges only when a > c + shift; for x > 0
    the exponential ensures convergence.  Raises :class:`DomainError`
    where the integrand or g overflows a double.
    """
    return EvalResult(*_lemma1_rows(alpha, beta, c, (shift,), x)[0])


def lemma1_inequality(alpha: float, beta: float, c: float, x: float) -> float:
    """LHS - RHS of

    (x g_c(x) + (a+b-c) g_{c-1}(x)) (g_{c+1}(x) - g_c(x))
        >= (b - 1) (g_{c-1}(x))^2

    under the hypotheses b <= 1 and a + b >= c; nonnegative there, which
    is what makes Beta(a,b) x Gamma(c) multiplicative strongly unimodal.
    Raises :class:`DomainError` for an x that is not finite, where the
    g's are 0 and the margin has no value.
    """
    if not math.isfinite(x):
        raise DomainError("lemma1_inequality requires a finite x")
    if beta > 1.0:
        raise HypothesisError("requires beta <= 1")
    if alpha + beta < c:
        raise HypothesisError("requires alpha + beta >= c")
    g0, gm, gp = [g[0] for g in _lemma1_rows(alpha, beta, c, (0, -1, 1), x)]
    lhs = (x * g0 + (alpha + beta - c) * gm) * (gp - g0)
    rhs = (beta - 1.0) * gm * gm
    return lhs - rhs


def whitt_margin(x: float) -> float:
    """LHS - RHS of the inequality
    (x U4 - U1/6)(U7 - U4) >= -5 U4^2 / 6
    with U_l(x) = Psi(1/6, l/3, x); its failure for small x certifies
    the 2/3 case is not MSU, while for x >= 1/6 the ordering
    U7 >= U4 >= U1 makes it hold."""
    if not 0.0 < x < math.inf:  # NaN fails too
        raise DomainError("whitt_margin requires finite x > 0")
    a, cs = 1.0 / 6.0, (1.0 / 3.0, 4.0 / 3.0, 7.0 / 3.0)
    u1, u4, u7 = [u[0] for u in specfun._tricomi(
        "psi_chf", (a, cs, x), x, a - 1.0, tuple(c - a - 1.0 for c in cs),
        -math.lgamma(a), specfun.DEFAULT_REL_TOL)]
    return (x * u4 - u1 / 6.0) * (u7 - u4) + 5.0 * u4 * u4 / 6.0
