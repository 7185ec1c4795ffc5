import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special

from stable_msu import factorizations, specfun
from stable_msu import quadrature as quad
from stable_msu.errors import DomainError
from stable_msu.quadrature import de_halfline, tanh_sinh

import de_reference

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code: str) -> list[str]:
    """The words code prints in a fresh interpreter that imports
    stable_msu from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env)
    return out.stdout.split()


def test_finite_smooth():
    res = tanh_sinh(np.sin, 0.0, math.pi)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_finite_endpoint_singularity():
    res = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-10)


def test_halfline_exponential():
    res = de_halfline(lambda x: np.exp(-x))
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_halfline_gamma_half():
    res = de_halfline(lambda x: np.exp(-x) / np.sqrt(x))
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-11)


def test_halfline_slow_decay():
    # integral of 1/(1+x)^2 over (0, inf) = 1
    res = de_halfline(lambda x: 1.0 / (1.0 + x) ** 2)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_error_estimate_is_honest():
    res = tanh_sinh(lambda x: np.exp(x) * np.cos(x), 0.0, 2.0)
    exact = 0.5 * (math.exp(2.0) * (math.sin(2.0) + math.cos(2.0)) - 1.0)
    assert abs(res.value - exact) <= max(10.0 * res.error, 1e-12)


def test_bad_interval_raises():
    with pytest.raises(ValueError):
        tanh_sinh(np.sin, 1.0, 1.0)


@pytest.mark.parametrize("max_level", [-1, quad._LEVEL_CAP + 1])
def test_max_level_out_of_range_raises(max_level):
    # rejected before any node table is built
    with pytest.raises(ValueError):
        de_halfline(np.exp, max_level=max_level)


def test_max_level_zero_has_no_error_estimate():
    res = de_halfline(lambda x: np.exp(-x), max_level=0)
    assert res.levels == 0 and res.error == math.inf


class TestNodeTables:
    @pytest.mark.parametrize("level", range(0, 11))
    def test_levels_nest_into_the_full_grid(self, level):
        h = 0.5 ** level
        k_max = math.floor(quad._T_MAX / h)
        union = np.sort(np.concatenate(
            [quad._nodes(j).t for j in range(level + 1)]))
        assert np.array_equal(union, np.arange(-k_max, k_max + 1) * h)

    def test_tables_are_read_only_and_cached(self):
        nodes = quad._nodes(3)
        assert quad._nodes(3) is nodes
        with pytest.raises(ValueError):
            nodes.half_x[0] = 1.0

    def test_tables_stay_lazy_on_import(self):
        code = ("import stable_msu\n"
                "from stable_msu import density, quadrature\n"
                "print(quadrature._nodes.cache_info().currsize,\n"
                "      quadrature._head.cache_info().currsize,\n"
                "      len(quadrature._HALF_TABLES),\n"
                "      density._lambda_free.cache_info().currsize)\n")
        assert _run_fresh(code) == ["0", "0", "0", "0"]

    def test_range_check_builds_no_table(self):
        code = ("from stable_msu import quadrature as q\n"
                "import numpy as np\n"
                "for level in (-1, q._LEVEL_CAP + 1):\n"
                "    try:\n"
                "        q.de_halfline(np.exp, max_level=level)\n"
                "    except ValueError:\n"
                "        pass\n"
                "print(q._nodes.cache_info().currsize,\n"
                "      q._head.cache_info().currsize)\n")
        assert _run_fresh(code) == ["0", "0"]

    @pytest.mark.parametrize("top", range(0, quad._HEAD + 1))
    def test_head_concatenates_levels_in_order(self, top):
        head = quad._head(top)
        assert quad._head(top) is head
        levels = [quad._nodes(j) for j in range(top + 1)]
        for field, joined in zip(quad._Nodes._fields, head.nodes):
            assert not joined.flags.writeable, field
            assert np.array_equal(
                joined, np.concatenate([getattr(n, field) for n in levels]))
        assert np.diff((0,) + head.half_ends).tolist() == [
            n.t.size for n in levels]
        assert np.diff((0,) + head.fin_ends).tolist() == [
            n.fin_d.size for n in levels]

    @pytest.mark.parametrize("max_level", [0, 3, quad._HEAD, 7])
    def test_first_call_covers_the_head(self, max_level):
        sizes = []
        # an oscillating integrand does not converge by level 7, so every
        # level is evaluated
        res = de_halfline(lambda x: sizes.append(x.size) or np.cos(1e3 * x),
                          max_level=max_level)
        assert res.levels == max_level
        top = min(quad._HEAD, max_level)
        assert sizes == [quad._head(top).nodes.t.size] + [
            quad._nodes(j).t.size for j in range(top + 1, max_level + 1)]


class TestNodeTransforms:
    """The exp-sinh fields that integrands read in place of computing
    log x and log1p x at the nodes."""

    FRESH = {"half_log": np.log, "half_log1p": np.log1p}

    def _check(self, nodes):
        for field, fn in self.FRESH.items():
            stored = getattr(nodes, field)
            assert not stored.flags.writeable, field
            np.testing.assert_array_equal(
                stored.view(np.int64), fn(nodes.half_x).view(np.int64))

    @pytest.mark.parametrize("level", range(0, 11))
    def test_level_fields_equal_fresh_transforms(self, level):
        self._check(quad._nodes(level))

    @pytest.mark.parametrize("top", range(0, quad._HEAD + 1))
    def test_head_fields_equal_fresh_transforms(self, top):
        self._check(quad._head(top).nodes)

    def test_each_table_is_registered_under_its_levels(self):
        de_halfline(lambda x: np.cos(1e3 * x), max_level=8)
        for level in range(9):
            nodes = quad._nodes(level)
            assert quad._half_table(nodes.half_x) is nodes
        head = quad._head(quad._HEAD).nodes
        assert quad._half_table(head.half_x) is head
        # one entry per table built, so the registry is as bounded as
        # the tables
        assert len(quad._HALF_TABLES) == (quad._nodes.cache_info().currsize
                                          + quad._head.cache_info().currsize)

    def test_integrands_are_handed_registered_tables(self):
        seen = []
        de_halfline(lambda x: seen.append(quad._half_table(x))
                    or np.cos(1e3 * x), max_level=7)
        expected = [quad._head(quad._HEAD).nodes, quad._nodes(6),
                    quad._nodes(7)]
        assert len(seen) == 3
        assert all(a is b for a, b in zip(seen, expected))


def _reference(z, am1, expos, log_scale):
    """The one kernel integrand of specfun._tricomi, computing log s and
    log1p s afresh: the kernels must match it bit for bit."""
    expo = np.array([[e] for e in expos])

    def integrand(s):
        e = expo * np.log1p(s)
        e += am1 * np.log(s) - z * s + log_scale
        return np.exp(e)
    return integrand


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=np.float64)).view(np.int64)


class TestKernelsMatchReference:
    XS = np.geomspace(1e-3, 300.0, 25).tolist()
    TRIPLES = [(0.4, 0.6, 0.9), (0.3, 0.5, 0.7), (0.5, 1.0, 1.2),
               (0.7, 0.8, 1.5), (0.2, 0.9, 1.0)]

    def _run(self, monkeypatch, call):
        """call()'s result and the one QuadResult of its de_halfline."""
        seen = []

        def recording(f, **kw):
            seen.append(de_halfline(f, **kw))
            return seen[-1]

        monkeypatch.setattr(specfun, "de_halfline", recording)
        out = call()
        assert len(seen) == 1
        return out, seen[0]

    def _assert_same(self, res, ref):
        np.testing.assert_array_equal(_bits(res.value), _bits(ref.value))
        np.testing.assert_array_equal(_bits(res.error), _bits(ref.error))
        assert res.levels == ref.levels

    def _assert_value(self, out, ref):
        """out's value and error bar are ref's only row."""
        assert _bits([out.value, out.abs_error_estimate]).tolist() == (
            _bits([ref.value[0], ref.error[0]]).tolist())

    @pytest.mark.parametrize("nu", [0.0, 1.0 / 3.0, 2.5])
    def test_bessel_k(self, monkeypatch, nu):
        for x in self.XS:
            out, res = self._run(monkeypatch,
                                 lambda: specfun.bessel_k(nu, x))
            log_scale = (nu * math.log(2.0 * x) - x
                         + 0.5 * math.log(math.pi) - math.lgamma(nu + 0.5))
            ref = de_halfline(_reference(2.0 * x, nu - 0.5, (nu - 0.5,),
                                         log_scale), rel_tol=1e-10)
            self._assert_same(res, ref)
            self._assert_value(out, ref)

    @pytest.mark.parametrize("a,c", [(1.0 / 6.0, 1.0 / 3.0),
                                     (1.0 / 6.0, 4.0 / 3.0),
                                     (1.0 / 6.0, 7.0 / 3.0), (2.0, 0.5)])
    def test_psi_chf(self, monkeypatch, a, c):
        for x in self.XS:
            out, res = self._run(monkeypatch,
                                 lambda: specfun.psi_chf(a, c, x))
            ref = de_halfline(_reference(x, a - 1.0, (c - a - 1.0,),
                                         -math.lgamma(a)), rel_tol=1e-10)
            self._assert_same(res, ref)
            self._assert_value(out, ref)

    def test_whitt_margin(self, monkeypatch):
        a = 1.0 / 6.0
        expos = tuple(c - a - 1.0 for c in (1.0 / 3.0, 4.0 / 3.0, 7.0 / 3.0))
        for x in self.XS:
            out, res = self._run(monkeypatch,
                                 lambda: factorizations.whitt_margin(x))
            ref = de_halfline(_reference(x, a - 1.0, expos, -math.lgamma(a)),
                              rel_tol=1e-10)
            self._assert_same(res, ref)
            u1, u4, u7 = ref.value.tolist()
            margin = (x * u4 - u1 / 6.0) * (u7 - u4) + 5.0 * u4 * u4 / 6.0
            assert _bits(out) == _bits(margin)

    @staticmethod
    def _lemma1_reference(alpha, beta, c, shifts, x):
        expos = tuple((c + shift) - (alpha + beta) for shift in shifts)
        return de_halfline(_reference(x, beta - 1.0, expos, -x),
                           rel_tol=1e-11)

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_lemma1_g(self, monkeypatch, triple):
        for shift in (-1, 0, 1):
            for x in self.XS:
                out, res = self._run(
                    monkeypatch,
                    lambda: factorizations.lemma1_g(*triple, shift, x))
                ref = self._lemma1_reference(*triple, (shift,), x)
                self._assert_same(res, ref)
                self._assert_value(out, ref)

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_lemma1_inequality(self, monkeypatch, triple):
        alpha, beta, c = triple
        for x in self.XS:
            out, res = self._run(
                monkeypatch,
                lambda: factorizations.lemma1_inequality(*triple, x))
            ref = self._lemma1_reference(*triple, (0, -1, 1), x)
            self._assert_same(res, ref)
            g0, gm, gp = ref.value.tolist()
            lhs = (x * g0 + (alpha + beta - c) * gm) * (gp - g0)
            assert _bits(out) == _bits(lhs - (beta - 1.0) * gm * gm)


class TestAgainstPerLevelReduce:
    """The kernels' integrand on TestKernelsMatchReference's grids: the
    rule takes the levels of the per-level reference, and its values and
    error estimates differ from the reference's by a few ulps of the
    value at most."""

    XS = TestKernelsMatchReference.XS

    def _assert_close(self, integrand, rel_tol=1e-10):
        res = de_halfline(integrand, rel_tol=rel_tol)
        values, errors, levels = de_reference.de_halfline(integrand,
                                                          rel_tol=rel_tol)
        assert res.row_levels == tuple(levels)
        tol = 4.0 * np.finfo(float).eps * np.abs(values)
        assert np.all(np.abs(res.value - values) <= tol)
        assert np.all(np.abs(res.error - errors) <= tol)

    @pytest.mark.parametrize("nu", [0.0, 1.0 / 3.0, 2.5])
    def test_bessel_k(self, nu):
        for x in self.XS:
            log_scale = (nu * math.log(2.0 * x) - x
                         + 0.5 * math.log(math.pi) - math.lgamma(nu + 0.5))
            self._assert_close(_reference(2.0 * x, nu - 0.5, (nu - 0.5,),
                                          log_scale))

    def test_psi_rows(self):
        a = 1.0 / 6.0
        expos = tuple(c - a - 1.0 for c in (1.0 / 3.0, 4.0 / 3.0, 7.0 / 3.0))
        for x in self.XS:
            self._assert_close(_reference(x, a - 1.0, expos,
                                          -math.lgamma(a)))

    @pytest.mark.parametrize("triple", TestKernelsMatchReference.TRIPLES)
    def test_lemma1_rows(self, triple):
        alpha, beta, c = triple
        expos = tuple((c + shift) - (alpha + beta) for shift in (0, -1, 1))
        for x in self.XS:
            self._assert_close(_reference(x, beta - 1.0, expos, -x),
                               rel_tol=1e-11)


class TestNonFiniteTerms:
    def test_halfline_non_finite_values_count_as_zero(self):
        # exp(x^2) overflows to inf for x >= 30, and inf * 0 is nan; the
        # engine silences both and drops the terms, and no RuntimeWarning
        # escapes
        clean = de_halfline(lambda x: np.where(x < 30.0, np.exp(-x), 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inf = de_halfline(
                lambda x: np.where(x < 30.0, np.exp(-x), np.exp(x * x)))
            nan = de_halfline(lambda x: np.where(
                x < 30.0, np.exp(-x), np.exp(x * x) * 0.0))
        assert inf == clean
        assert nan == clean
        assert clean.value == pytest.approx(1.0, rel=1e-12)

    def test_finite_interval_non_finite_values_count_as_zero(self):
        clean = tanh_sinh(lambda x: np.where(x > 1e-30, x, 0.0), 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spiky = tanh_sinh(
                lambda x: np.where(x > 1e-30, x, 1.0 / (x - x)), 0.0, 1.0)
        assert spiky == clean
        assert clean.value == pytest.approx(0.5, rel=1e-12)

    def test_finite_interval_never_calls_f_at_an_endpoint(self):
        seen = []
        res = tanh_sinh(lambda x: seen.append(x) or np.ones_like(x), 1.0, 2.0)
        nodes = np.concatenate(seen)
        assert nodes.min() > 1.0 and nodes.max() < 2.0
        assert res.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("max_level", [7, 10])
    def test_overflowing_sum_never_converges(self, max_level):
        # a row whose running sum overflows refines to max_level like any
        # integral that has not converged; its finite siblings are
        # unaffected
        halfline = [lambda x: np.exp(-x), lambda x: np.full_like(x, 1e300)]
        finite = [np.cos, lambda x: np.full_like(x, 1.7e308)]
        for integrate, fs in (
                (lambda f: de_halfline(f, max_level=max_level), halfline),
                (lambda f: tanh_sinh(f, -1.0, 1.0, max_level=max_level),
                 finite)):
            clean, huge = (integrate(f) for f in fs)
            assert clean.levels < max_level
            assert not math.isfinite(huge.value)
            assert huge.error == math.inf
            assert huge.levels == max_level
            rows = integrate(_stack(fs))
            assert rows.levels == max_level
            assert (rows.value[0], rows.error[0]) == (clean.value,
                                                      clean.error)
            assert not math.isfinite(rows.value[1])
            assert rows.error[1] == math.inf

    def test_zero_integrand(self):
        res = de_halfline(np.zeros_like)
        assert (res.value, res.error) == (0.0, 0.0)


class TestKernels:
    @pytest.mark.parametrize("nu", [0.0, 1.0 / 3.0, 0.5, 2.5])
    def test_bessel_k_against_scipy(self, nu):
        # kve is scaled by e^x, so it does not underflow at x = 700
        for x in np.geomspace(1e-3, 700.0, 40).tolist():
            ref = special.kve(nu, x) * math.exp(-x)
            assert specfun.bessel_k(nu, x).value == pytest.approx(
                ref, rel=1e-11)

    @pytest.mark.parametrize("alpha,beta,c,shift,x", [
        (0.4, 0.6, 0.9, -1, 0.01), (0.5, 1.0, 1.2, 1, 2.0),
        (0.2, 0.9, 1.0, 0, 20.0), (0.7, 0.8, 1.5, -1, 0.0),
        (0.3, 0.5, 0.7, 1, 5.0)])
    def test_lemma1_g_against_mpmath(self, alpha, beta, c, shift, x):
        expo = c + shift - (alpha + beta)
        with mpmath.workdps(30):
            if x == 0.0:
                # the slow algebraic tail defeats mpmath.quad; the
                # integral is the Beta function there
                ref = mpmath.beta(beta, -expo - beta)
            else:
                ref = mpmath.exp(-x) * mpmath.quad(
                    lambda u: mpmath.exp(-x * u) * u ** (beta - 1)
                    * (1 + u) ** expo, [0, 1, 10, mpmath.inf])
        g = factorizations.lemma1_g(alpha, beta, c, shift, x)
        assert g.value == pytest.approx(float(ref), rel=1e-10)

    # levels of the one Tricomi kernel behind all five
    LEVELS = [
        (specfun, "bessel_k", (1.0 / 3.0, 1e-3), 6),
        (specfun, "bessel_k", (1.0 / 3.0, 1.0), 4),
        (specfun, "bessel_k", (2.5, 50.0), 4),
        (specfun, "bessel_k", (0.0, 300.0), 5),
        (specfun, "psi_chf", (1.0 / 6.0, 1.0 / 3.0, 1e-3), 5),
        (specfun, "psi_chf", (1.0 / 6.0, 4.0 / 3.0, 0.1), 5),
        (specfun, "psi_chf", (1.0 / 6.0, 7.0 / 3.0, 40.0), 4),
        (specfun, "psi_chf", (2.0, 0.5, 3.0), 4),
        (factorizations, "lemma1_g", (0.4, 0.6, 0.9, -1, 0.01), 5),
        (factorizations, "lemma1_g", (0.5, 1.0, 1.2, 1, 2.0), 4),
        (factorizations, "lemma1_g", (0.2, 0.9, 1.0, 0, 20.0), 4),
        (factorizations, "lemma1_g", (0.7, 0.8, 1.5, -1, 0.0), 3),
        (factorizations, "lemma1_g", (0.3, 0.5, 0.7, 1, 5.0), 4),
    ]

    @pytest.mark.parametrize("module,name,args,levels", LEVELS)
    def test_levels_pinned(self, monkeypatch, module, name, args, levels):
        seen = []

        def recording(f, **kw):
            res = de_halfline(f, **kw)
            seen.append(res.levels)
            return res

        monkeypatch.setattr(specfun, "de_halfline", recording)
        getattr(module, name)(*args)
        assert seen == [levels]


def _decaying(a, b, c):
    """x^(a-1) e^(-b x) (1+x)^c as a 1-D integrand."""
    return lambda x: np.exp(-b * x) * x ** (a - 1.0) * (1.0 + x) ** c


# At the default rel_tol these rows stop at levels 3, 4, 5, 6 and 7;
# the slow algebraic decay does not converge by level 10, and the last
# row overflows to inf at the nodes past 30.
ROW_INTEGRANDS = [
    _decaying(0.05, 1e-3, -3.0),
    _decaying(0.05, 0.1, -1.0),
    _decaying(0.05, 1e-3, -1.0),
    _decaying(0.05, 1e-3, 0.0),
    _decaying(0.05, 1e-3, 3.0),
    lambda x: 1.0 / (1.0 + x) ** 1.01,
    lambda x: np.where(x < 30.0, np.exp(-x), np.exp(x * x)),
]


def _stack(fs):
    return lambda x: np.stack([f(x) for f in fs])


def _assert_rows_match(rows, singles):
    assert isinstance(rows.value, np.ndarray)
    assert isinstance(rows.error, np.ndarray)
    assert rows.value.dtype == rows.error.dtype == np.float64
    assert type(rows.levels) is int
    np.testing.assert_array_equal(
        rows.value.view(np.int64),
        np.array([r.value for r in singles]).view(np.int64))
    np.testing.assert_array_equal(
        rows.error.view(np.int64),
        np.array([r.error for r in singles]).view(np.int64))
    assert rows.levels == max(r.levels for r in singles)


class TestRows:
    """k sibling integrals in one call equal k separate calls, field for
    field, bit for bit; each row stops at its own level."""

    @pytest.mark.parametrize("max_level", [0, 1, 2, 3, 4, quad._HEAD, 6, 10])
    def test_halfline_rows_match_separate_calls(self, max_level):
        singles = [de_halfline(f, max_level=max_level)
                   for f in ROW_INTEGRANDS]
        rows = de_halfline(_stack(ROW_INTEGRANDS), max_level=max_level)
        _assert_rows_match(rows, singles)
        if max_level == 10:
            levels = [r.levels for r in singles]
            assert levels[:6] == [3, 4, 5, 6, 7, 10]  # the sixth runs out

    @pytest.mark.parametrize("max_level", [0, 2, 4, 10])
    def test_finite_interval_rows_match_separate_calls(self, max_level):
        fs = [np.sin, lambda x: 1.0 / np.sqrt(x), lambda x: np.log(x) ** 2,
              lambda x: np.where(x > 1e-30, x, 1.0 / (x - x))]
        singles = [tanh_sinh(f, 0.0, 1.0, max_level=max_level) for f in fs]
        rows = tanh_sinh(_stack(fs), 0.0, 1.0, max_level=max_level)
        _assert_rows_match(rows, singles)

    def test_stopped_row_does_not_move(self):
        # the first row stops early; what it returns afterwards is ignored
        calls = []

        def f(x):
            calls.append(x.size)
            late = len(calls) > 1
            return np.stack([np.exp(-x) * (np.nan if late else 1.0),
                             1.0 / (1.0 + x) ** 1.01])

        rows = de_halfline(f, rel_tol=1e-14)
        assert len(calls) > 1
        single = de_halfline(lambda x: np.exp(-x), rel_tol=1e-14)
        assert (rows.value[0], rows.error[0]) == (single.value, single.error)

    def test_one_row_is_still_an_array(self):
        rows = de_halfline(lambda x: np.exp(-x)[np.newaxis])
        single = de_halfline(lambda x: np.exp(-x))
        _assert_rows_match(rows, [single])
        assert rows.value.shape == (1,)


class TestRowLevels:
    """Each row's own level and stopping verdict come out of the rule,
    equal to those of the same integral integrated alone."""

    @pytest.mark.parametrize("max_level", [0, 3, quad._HEAD, 6, 10])
    def test_rows_report_their_own_level_and_verdict(self, max_level):
        singles = [de_halfline(f, max_level=max_level)
                   for f in ROW_INTEGRANDS]
        rows = de_halfline(_stack(ROW_INTEGRANDS), max_level=max_level)
        assert rows.row_levels == tuple(r.levels for r in singles)
        assert rows.converged == tuple(r.converged for r in singles)
        for r in singles:
            assert type(r.row_levels) is int and r.row_levels == r.levels
            assert type(r.converged) is bool
            # the verdict is the stopping test on the returned fields
            assert r.converged is (math.isfinite(r.value) and r.error <= (
                1e-10 * (abs(r.value) + quad._TINY)))
        if max_level == 10:
            # the slow algebraic decay runs out of levels
            assert rows.converged == (True,) * 5 + (False, True)

    def test_finite_interval_rows_report_their_own_level(self):
        fs = [np.sin, lambda x: np.cos(30.0 * x),
              lambda x: np.exp(x) * np.cos(x)]
        singles = [tanh_sinh(f, 0.0, 1.0) for f in fs]
        rows = tanh_sinh(_stack(fs), 0.0, 1.0)
        assert rows.row_levels == tuple(r.levels for r in singles)
        assert rows.converged == tuple(r.converged for r in singles)
        assert len(set(rows.row_levels)) > 1

    # (call, the recorded _tricomi rows' single-row calls); each x makes
    # the three rows stop at two different levels
    CALLS = [
        (lambda: factorizations.lemma1_inequality(0.4, 0.6, 0.9, 0.01),
         [lambda s=s: factorizations.lemma1_g(0.4, 0.6, 0.9, s, 0.01)
          for s in (0, -1, 1)]),
        (lambda: factorizations.lemma1_inequality(0.5, 1.0, 1.2, 20.0),
         [lambda s=s: factorizations.lemma1_g(0.5, 1.0, 1.2, s, 20.0)
          for s in (0, -1, 1)]),
        (lambda: factorizations.whitt_margin(1e-3),
         [lambda c=c: specfun.psi_chf(1.0 / 6.0, c, 1e-3)
          for c in (1.0 / 3.0, 4.0 / 3.0, 7.0 / 3.0)]),
        (lambda: factorizations.whitt_margin(3.8),
         [lambda c=c: specfun.psi_chf(1.0 / 6.0, c, 3.8)
          for c in (1.0 / 3.0, 4.0 / 3.0, 7.0 / 3.0)]),
    ]

    def _rows_and_singles(self, monkeypatch, call, alone, cap):
        """The rows of call's one _tricomi call, and the same rows called
        alone, as (value, bar, level, flag), with the levels capped at
        cap if one is given."""
        monkeypatch.undo()

        def capped(f, rel_tol=1e-10, max_level=10):
            return de_halfline(f, rel_tol=rel_tol,
                               max_level=max_level if cap is None else cap)

        def recording(*args):
            seen.append(real(*args))
            return seen[-1]

        seen, real = [], specfun._tricomi
        monkeypatch.setattr(specfun, "de_halfline", capped)
        monkeypatch.setattr(specfun, "_tricomi", recording)
        call()
        (rows,) = seen
        singles = [(r.value, r.abs_error_estimate, r.terms_used, r.reliable)
                   for r in (fn() for fn in alone)]
        return rows, singles

    @pytest.mark.parametrize("call,alone", CALLS)
    def test_kernel_rows_match_their_single_calls(self, monkeypatch, call,
                                                  alone):
        # a 3-row kernel call gives each row the level and flag (and the
        # value and bar) of the same row called alone, not the deepest
        # row's
        rows, singles = self._rows_and_singles(monkeypatch, call, alone,
                                               None)
        assert rows == singles
        assert len({row[2] for row in rows}) > 1
        assert all(row[3] for row in rows)
        # capped at the shallowest row's level, the deeper rows stop
        # unconverged there, and the shallowest still converges
        cap = min(row[2] for row in rows)
        rows, singles = self._rows_and_singles(monkeypatch, call, alone, cap)
        assert rows == singles
        assert {row[3] for row in rows} == {True, False}


class TestNonFiniteRows:
    """A non-finite weighted value counts as 0 in its own row, also in a
    call of several rows: the other rows keep the bits of their single
    calls, and the spiky row equals its clean twin."""

    # a node of level 0 (x = 1) and one of level 4, both in the head
    SPIKES = (1.0, float(quad._nodes(4).half_x[40]))

    @classmethod
    def _spiky(cls, f, bad):
        return lambda x: np.where(np.isin(x, cls.SPIKES), bad, f(x))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("max_level", [3, quad._HEAD, 10])
    def test_spiky_row_equals_its_clean_twin(self, bad, max_level):
        fs = [_decaying(0.05, 1e-3, 0.0), lambda x: np.exp(-x),
              _decaying(0.5, 1.0, 1.0)]
        clean = [fs[0], self._spiky(fs[1], 0.0), fs[2]]
        spiky = [fs[0], self._spiky(fs[1], bad), fs[2]]
        singles = [de_halfline(f, max_level=max_level) for f in clean]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = de_halfline(_stack(spiky), max_level=max_level)
            alone = de_halfline(spiky[1], max_level=max_level)
        _assert_rows_match(rows, singles)
        assert rows.row_levels == tuple(r.levels for r in singles)
        assert rows.converged == tuple(r.converged for r in singles)
        assert alone == singles[1]
        assert math.isfinite(rows.value[1])


@pytest.mark.parametrize("a,b", [(1e6, 1e6 + 1e-6),
                                 (1.0, 1.0 + 2.0 * np.finfo(float).eps)],
                         ids=["1e6-width-1e-6", "1-width-2eps"])
def test_finite_interval_too_narrow_for_its_endpoints_raises(a, b):
    # the nodes that round onto an endpoint are dropped with their
    # weight: 1e-4 of it on the first interval, whose result was 1e-4
    # relative off under an error estimate of 5.8e-13, and half of it on
    # the second, where level 1 had no node inside and the result was
    # half the integral
    calls = []
    for max_level in range(4):
        with pytest.raises(DomainError, match="too narrow"):
            tanh_sinh(lambda x: calls.append(x) or np.ones_like(x), a, b,
                      max_level=max_level)
    assert calls == []


def test_finite_interval_loses_no_more_than_rel_tol():
    # on [1e6, 1e6 + 1] the dropped nodes carry 1.4e-10 of the weight:
    # above the default rel_tol, below 1e-9
    with pytest.raises(DomainError, match="too narrow"):
        tanh_sinh(np.ones_like, 1e6, 1e6 + 1.0)
    res = tanh_sinh(np.ones_like, 1e6, 1e6 + 1.0, rel_tol=1e-9)
    assert res.value == pytest.approx(1.0, rel=1e-9)
    # the share at 1 on [0, 1] is about 1e-16
    assert tanh_sinh(np.ones_like, 0.0, 1.0, rel_tol=1e-15).value \
        == pytest.approx(1.0, rel=1e-15)


def test_level_sum_of_a_slice_is_position_free():
    # Each level's sum is one segment of a np.add.reduceat over a run;
    # a level summed inside the head must equal the same level summed as
    # its own run, which holds only if a segment's sum does not depend on
    # where the segment starts in the array.
    x = np.random.default_rng(7).standard_normal(2000) * np.geomspace(
        1e-30, 1e30, 2000)
    for n in (1, 7, 8, 9, 127, 128, 129, 441, 1500):
        for i in range(40):
            assert (np.add.reduceat(x, [i, i + n])[0].view(np.int64)
                    == np.add.reduceat(x[i:i + n].copy(), [0])[0].view(
                        np.int64)), (
                "np.add.reduceat gives different bits for the same values "
                "depending on their offset in the array; the batched head "
                "of stable_msu.quadrature cannot reproduce the level sums "
                "of separate calls on this platform")


def test_run_sums_keep_the_accuracy_of_a_pairwise_reduce():
    # reduceat adds a level in another order than np.add.reduce did, so
    # sums move in their last bits; they stay within the pairwise
    # summation bound eps (log2 n + 16) sum|x| of the exact sum, for
    # the head's levels and single levels up to 12, 1-D and in rows
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    sizes = [13, 14, 28, 54, 108, 218] + [
        quad._nodes(level).t.size for level in range(6, 13)]
    for x in (np.full(sum(sizes), 0.1),
              rng.standard_normal(sum(sizes)) * np.geomspace(
                  1e-3, 1e3, sum(sizes))):
        start, exact = 0, []
        for n in sizes:
            level = x[start:start + n]
            exact.append((math.fsum(level.tolist()),
                          eps * (math.log2(n) + 16.0)
                          * math.fsum(np.abs(level).tolist()), n))
            start += n
        ends = np.cumsum(sizes).tolist()
        for got in (quad._run_sums(x, ends)[0],
                    quad._run_sums(np.stack([x, -x]), ends)[0]):
            for s, (ref, bound, n) in zip(got, exact):
                assert abs(s - ref) <= bound, n


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_one_reduce_over_rows_gives_each_row_its_bits(rows):
    # _refine sums every level of a run, for every row, in one reduceat
    # along axis 1; the rows match separate calls only if each row's
    # sums equal a reduceat over that row alone, as a 1-D array or as a
    # one-row block.  Level lengths are the head's (levels 0..5), then
    # those of levels 6..10.
    sizes = [13, 14, 28, 54, 108, 218] + [
        quad._nodes(level).t.size for level in range(6, 11)]
    starts = np.cumsum([0] + sizes[:-1])
    a = np.random.default_rng(rows).standard_normal((rows, sum(sizes))) * (
        np.geomspace(1e-30, 1e30, sum(sizes)))
    sums = np.add.reduceat(a, starts, axis=1)
    for i in range(rows):
        for alone in (np.add.reduceat(a[i], starts),
                      np.add.reduceat(a[i:i + 1], starts, axis=1)[0]):
            np.testing.assert_array_equal(
                sums[i].view(np.int64), alone.view(np.int64),
                "np.add.reduceat along axis 1 gives a row other bits than "
                "a reduceat over that row alone; stable_msu.quadrature's "
                "level sums cannot match separate calls on this platform")
