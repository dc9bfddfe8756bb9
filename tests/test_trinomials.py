"""Certified trinomial roots: isolation, refinement, Stakhov and Euler forms."""

import importlib.util
import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldmean import (
    DegenerateIdentity,
    InputTooLarge,
    NoRealRoot,
    TrinomialSpec,
    generalized_gm,
    isolate_real_roots,
    solve_euler,
    solve_gm_general,
    solve_stakhov,
    solve_trinomial,
    stakhov_decimal,
)
from goldmean import trinomials
from goldmean.cli import run
from goldmean.trinomials import MAX_DEGREE, _SLOPE_SCALE, _power, _Poly, _round, _sum
from oracles import (bisect_root, grid_sign_changes, has_multiple_root, mp_real_roots,
                     mp_root_in, truncate_mpf)

PLASTICISH = bisect_root(lambda x: x ** 3 + x - 1, 0.0, 1.0)       # x^3 + x = 1
SUPERGOLDENISH = bisect_root(lambda x: x ** 3 + x ** 2 - 1, 0.0, 1.0)  # x^3 + x^2 = 1


def scaled_residual_ok(spec, record, tol=1e-12):
    return record.residual <= tol * (1.0 + abs(record.value) ** spec.n)


class TestIsolation:
    def test_two_brackets_for_positive_discriminant(self):
        brackets = isolate_real_roots(TrinomialSpec(n=2, p=1, p_sign="plus", m=2))
        assert len(brackets) == 2

    def test_single_bracket_for_monotone_cubic(self):
        brackets = isolate_real_roots(TrinomialSpec(n=3, p=1, p_sign="plus", m=2))
        assert len(brackets) == 1

    def test_degenerate_identity(self):
        with pytest.raises(DegenerateIdentity):
            isolate_real_roots(TrinomialSpec(n=1, p=1, p_sign="minus", m=4))
        with pytest.raises(DegenerateIdentity):
            isolate_real_roots(TrinomialSpec(n=1, p=1, p_sign="minus", m=0))

    def test_brackets_are_disjoint_and_cover_roots(self):
        spec = TrinomialSpec(n=3, p=3, p_sign="minus", m=1)  # three real roots
        brackets = isolate_real_roots(spec)
        assert len(brackets) == 3
        for (_, hi), (lo, _) in zip(brackets, brackets[1:]):
            assert hi < lo
        roots = solve_trinomial(spec)
        for record, (lo, hi) in zip(roots.roots, brackets):
            assert lo <= record.value <= hi

    def test_roots_beside_a_critical_point_get_disjoint_brackets(self):
        # (x + 2s)(x**2 - 2s*x - (8s**2 + 3)) at s = 10**5: the roots -2s and
        # s - sqrt(9s**2 + 3) lie on either side of the critical point -sqrt(4s**2 + 1)
        brackets = isolate_real_roots(
            TrinomialSpec(n=3, p=120000000003, p_sign="minus", m=32000000001200000))
        assert len(brackets) == 3
        for (_, hi), (lo, _) in zip(brackets, brackets[1:]):
            assert hi < lo


def _least_reference(holds) -> int:
    """The least t in [-1074, 1100] where the monotone predicate ``holds`` is true."""
    lo, hi = -1075, 1100  # holds(hi), and lo stands below the range
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


class TestOuterEnds:
    """Outer bracket ends U = ±2**t, where the sign of f is read off an inequality between
    the terms at U, with no evaluation: t is the least that the inequality allows."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(2, 40), st.integers(-10 ** 40, 10 ** 40), st.booleans(),
           st.fractions(-10 ** 40, 10 ** 40, max_denominator=10 ** 20), st.sampled_from([-1, 1]))
    def test_the_least_end_whose_sign_the_terms_decide(self, n, c, linear, rhs, side):
        e = 1 if linear or n == 2 else n - 1
        shared = c * side ** (n - e) >= 0  # x**n and c*x**e share a sign beyond 0
        if shared and rhs * side ** n <= 0:
            return  # f has the sign of x**n on all that side, where no end is needed
        poly = _Poly(n, c, e, rhs)
        u, u_again, s = trinomials._outer(poly, side)
        assert u == u_again and s == (1 if side > 0 or n % 2 == 0 else -1)
        assert poly.sign(u) == s  # the exact sign agrees with the one read off

        def holds(t):
            power, lower = Fraction(2) ** (t * n), abs(c) * Fraction(2) ** (t * e)
            if shared:  # |U**n| >= |rhs| with c != 0, > |rhs| with c = 0, or |c*U**e| > |rhs|
                return power > abs(rhs) or c != 0 and (power == abs(rhs) or lower > abs(rhs))
            return power >= 2 * lower and power > 2 * abs(rhs)

        assert u == side * Fraction(2) ** max(_least_reference(holds), -1074)

    @pytest.mark.parametrize("argv, bracket", [
        # x**273 + x = 1: at U = 1, U**273 >= 1 and U > 0
        ("solve --n 273 --m 2", (0.0, 1.0)),
        # x**3 + 10**296 * x = 1/2: 10**296 * 2**-984 > 1/2
        ("mmf --n 3 --p 1" + "0" * 296 + " --sign plus --m 1", (0.0, 2.0 ** -984)),
        # x**2 - 65x = 777/2: right of 0, where the terms differ in sign, U >= 2 * 65 = 130
        # and U**2 > 777 at U = 2**8, not 2**7; left of it, where they share one,
        # 65 * 8 > 777/2 where 65 * 4 is not
        ("mmf --n 2 --p 65 --sign minus --m 777", (32.50000000000001, 256.0)),
        ("mmf --n 2 --p 65 --sign minus --m 777", (-8.0, 0.0)),
    ])
    def test_pinned(self, argv, bracket):
        out = io.StringIO()
        with redirect_stdout(out):
            assert run([*argv.split(), "--format", "json"]) == 0
        results = json.loads(out.getvalue())["results"]
        assert bracket in [(r["bracket_lo"], r["bracket_hi"]) for r in results]

    @pytest.mark.parametrize("spec", [
        # x**3 - 3x = 0 and x**4 + x = 0: 0 lies between critical points, or between one and
        # the outer end, and f(0) = -rhs = 0 is read off
        TrinomialSpec(3, 3, "minus", 0),
        TrinomialSpec(4, 1, "plus", 0),
        # x**3 + x**2 = 0: 0 is a critical point of the x**(n-1) family
        TrinomialSpec(3, 1, "plus", 0, "n_minus_one"),
    ])
    def test_a_root_at_0_is_exact(self, spec):
        assert (0.0, (0.0, 0.0), 0.0, 0, 0) in solve_trinomial(spec).roots
        assert all(lo >= 0 or hi <= 0 for lo, hi in isolate_real_roots(spec))


class TestCloseRootFamily:
    """(x + 2s)(x**2 - 2s*x - (8s**2 + 3)) with p and m moved by up to 3: two roots
    about 1/(2s) apart, on either side of a critical point; above s of about 10**8 they
    can lie within one ulp of it."""

    _FAMILY = (st.integers(1, 10 ** 13), st.integers(-3, 3), st.integers(-3, 3))

    @staticmethod
    def _digits(p, m):
        argv = ["mmf", "--n", "3", "--p", str(p), "--sign", "minus", "--m", str(m),
                "--digits", "15", "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run(argv) == 0
        assert err.getvalue() == ""
        return [r["decimal"] for r in json.loads(out.getvalue())["results"]]

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(*_FAMILY)
    def test_exits_cleanly_with_exact_digits(self, s, dp, dm):
        p, m = 12 * s * s + 3 + dp, 32 * s ** 3 + 12 * s + dm
        printed = self._digits(p, m)
        if has_multiple_root(3, -p, 1, Fraction(m, 2)):
            return
        roots = mp_real_roots(3, -p, 1, Fraction(m, 2))
        assert printed == [truncate_mpf(r, 15) for r in roots]

    @pytest.mark.parametrize("p, m", [
        # s = 145442787: f is 0 at the double nearest the critical point, x2 = -2s
        (253843251483928431, 98452453218571831816910340),
        # s = 3002729937868: x3 is 1.66e-13 below x2 = -2s
        (108196644957225157684625091, 866360813306492675338775484643730007440),
    ], ids=["s=145442787", "s=3002729937868"])
    def test_exact_digits_for_roots_closer_than_one_ulp(self, p, m):
        roots = mp_real_roots(3, -p, 1, Fraction(m, 2))
        printed = self._digits(p, m)
        assert printed == [truncate_mpf(r, 15) for r in roots]
        assert len(set(printed)) == 3

    def test_a_root_at_the_double_of_a_critical_point_is_exact(self):
        # s = 145442787: f is 0 exactly at c = -2s, the double computed for x* = -sqrt(p/3);
        # x* lies between c and x3, which is 3.4e-9 below c
        p, m = 253843251483928431, 98452453218571831816910340
        argv = ["mmf", "--n", "3", "--p", str(p), "--sign", "minus", "--m", str(m),
                "--format", "json"]
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(argv) == 0
        x1, x2, x3 = json.loads(out.getvalue())["results"]
        c = -290885574.0
        assert (x2["value"], x2["bracket_lo"], x2["bracket_hi"], x2["residual"],
                x2["iterations"]) == (c, c, c, 0.0, 0)
        assert x2["decimal"] == "-290885574.0000000000"
        roots = mp_real_roots(3, -p, 1, Fraction(m, 2))
        assert [x1["decimal"], x3["decimal"]] == [truncate_mpf(roots[0], 10),
                                                  truncate_mpf(roots[2], 10)]
        record = solve_trinomial(TrinomialSpec(3, p, "minus", m)).roots[1]
        assert record.exact == Fraction(-290885574)

    def test_exact_digits_for_roots_within_one_ulp_of_a_rational_critical_point(self):
        # x**3 + c*x**2 = m/2 with 8c**3 - 27m = 1: f(x*) = 1/54 at the critical point
        # x* = -2c/3, so two roots lie about (54c)**-1/2 = 4.3e-7 either side of it, well
        # within its ulp of 7.6e-6
        c = 100000000004
        m = (8 * c ** 3 - 1) // 27
        assert 8 * c ** 3 - 27 * m == 1
        roots = mp_real_roots(3, c, 2, Fraction(m, 2))
        assert [float(r) for r in roots].count(float(Fraction(-2 * c, 3))) == 2
        found = solve_trinomial(TrinomialSpec(3, c, "plus", m, "n_minus_one"))
        printed = [found.truncate(record, 15)[0] for record in reversed(found.roots)]
        assert printed == [truncate_mpf(r, 15) for r in roots]

    def test_roots_within_an_ulp_of_a_critical_point_that_is_a_double(self, monkeypatch):
        # x**999 - p*x = m/2 with p = 999 * 2**998 and m = 2 * 998 * 2**999 - 1: f(x*) = 1/2 at
        # the critical point x* = -2, so two roots lie about 2**-499 either side of it.  x* is
        # the end (-2.0, -2.0) of its own mark, where ends halved toward it took 924 signs
        p, m = 999 * 2 ** 998, 2 * 998 * 2 ** 999 - 1
        sign, in_ends = _Poly.sign, []
        def counted(poly, x):
            in_ends.append(sys._getframe(1).f_code is trinomials._ends.__code__)
            return sign(poly, x)
        monkeypatch.setattr(_Poly, "sign", counted)
        argv = ["mmf", "--n", "999", "--p", str(p), "--sign", "minus", "--m", str(m)]
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(argv + ["--format", "json"]) == 0
        assert sum(in_ends) <= 8
        assert json.loads(out.getvalue())["results"] == [
            {"label": "x1", "decimal": "2.0152797253", "value": 2.015279725354198,
             "bracket_lo": 2.0, "bracket_hi": 4.0, "residual": 8.782964252774249e+290,
             "iterations": 9, "satisfactory": True},
            {"label": "x2", "decimal": "-1.9999999999", "value": -1.9999999986610675,
             "bracket_lo": -2.0, "bracket_hi": 0.0, "residual": 1.218164251425e+288,
             "iterations": 22, "satisfactory": False},
            {"label": "x3", "decimal": "-2.0000000000", "value": -2.000000001694531,
             "bracket_lo": -4.0, "bracket_hi": -2.0, "residual": 1.8272463771374998e+288,
             "iterations": 27, "satisfactory": False}]
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(argv) == 0
        assert out.getvalue() == ("x1 = 2.0152797253 (satisfactory)\nx2 = -1.9999999999\n"
                                  "x3 = -2.0000000000\n")

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(*_FAMILY)
    def test_values_below_float_noise_are_within_one_ulp(self, s, dp, dm):
        # f is below its float rounding error across the bracket, so exact signs steer
        # the refinement until the bracket closes to adjacent floats
        p, m = 12 * s * s + 3 + dp, 32 * s ** 3 + 12 * s + dm
        if has_multiple_root(3, -p, 1, Fraction(m, 2)):
            return
        roots = sorted(float(r) for r in mp_real_roots(3, -p, 1, Fraction(m, 2)))
        found = solve_trinomial(TrinomialSpec(3, p, "minus", m), tolerance=1e-300)
        assert len(found.values) == len(roots)
        for value, root in zip(found.values, roots):
            assert abs(value - root) <= math.ulp(root)


class TestOverflowingPowers:
    """Roots whose bracket holds points where x**n overflows in doubles, and so f in doubles
    is not finite: near ±1 at degrees where that happens at x = 2, the outer end, and near
    5e102 at n = 3 and 4e61 at n = 5.  The exact sign decides there."""

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        assert (code, err.getvalue()) == (0, "")
        return [r["decimal"] for r in json.loads(out.getvalue())["results"]]

    @pytest.mark.parametrize("digits", [10, 30])
    @pytest.mark.parametrize("argv, n, m2", [
        ("solve --n 1000 --m 100000000", 1000, 10 ** 8),
        ("euler --a 0 --n 1000 --x 1000 --mode constrained", 1000, 2 * 10 ** 6),
        ("mmf --n 700 --p 1 --sign plus --m " + str(10 ** 21), 700, 10 ** 21),
    ], ids=["solve", "euler", "mmf"])
    def test_digits_match_mpmath(self, argv, n, m2, digits):
        # each is x**n + x = m2/2, with one root in (1, 2) and one in (-2, -1)
        roots = [mp_root_in(n, 1, 1, Fraction(m2, 2), lo, hi) for lo, hi in ((1, 2), (-2, -1))]
        printed = self._run(f"{argv} --digits {digits} --format json".split())
        assert printed == [truncate_mpf(r, digits) for r in roots]

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(st.integers(900, 1000), st.integers(1, 10 ** 6), st.sampled_from(["plus", "minus"]),
           st.integers(0, 2 ** 900))
    def test_roots_inside_two_are_found(self, n, p, sign, m):
        # 2**n exceeds 2p + m/2, so f > 0 at 2 (and at -2 for an even n): every root is in ±2
        printed = self._run(["mmf", "--n", str(n), "--p", str(p), "--sign", sign, "--m", str(m),
                             "--format", "json"])
        c, rhs, unit = p if sign == "plus" else -p, Fraction(m, 2), Fraction(1, 10 ** 10)
        f = lambda x: x ** n + c * x - rhs  # noqa: E731
        for decimal in printed:
            # the ten digits d are exact: the root is in [d, d + unit), or (d - unit, d] below 0
            d = Fraction(decimal)
            far = d - unit if decimal.startswith("-") else d + unit
            assert abs(d) < 2 and (f(d) == 0 or f(d) * f(far) < 0)

    @pytest.mark.parametrize("n, m", [(3, 25 * 10 ** 307), (3, 34 * 10 ** 307),
                                      (5, 12 * 10 ** 307)],
                             ids=["n3-m2.5e308", "n3-m3.4e308", "n5-m1.2e308"])
    def test_a_root_below_the_overflow_of_x_n_is_found(self, n, m):
        # x**n + x = m/2: the root's x**n is finite, but x**n overflows at points of its
        # bracket, where the exact sign decides and the refinement goes on
        [decimal] = self._run(["mmf", "--n", str(n), "--p", "1", "--sign", "plus", "--m", str(m),
                               "--format", "json"])
        d, unit = Fraction(decimal), Fraction(1, 10 ** 10)
        f = lambda x: x ** n + x - Fraction(m, 2)  # noqa: E731
        assert f(d) <= 0 < f(d + unit)
        # n*x**n overflows before x**n does: the step, from ln(x**n) - ln(w), is kept there
        [record] = solve_trinomial(TrinomialSpec(n, 1, "plus", m)).roots
        assert record.iterations <= 10

    def test_refinement_bisects_where_x_n_overflows(self):
        # x**3 + x = 1.25e308: x**3 is past the float range at the first point, 8e102, and
        # f in doubles is not finite there, so the exact sign moves the bracket's end
        poly = _Poly(3, 1, 1, Fraction(25 * 10 ** 307, 2))
        value, residual = trinomials._refine(poly, 0.0, 1.6e103, -1, 1e-12)[:2]
        assert value == pytest.approx(5e102, rel=1e-12) and math.isfinite(residual)

    def test_the_newton_step_where_n_x_n_overflows(self):
        # at 5.5e102, x**3 is finite but 3*x**3, a term of x*f', is not: scaled, it keeps
        # the step -f/f'
        rhs, x = Fraction(25 * 10 ** 307, 2), 5.5e102
        dx = _Poly(3, 1, 1, rhs)._float(x, False)[3]
        t = Fraction(x)
        assert dx == pytest.approx(float(-(t ** 3 + t - rhs) / (3 * t ** 2 + 1)), rel=1e-12)

    def test_the_slope_scale_holds_to_the_degree_bound(self):
        # n and e times the scale are at most 1/2, so the scaled x*f', a sum of two terms
        # each at most half a finite double, is finite wherever x**n and c*x**e are
        assert 2 * MAX_DEGREE * _SLOPE_SCALE <= 1


def _points(bound):
    """0, and ints, floats and Fractions within ±bound."""
    return st.one_of(st.just(0), st.integers(-bound, bound),
                     st.floats(-bound, bound, allow_nan=False, allow_infinity=False),
                     st.fractions(-bound, bound, max_denominator=10 ** 6))


class TestBoundedSigns:
    """Signs of f(p/q) * den * q**n decided from bounds on its powers, against exact integers."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2 ** 200), st.integers(0, 1000), st.integers(1, 120))
    def test_power_bounds_enclose_the_power(self, b, k, bits):
        lo, hi, s = _power(b, k, bits)
        assert lo << s <= b ** k <= hi << s

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 120),
           st.lists(st.tuples(st.integers(-2 ** 80, 2 ** 80), st.integers(0, 2 ** 300),
                              st.integers(1, 120)), min_size=1, max_size=4))
    def test_sum_bounds_enclose_the_sum(self, bits, terms):
        lo, hi, s = _sum(bits, *((c, _round(v, v, 0, b)) for c, v, b in terms))
        total, unit = sum(c * v for c, v, _ in terms), Fraction(2) ** s
        assert lo * unit <= total <= hi * unit

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 1000), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
           st.fractions(max_denominator=1000), _points(10 ** 6), _points(2))
    @example(n=1, linear=True, c=3, rhs=Fraction(5, 2), x=Fraction(-7, 3), root=0)  # e = 1
    @example(n=1, linear=False, c=-2, rhs=Fraction(1, 3), x=0.75, root=0)  # e = 0
    @example(n=1, linear=False, c=5, rhs=Fraction(0), x=0, root=Fraction(-3, 7))
    # a root at a double, where f in doubles is 0.0 and cannot decide
    @example(n=3, linear=True, c=1, rhs=Fraction(0), x=0, root=0.5)
    # a root where f in doubles is rounding noise and the bounds of sign straddle 0
    @example(n=1000, linear=True, c=1, rhs=Fraction(0), x=0, root=1.1)
    @example(n=3, linear=False, c=1, rhs=Fraction(1, 2), x=Fraction(1, 3), root=0)  # e = n-1
    def test_bounded_sign_defers_or_agrees(self, n, linear, c, rhs, x, root):
        # a root inside ±2 keeps the rhs it sets in the float range
        e = 1 if linear else n - 1
        if root:
            x = root
            rhs = Fraction(root) ** n + c * Fraction(root) ** e
        p, q = x.as_integer_ratio()
        den, num = rhs.denominator, rhs.numerator
        exact = den * p ** n + den * c * p ** e * q ** (n - e) - num * q ** n
        slope = den * n * p ** (n - 1) + (den * c * e * p ** (e - 1) * q ** (n - e) if e else 0)
        want = (exact > 0) - (exact < 0)
        poly = _Poly(n, c, e, rhs)
        # the one expression behind bounds and signs is this integer, and its slope in p
        j, (alpha, beta), (d_alpha, d_beta) = poly._terms(p, q)
        assert alpha * abs(p) ** j + beta * q ** (n - 1) == exact
        assert d_alpha * abs(p) ** j + d_beta * q ** (n - 1) == slope
        for bits in (8, 2 * n.bit_length() + 64, 400):
            lo, hi, value, _ = poly.bounds(p, q, bits)
            assert lo <= hi
            if (lo > 0) - (lo < 0) == (hi > 0) - (hi < 0):
                assert (lo > 0) - (lo < 0) == want == (value > 0) - (value < 0)
        assert poly.sign(x) == want

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.floats(-2, 2, allow_subnormal=True), st.integers(1, 1000), st.booleans())
    def test_float_power_is_within_k_minus_1_roundings(self, x, k, linear):
        # the x**k of _float, as a power of x (e = 1) or as x**(k-1) * x (e = k - 1)
        y = _Poly(k, 1, 1 if linear else k - 1, Fraction(0))._float(x, False)[2]
        want = Fraction(x) ** k
        if x and math.ulp(0.0) <= abs(want) and 2.0 ** -1022 <= abs(y) <= 1.7976931348623157e308:
            assert abs(Fraction(y) - want) <= (k - 1) * 2 ** -53 / (1 - k * 2 ** -53) * abs(want)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 1000), st.booleans(),
           st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 307, 10 ** 307),
                     st.sampled_from([0, 2 ** 53 + 1, -10 ** 307, 10 ** 306, -10 ** 306])),
           st.one_of(st.floats(-2, 2, allow_subnormal=True), st.floats(allow_nan=False,
                                                                       allow_infinity=False)),
           st.booleans(), st.integers(-2 ** 63, 2 ** 63), st.integers(-3, 3),
           st.sampled_from(["float", "fraction", "grid"]), st.integers(1, 40),
           st.fractions(max_denominator=1000))
    # x**999 underflows to 0.0, so f in doubles is -rhs at the root 0.4
    @example(n=1000, linear=False, c=10 ** 306, r=0.4, on_root=True, jitter=0, ulps=0,
             form="float", digits=1, rhs=Fraction(0))
    # 0.5000000001067412 is the nearest double to k/10**40, with the root between them
    @example(n=292, linear=True, c=0, r=0.5000000001067412, on_root=True,
             jitter=9213442041861646908, ulps=1, form="grid", digits=40, rhs=Fraction(0))
    @example(n=990, linear=False, c=2, r=0.5000000000647217, on_root=True,
             jitter=9203470990676873662, ulps=1, form="grid", digits=40, rhs=Fraction(0))
    def test_float_filter_declines_or_agrees(self, n, linear, c, r, on_root, jitter, ulps, form,
                                            digits, rhs):
        """The sign of f in doubles, where the error bound decides it, is the exact sign of f
        at a double, at a Fraction or at k/10**D: at and a few ulps or grid steps from a
        root within half an ulp of r, with rhs set by that root, and elsewhere, where powers
        are subnormal or overflow."""
        e = 1 if linear else n - 1
        root = Fraction(r) + Fraction(jitter, 2 ** 64) * Fraction(math.ulp(r))
        if on_root and 2 ** -64 <= abs(r) and n * abs(math.frexp(r)[1]) <= 2000:
            rhs = root ** n + c * root ** e
            if not abs(rhs) < 2 ** 1023:
                rhs = Fraction(1, 2)
        if form == "float":
            x = r
            for _ in range(abs(ulps)):
                x = math.nextafter(x, math.copysign(math.inf, ulps))
            if math.isinf(x):
                return
        elif form == "fraction":
            x = root + Fraction(ulps, 2 ** 70) * Fraction(math.ulp(r))
        else:
            x = Fraction(math.floor(root * 10 ** digits) + ulps, 10 ** digits)
        poly = _Poly(n, c, e, rhs)
        try:
            fx, err = poly._float(float(x), form != "float")[:2]
        except OverflowError:  # x is past the float range
            return
        if err < math.inf:
            p, q = x.as_integer_ratio()
            den, num = rhs.denominator, rhs.numerator
            exact = den * p ** n + den * c * p ** e * q ** (n - e) - num * q ** n
            # f in doubles is within its bound of f at x, so it decides the sign beyond it
            assert abs(Fraction(fx) - Fraction(exact, den * q ** n)) <= err
            if abs(fx) > err:
                assert (fx > 0) - (fx < 0) == (exact > 0) - (exact < 0)

    @pytest.mark.parametrize("x, want", [(Fraction(10 ** 400), 1), (-10 ** 400, -1),
                                         (Fraction(10 ** 400, 3), 1), (math.inf, None)])
    def test_sign_past_the_float_range(self, x, want):
        # x**3 + x = 1/2: x has no double, so the exact integer decides; inf has no ratio
        poly = _Poly(3, 1, 1, Fraction(1, 2))
        if want is None:
            with pytest.raises(OverflowError):
                poly.sign(x)
        else:
            assert poly.sign(x) == want


class TestRootsBelowTheNewtonTarget:
    """x**3 + p*x = 1/2 for p from 10**92 to 10**296: the root, near 1/(2p), is so small
    that a Newton step rounds onto the bracket end 0, and (0, 1) is bisected down to it."""

    @pytest.mark.parametrize("exponent", [92, 128, 296])
    def test_digits_change_sign(self, exponent):
        p, digits = 10 ** exponent, 400
        [decimal] = TestOverflowingPowers._run(["mmf", "--n", "3", "--p", str(p), "--sign",
                                                "plus", "--m", "1", "--digits", str(digits),
                                                "--format", "json"])
        d = Fraction(decimal)
        f = lambda x: x ** 3 + p * x - Fraction(1, 2)  # noqa: E731
        # the digits are exact: f rises through the root, in [d, d + 10**-digits)
        assert d > 0 and f(d) <= 0 < f(d + Fraction(1, 10 ** digits))


class TestResiduals:
    """A float root's residual is |f| in doubles at its value, within the error bound of
    _Poly._float of the exact |f(value)|; an exact root's is the exact |f(value)| rounded once."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 300), st.booleans(), st.integers(1, 10 ** 6),
           st.sampled_from(["plus", "minus"]), st.integers(0, 10 ** 6))
    @example(n=1, linear=True, p=2, sign="plus", m=1)  # x = 1/6 has no double
    @example(n=3, linear=True, p=3, sign="minus", m=4)  # the exact root -1
    # the exact root -1.8e308, where |f| in doubles at it overflows
    @example(n=1, linear=True, p=2, sign="minus", m=2 * int(sys.float_info.max))
    def test_residual_is_f_at_the_value(self, n, linear, p, sign, m):
        spec = TrinomialSpec(n, p, sign, m, "one" if linear else "n_minus_one")
        try:
            roots = solve_trinomial(spec)
        except (DegenerateIdentity, InputTooLarge):  # n = 1, p = 1, minus; roots past 1.8e308
            return
        c, e = spec.signed_p, spec.exponent
        for record in roots.roots:
            x = Fraction(record.value)
            exact = abs(x ** n + c * x ** e - spec.rhs)
            if record.exact is None:
                fx, err = roots.poly._float(record.value, False)[:2]
                assert record.residual == abs(fx) and abs(Fraction(record.residual) - exact) <= err
            else:
                assert record.residual == float(exact)

    def test_a_power_below_the_normal_range_still_stops_on_the_tolerance(self):
        # x**300 + 100x = 1/2 has a root near 0.005, where x**300 is far below the normal
        # range: the error bound of f still holds there, so the refinement needs no bisection
        # down to adjacent floats
        [iterations] = [r.iterations for r in solve_trinomial(TrinomialSpec(300, 100, "plus", 1))
                        .roots if r.value > 0]
        assert iterations <= 3


class TestSolveTrinomial:
    def test_sqrt7_case(self):
        roots = solve_trinomial(TrinomialSpec(n=2, p=1, p_sign="plus", m=3))
        assert roots.values == pytest.approx([-1.8228756555322954, 0.8228756555322954],
                                             abs=1e-10)

    def test_linear_case(self):
        roots = solve_trinomial(TrinomialSpec(n=1, p=1, p_sign="plus", m=2))
        assert roots.values == [0.5]
        assert roots.roots[0].residual == 0.0

    def test_quartic_with_zero_rhs(self):
        roots = solve_trinomial(TrinomialSpec(n=4, p=1, p_sign="plus", m=0))
        assert roots.values == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_double_root_at_critical_point(self):
        # x^3 - 3x - 2 = (x+1)^2 (x-2)
        roots = solve_trinomial(TrinomialSpec(n=3, p=3, p_sign="minus", m=4))
        assert roots.values == pytest.approx([-1.0, 2.0], abs=1e-12)
        assert roots.roots[0].residual == 0.0  # found exactly at the critical point

    def test_double_root_high_exponent_family(self):
        # x^3 + 3x^2 - 4 = (x-1)(x+2)^2
        spec = TrinomialSpec(n=3, p=3, p_sign="plus", m=8, lower_exponent="n_minus_one")
        roots = solve_trinomial(spec)
        assert roots.values == pytest.approx([-2.0, 1.0], abs=1e-12)

    def test_even_multiplicity_root_is_reported(self):
        # x^3 + x^2 = 0 has roots -1 and 0 (0 with even multiplicity, and exact)
        spec = TrinomialSpec(n=3, p=1, p_sign="plus", m=0, lower_exponent="n_minus_one")
        roots = solve_trinomial(spec)
        assert roots.values == pytest.approx([-1.0, 0.0], abs=1e-15)
        assert roots.roots[1] == (0.0, (0.0, 0.0), 0.0, 0, 0)

    def test_residual_contract_across_family(self):
        for n in range(1, 6):
            for p in range(1, 4):
                for sign_name in ("plus", "minus"):
                    for m in range(0, 9):
                        spec = TrinomialSpec(n=n, p=p, p_sign=sign_name, m=m)
                        if n == 1 and p == 1 and sign_name == "minus":
                            continue
                        for record in solve_trinomial(spec).roots:
                            assert scaled_residual_ok(spec, record)

    def test_roots_sorted_and_inside_brackets(self):
        spec = TrinomialSpec(n=5, p=3, p_sign="minus", m=1)
        roots = solve_trinomial(spec)
        values = roots.values
        assert values == sorted(values)
        for record in roots.roots:
            assert record.bracket[0] <= record.value <= record.bracket[1]

    def test_odd_n_plus_sign_has_one_root(self):
        for n in (3, 5):
            for p in range(1, 4):
                for m in range(0, 9):
                    roots = solve_trinomial(TrinomialSpec(n=n, p=p, p_sign="plus", m=m))
                    assert len(roots.roots) == 1

    def test_positive_root_increases_with_m(self):
        for n in range(1, 6):
            previous = None
            for m in range(1, 11):
                top = solve_gm_general(n, m).roots[-1].value
                assert top > 0
                if previous is not None:
                    assert top > previous
                previous = top

    def test_count_matches_grid_oracle_spot(self):
        for spec in (TrinomialSpec(n=2, p=1, p_sign="plus", m=2),
                     TrinomialSpec(n=3, p=3, p_sign="minus", m=1),
                     TrinomialSpec(n=4, p=2, p_sign="minus", m=3),
                     TrinomialSpec(n=5, p=2, p_sign="minus", m=1,
                                   lower_exponent="n_minus_one")):
            assert not has_multiple_root(spec.n, spec.signed_p, spec.exponent, spec.rhs)
            expected = grid_sign_changes(spec.n, spec.signed_p, spec.exponent,
                                         float(spec.rhs))
            assert len(solve_trinomial(spec).roots) == expected

    def test_degree_up_to_300_grid_converges(self):
        # steep convex pieces used to be walked down by x/n per Newton step
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(1, 300)
            p, sign, m = rng.randint(1, 100), rng.choice(("plus", "minus")), rng.randint(0, 1000)
            if not (n == 1 and p == 1 and sign == "minus"):
                solve_trinomial(TrinomialSpec(n=n, p=p, p_sign=sign, m=m))
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            solve_euler(a, n, Fraction(rng.randint(0, 50), rng.randint(1, 12)), "constrained")
        solve_gm_general(300, 1000)

    def test_config_validation(self):
        spec = TrinomialSpec(n=3, m=2)
        for tolerance in (0.0, float("nan")):
            with pytest.raises(ValueError):
                solve_trinomial(spec, tolerance=tolerance)
        with pytest.raises(ValueError):
            TrinomialSpec(n=0)

    def test_an_infinite_tolerance_is_refused(self):
        # with it the first point of a bracket would stand for the root
        with pytest.raises(ValueError, match="tolerance must be finite"):
            solve_trinomial(TrinomialSpec(n=3, m=2), tolerance=float("inf"))


class TestGmGeneral:
    def test_sqrt3_positive_root(self):
        roots = solve_gm_general(2, 1)
        assert roots.roots[-1].value == pytest.approx(0.3660254037844386, abs=1e-10)

    def test_cubic_against_bisection_oracle(self):
        roots = solve_gm_general(3, 2)
        assert roots.values == [pytest.approx(PLASTICISH, abs=1e-9)]

    def test_m0(self):
        assert solve_gm_general(2, 0).values == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_tolerance_keyword(self):
        (record,) = solve_gm_general(3, 2, tolerance=1e-6).roots
        x = record.value
        assert abs(x ** 3 + x - 1) <= 1e-6 * (1 + abs(x) ** 3)

    def test_agrees_with_closed_form(self):
        for m in range(0, 21):
            numeric = solve_gm_general(2, m).values
            pair = generalized_gm(m)
            exact = sorted([float(pair.x1), float(pair.x2)])
            assert numeric == pytest.approx(exact, abs=1e-10)


class TestStakhov:
    def test_variant_a_n2_is_golden(self):
        assert solve_stakhov(2, "a") == pytest.approx(0.6180339887498949, abs=1e-9)

    def test_variant_a_n3(self):
        assert solve_stakhov(3, "a") == pytest.approx(PLASTICISH, abs=1e-9)

    def test_variant_b_n3(self):
        assert solve_stakhov(3, "b") == pytest.approx(SUPERGOLDENISH, abs=1e-9)

    def test_variant_a_n1_is_half(self):
        assert solve_stakhov(1, "a") == 0.5

    def test_variant_b_n1_is_zero(self):
        assert solve_stakhov(1, "b") == 0.0

    def test_no_root_isolation(self, monkeypatch):
        # the root's bracket is [0, 1]: no critical point, outer end or other root is needed
        def refuse(poly):
            raise AssertionError("solve_stakhov isolated roots")

        monkeypatch.setattr(trinomials, "_seeds", refuse)
        monkeypatch.setattr(trinomials, "_critical_signs", refuse)
        assert solve_stakhov(3, "a") == pytest.approx(PLASTICISH, abs=1e-9)
        assert solve_stakhov(3, "b") == pytest.approx(SUPERGOLDENISH, abs=1e-9)
        assert (solve_stakhov(1, "a"), solve_stakhov(1, "b")) == (0.5, 0.0)
        assert 0.99 < solve_stakhov(MAX_DEGREE, "b") < 1.0

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, MAX_DEGREE), st.sampled_from("ab"), st.integers(1, 30))
    @example(1, "a", 10)
    @example(1, "b", 10)
    @example(2, "b", 10)
    def test_agrees_with_the_root_of_the_full_solver(self, n, variant, digits):
        value = solve_stakhov(n, variant)
        assert 0.0 <= value <= 1.0
        roots = solve_trinomial(TrinomialSpec(
            n=n, m=2, lower_exponent="one" if variant == "a" else "n_minus_one"))
        assert stakhov_decimal(n, variant, value, digits) == roots.truncate(roots.roots[-1],
                                                                             digits)[0]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            solve_stakhov(2, "c")

    def test_decimal_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            stakhov_decimal(3, "c", SUPERGOLDENISH, 10)


class TestEuler:
    def test_constrained_reduces_to_golden_mean(self):
        euler_roots = solve_euler(0, 2, Fraction(1, 2), "constrained")
        gm_roots = solve_gm_general(2, 2)
        assert euler_roots.roots[-1].value == gm_roots.roots[-1].value
        assert euler_roots.roots[-1].value == pytest.approx(0.6180339887498949, abs=1e-9)

    def test_direct_even_pair(self):
        assert solve_euler(1, 2, 1, "direct").values == [-1.0, 1.0]

    def test_direct_odd_single(self):
        assert solve_euler(2, 3, 1, "direct").values == [1.0]

    def test_direct_zero_target(self):
        assert solve_euler(2, 4, Fraction(1, 2), "direct").values == [0.0]

    def test_direct_irrational_target(self):
        roots = solve_euler(0, 2, 1, "direct")  # b^2 = 2
        assert roots.values == pytest.approx([-2 ** 0.5, 2 ** 0.5], abs=1e-12)
        for record in roots.roots:
            assert record.residual <= 1e-12 * (1 + abs(record.value) ** 2)

    def test_direct_no_real_root(self):
        with pytest.raises(NoRealRoot):
            solve_euler(5, 2, 1, "direct")

    def test_constrained_fractional_target(self):
        roots = solve_euler(0, 3, Fraction(1, 3), "constrained")  # b^3 + b = 1
        assert roots.values == [pytest.approx(PLASTICISH, abs=1e-9)]

    def test_constrained_negative_target(self):
        roots = solve_euler(0, 1, -1, "constrained")  # 2b = -1
        assert roots.values == [-0.5]

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            solve_euler(0, 2, 1, "sideways")


class TestIterationBudget:
    """Refinement steps per root: the step in log coordinates converges in a few where one
    term of f dominates, as x**n does near 1 at high degree."""

    @staticmethod
    def _iterations(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            assert run([*argv.split(), "--format", "json"]) == 0
        return [r["iterations"] for r in json.loads(out.getvalue())["results"]]

    @pytest.mark.parametrize("argv, budget", [
        ("solve --n 273 --m 2", 8),
        ("solve --n 164 --m 3", 10),
        ("euler --a=0 --n 93 --x=730/93 --mode direct", 8),
        # x3 lies 3.4e-9 below the exact root x2 = -290885574, within an ulp of it, so f is
        # nearly (x - x2)**2 * (x - x1) between the midpoint of (-2**30, x2) and x3: each
        # Newton step halves the distance to x3, and the stop rule takes 21 of them
        ("mmf --n 3 --p 253843251483928431 --sign minus --m 98452453218571831816910340", 21),
    ])
    def test_pinned(self, argv, budget):
        assert max(self._iterations(argv)) <= budget

    @pytest.mark.parametrize("argv", [
        # roots near 5e-297 and 5e-129, within a factor 2 of the outer end 2**t, where the
        # map x <- (rhs - x**3)/c lands from the midpoint (933 and 376 steps by bisection)
        "mmf --n 3 --p 1" + "0" * 296 + " --sign plus --m 1",
        "mmf --n 3 --p 1" + "0" * 128 + " --sign plus --m 1",
        # x**222 underflows at the midpoint of the positive root's bracket, where the map
        # x <- (1 - x)**(1/222) starts; from the negative one's it contracts by about 400
        "solve --n 222 --m 2",
    ])
    def test_first_points_from_fixed_point_maps(self, argv):
        assert max(self._iterations(argv)) <= 4

    def test_the_log_step_needs_x_n_and_w_of_one_sign(self):
        # x**297 + 80x = 57 has its root near 57/80, where w = 57 - 80x changes sign while
        # x**297 is about 1e-44 > 0; a step from ln|x**297/w| there costs 6 more iterations
        assert max(self._iterations("mmf --n 297 --p 80 --sign plus --m 114")) <= 4

    def test_a_map_that_contracts_by_less_than_4_is_not_taken(self):
        # x**16 + 44x**15 = 333/2 has a root near 1.09, where 44x**15 dominates and the map
        # x <- ((333/2 - x**16)/44)**(1/15) contracts by about 40.  At 1, the midpoint of the
        # root's bracket (0, 2), the power's map contracts by only 3
        spec = TrinomialSpec(16, 44, "plus", 333, "n_minus_one")
        [root] = [r for r in solve_trinomial(spec).roots if r.value > 0]
        assert root.bracket == (0.0, 2.0) and root.iterations <= 3

    def test_a_first_point_on_a_bracket_end_moves_one_ulp_inside(self):
        # x**151 + x**150 = 1 on (0, 1): the power's map from the midpoint rounds onto the end
        # 1, so refinement starts from the double below it; from the midpoint it takes 8 steps
        poly = trinomials._stakhov_poly(151, "b")
        assert trinomials._first_point(poly, 0.0, 1.0) == math.nextafter(1.0, 0.0)
        assert trinomials._refine(poly, 0.0, 1.0, -1, trinomials.TOLERANCE)[2] <= 6

    def test_benchmark_corpus(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "corpus", Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py")
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        counts, refine = [], trinomials._refine

        def counted(*args):
            result = refine(*args)
            counts.append(result[2])
            return result

        monkeypatch.setattr(trinomials, "_refine", counted)
        for argv in sorted({tuple(op["argv"]) for seed in (1, 2, 3)
                            for op in corpus.generate("trinomial", seed)}):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                run(list(argv))
        assert len(counts) > 3000 and max(counts) <= 10


class TestDegreeBound:
    """Every path that builds the polynomial refuses a degree above MAX_DEGREE."""

    @pytest.mark.parametrize("call", [
        lambda n: solve_trinomial(TrinomialSpec(n=n, p=3, p_sign="minus", m=3)),
        lambda n: solve_euler(0, n, Fraction(1, n), "direct"),
        lambda n: solve_euler(0, n, 1, "constrained"),
        lambda n: stakhov_decimal(n, "a", 0.5, 10),
        lambda n: solve_stakhov(n, "b"),
    ])
    def test_above_the_bound(self, call):
        with pytest.raises(InputTooLarge):
            call(MAX_DEGREE + 1)
