"""Exact surd arithmetic, decimal rendering and continued fractions."""

import random
import re
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import mpmath
import numpy
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goldmean import (
    ContinuedFraction,
    InputTooLarge,
    MixedRadicands,
    NonPositive,
    QuadraticSurd,
    continued_fraction_of,
    generalized_gm,
    metallic_mean,
    solve_euler,
    surd_compare,
    to_decimal,
)
from goldmean import surds
from goldmean.cli import run
from goldmean.surds import MAX_CF_TERMS, MAX_RADICAND, _root_parts, _split_square
from oracles import (continued_fraction_reference, float_cf_terms, split_square_reference,
                     surd_parts_reference, truncate_mpf)

GOLDEN = QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)       # (-1+sqrt5)/2
GOLDEN_CONJ = QuadraticSurd(Fraction(-1, 2), Fraction(-1, 2), 5)  # (-1-sqrt5)/2


def random_surd(rnd, radicand=None):
    if radicand is None:
        radicand = rnd.choice([0, 2, 3, 5, 6, 7, 10])
    a = Fraction(rnd.randint(-12, 12), rnd.randint(1, 9))
    b = Fraction(rnd.randint(-12, 12), rnd.randint(1, 9))
    return QuadraticSurd(a, b, radicand)


class TestNormalization:
    def test_perfect_square_folds_to_rational(self):
        s = QuadraticSurd(0, 1, 9)
        assert (s.rat, s.coeff, s.radicand) == (3, 0, 0)

    def test_square_factor_extraction(self):
        s = QuadraticSurd(0, Fraction(2, 4), 12)
        assert (s.rat, s.coeff, s.radicand) == (0, 1, 3)

    def test_fraction_reduction(self):
        s = QuadraticSurd(Fraction(2, 4), Fraction(2, 4), 5)
        assert (s.rat, s.coeff, s.radicand) == (Fraction(1, 2), Fraction(1, 2), 5)

    def test_zero_is_canonical(self):
        assert (QuadraticSurd().rat, QuadraticSurd().coeff, QuadraticSurd().radicand) == (0, 0, 0)
        z = QuadraticSurd(0, 0, 7)
        assert z.radicand == 0

    def test_radicand_is_square_free(self):
        rnd = random.Random(7)
        for _ in range(300):
            s = random_surd(rnd, rnd.randint(0, 400))
            d = s.radicand
            f = 2
            while f * f <= d:
                assert d % (f * f) != 0
                f += 1
            if s.coeff == 0:
                assert s.radicand == 0

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            QuadraticSurd(0.5, 0, 0)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadraticSurd(0, 1, -5)


class TestArithmetic:
    def test_conjugate_sum_is_minus_one(self):
        assert GOLDEN + GOLDEN_CONJ == -1

    def test_conjugate_product_is_minus_one(self):
        assert GOLDEN * GOLDEN_CONJ == -1

    def test_sqrt3_conjugate_product(self):
        a = QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 3)
        b = QuadraticSurd(Fraction(-1, 2), Fraction(-1, 2), 3)
        assert a * b == Fraction(-1, 2)

    def test_mixed_radicands_rejected(self):
        sqrt2 = QuadraticSurd(0, 1, 2)
        sqrt3 = QuadraticSurd(0, 1, 3)
        for op in (lambda: sqrt2 + sqrt3, lambda: sqrt2 - sqrt3,
                   lambda: sqrt2 * sqrt3, lambda: sqrt2 / sqrt3):
            with pytest.raises(MixedRadicands):
                op()

    def test_rational_operand_joins_any_field(self):
        sqrt2 = QuadraticSurd(0, 1, 2)
        assert (sqrt2 + 1) - 1 == sqrt2
        assert sqrt2 * 2 / 2 == sqrt2
        assert Fraction(1, 2) + sqrt2 == QuadraticSurd(Fraction(1, 2), 1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GOLDEN / QuadraticSurd()

    def test_power(self):
        silver = QuadraticSurd(1, 1, 2)
        assert silver ** 2 == QuadraticSurd(3, 2, 2)
        assert silver ** 0 == 1
        assert silver ** -1 == QuadraticSurd(-1, 1, 2)  # 1/(1+sqrt2) = sqrt2 - 1

    def test_field_axioms_randomized(self):
        rnd = random.Random(42)
        for _ in range(200):
            d = rnd.choice([2, 3, 5, 7])
            x, y, z = (random_surd(rnd, d) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == 0
            if y.sign() != 0:
                assert y * (QuadraticSurd(1) / y) == 1
                assert (x / y) * y == x


class TestComparison:
    def test_examples(self):
        assert GOLDEN > 0
        assert QuadraticSurd(Fraction(-1, 2), Fraction(-1, 2), 3) < 0
        phi = QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)
        assert surd_compare(phi, phi) == 0

    def test_cross_field_comparison(self):
        sqrt2 = QuadraticSurd(0, 1, 2)
        sqrt3 = QuadraticSurd(0, 1, 3)
        assert sqrt2 < sqrt3
        assert QuadraticSurd(1, 1, 2) > QuadraticSurd(0, 1, 5)   # 2.41 > 2.23
        assert QuadraticSurd(2, -1, 2) < QuadraticSurd(0, 1, 3)  # 0.59 < 1.73

    def test_compare_agrees_with_decimals(self):
        rnd = random.Random(99)
        for _ in range(200):
            x, y = random_surd(rnd), random_surd(rnd)
            dx, dy = to_decimal(x, 30), to_decimal(y, 30)
            if dx != dy:
                assert (Decimal(dx) < Decimal(dy)) == (surd_compare(x, y) < 0)

    def test_ordering_consistency(self):
        rnd = random.Random(3)
        for _ in range(200):
            x, y = random_surd(rnd), random_surd(rnd)
            c = surd_compare(x, y)
            assert c in (-1, 0, 1)
            assert (x == y) == (c == 0)
            assert (x < y) == (c < 0)
            assert surd_compare(y, x) == -c

    def test_abs(self):
        assert abs(GOLDEN_CONJ) == -GOLDEN_CONJ
        assert abs(GOLDEN) == GOLDEN


class TestDecimal:
    def test_golden_mean_seven_digits(self):
        assert to_decimal(GOLDEN, 7) == "0.6180339"

    def test_sqrt3_case_seven_digits(self):
        x1 = QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 3)
        assert to_decimal(x1, 7) == "0.3660254"

    def test_rational_zero_padding(self):
        assert to_decimal(Fraction(3, 4), 5) == "0.75000"

    def test_negative_truncates_toward_zero(self):
        assert to_decimal(GOLDEN_CONJ, 7) == "-1.6180339"

    def test_prefix_property(self):
        rnd = random.Random(17)
        for _ in range(150):
            v = random_surd(rnd)
            n = rnd.randint(1, 40)
            assert to_decimal(v, n + 5).startswith(to_decimal(v, n))

    def test_digit_bounds(self):
        with pytest.raises(ValueError):
            to_decimal(GOLDEN, 0)
        with pytest.raises(ValueError):
            to_decimal(GOLDEN, 1001)

    def test_known_long_expansion(self):
        # sqrt(2) to 20 digits
        assert to_decimal(QuadraticSurd(0, 1, 2), 20) == "1.41421356237309504880"


class TestContinuedFractions:
    def test_golden_mean(self):
        phi = QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)
        cf = continued_fraction_of(phi, 50)
        assert cf.initial == (1,) and cf.period == (1,) and not cf.truncated

    def test_silver_mean(self):
        cf = continued_fraction_of(QuadraticSurd(1, 1, 2), 50)
        assert cf.initial == (2,) and cf.period == (2,)

    def test_sqrt3_conjugate_against_float_oracle(self):
        v = QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 3)
        cf = continued_fraction_of(v, 50)
        assert cf.initial == (0,) and cf.period == (2, 1)
        assert cf.terms(12) == float_cf_terms(float(v), 12)

    def test_metallic_family_period(self):
        for p in range(1, 11):
            cf = continued_fraction_of(metallic_mean(p, 1), 50)
            assert cf.initial == (p,)
            assert cf.period == (p,)

    def test_rational_terminates(self):
        cf = continued_fraction_of(Fraction(3, 4), 50)
        assert cf.initial == (0, 1, 3) and cf.period == () and not cf.truncated

    def test_rational_truncation_flag(self):
        # 6765/4181 = F_20/F_19 needs 19 terms
        cf = continued_fraction_of(Fraction(6765, 4181), 5)
        assert cf.truncated and cf.period == ()
        assert cf.initial == (1, 1, 1, 1, 1)

    def test_irrational_truncation_flag(self):
        cf = continued_fraction_of(QuadraticSurd(0, 1, 2), 1)
        assert cf.truncated and cf.initial == (1,) and cf.period == ()

    def test_non_positive_rejected(self):
        for bad in (QuadraticSurd(), QuadraticSurd(-1), GOLDEN_CONJ):
            with pytest.raises(NonPositive):
                continued_fraction_of(bad, 10)

    def test_terms_unrolls_period(self):
        cf = continued_fraction_of(QuadraticSurd(1, 1, 2), 50)
        assert cf.terms(6) == [2, 2, 2, 2, 2, 2]

    def test_terms_refuses_a_negative_count(self):
        cf = ContinuedFraction((1, 2, 3), (4, 5))
        assert cf.terms(0) == []
        assert cf.terms(7) == [1, 2, 3, 4, 5, 4, 5]
        with pytest.raises(ValueError):
            cf.terms(-1)  # initial[:-1] would quietly give [1, 2]


_RATS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))
_FIELD_SURDS = st.builds(QuadraticSurd, _RATS, _RATS, st.sampled_from([0, 2, 3, 5, 7, 12, 1001]))


class TestPower:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_FIELD_SURDS, st.integers(0, 16))
    def test_power_is_the_repeated_product(self, x, n):
        product = QuadraticSurd(1)
        for _ in range(n):
            product = product * x
        assert x ** n == product
        if x:
            assert x ** -n == 1 / x ** n

    def test_zero_to_a_negative_power_raises(self):
        with pytest.raises(ZeroDivisionError):
            QuadraticSurd() ** -1
        assert QuadraticSurd() ** 0 == 1

    def test_products_made(self, monkeypatch):
        made = []
        real = QuadraticSurd.__mul__
        monkeypatch.setattr(QuadraticSurd, "__mul__", lambda a, b: made.append(1) or real(a, b))
        x = QuadraticSurd(1, 1, 2)
        for n in range(1, 65):
            made.clear()
            x ** n
            # one square per bit after the highest, one product per set bit after the first;
            # so a square is one product
            assert len(made) == n.bit_length() - 1 + bin(n).count("1") - 1, n


@st.composite
def _surds_by_route(draw):
    """A surd from the constructor, from ``sqrt`` or from a chain of ``+ - * / **``."""
    d = draw(st.sampled_from([2, 3, 5, 8, 12, 50, 1001]))
    leaf = st.one_of(
        st.builds(QuadraticSurd, _RATS, _RATS, st.just(d)),
        st.builds(lambda k, m: QuadraticSurd.sqrt(Fraction(d * k * k, m * m)),
                  st.integers(0, 30), st.integers(1, 30)),
        _RATS.map(QuadraticSurd),
    )
    x = draw(leaf)
    for op in draw(st.lists(st.sampled_from("+-*/^"), max_size=5)):
        if op == "^":
            k = draw(st.integers(-3, 3))
            x = x ** k if x or k >= 0 else x
            continue
        y = draw(leaf)
        if op == "+":
            x = x + y
        elif op == "-":
            x = x - y
        elif op == "*":
            x = x * y
        elif y:
            x = x / y
    return x


class TestPresentation:
    def test_str_forms(self):
        assert str(GOLDEN) == "(-1 + √5)/2"
        assert str(QuadraticSurd(1, 1, 2)) == "1 + √2"
        assert str(QuadraticSurd(0, 1, 3)) == "√3"
        assert str(QuadraticSurd(Fraction(3, 2))) == "3/2"

    def test_float_conversion(self):
        assert float(GOLDEN) == pytest.approx(0.6180339887498949, abs=1e-15)

    def test_hash_matches_rational_when_rational(self):
        assert hash(QuadraticSurd(3)) == hash(3)
        assert QuadraticSurd(0, 2, 9) == 6

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_surds_by_route())
    def test_every_route_gives_the_canonical_value(self, x):
        rebuilt = QuadraticSurd(x.rat, x.coeff, x.radicand)
        assert rebuilt == x
        assert hash(rebuilt) == hash(x)
        if x.is_rational:
            assert hash(x) == hash(x.rat)
        assert eval(repr(x), {"QuadraticSurd": QuadraticSurd, "Fraction": Fraction}) == x


def _primes(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for f in range(2, int(hi ** 0.5) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytearray(len(range(f * f, hi, f)))
    return [p for p in range(lo, hi) if sieve[p]]


#: each crafted product below has a prime factor above its cube root, left to the cofactor test
_BIG_PRIMES = _primes(1000, 60000)
_big = st.sampled_from(_BIG_PRIMES)
_CRAFTED = st.one_of(
    st.integers(1, 10 ** 9),
    st.builds(lambda p: p * p, _big),
    st.builds(lambda p, q: p * q, _big, _big),
    st.builds(lambda p, q: p * p * q, _big, _big),
    st.builds(lambda r, p: r * p * p, st.integers(1, 999), _big),
)


class TestSplitSquare:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_CRAFTED)
    def test_matches_trial_division_to_the_square_root(self, n):
        root, free = _split_square(n)
        assert root * root * free == n
        assert (root, free) == split_square_reference(n)

    @pytest.mark.parametrize("n,expected", [
        (1, (1, 1)),
        (999983 * 1000003, (1, 999983 * 1000003)),
        (999983 ** 2, (999983, 1)),
        (12 * 999983 ** 2, (2 * 999983, 3)),
        (999983 ** 2 * 1000003, (999983, 1000003)),
        (10 ** 18 - 11, (1, 10 ** 18 - 11)),                   # prime
        (999999937 * 1000000007, (1, 999999937 * 1000000007)),  # two primes near 1e9
        ((10 ** 9 + 7) ** 2, (10 ** 9 + 7, 1)),
        (2 ** 59, (2 ** 29, 2)),
    ])
    def test_crafted_near_the_bound(self, n, expected):
        assert _split_square(n) == expected


class TestNoSplitInFieldOperations:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen: list[int] = []
        real = surds._split_square
        monkeypatch.setattr(surds, "_split_square", lambda n: seen.append(n) or real(n))
        return seen

    def test_field_operations_make_no_split(self, calls):
        x = QuadraticSurd(Fraction(1, 3), Fraction(2, 7), 4000000007)
        y = QuadraticSurd(Fraction(-5, 2), Fraction(1, 9), 4000000007)
        assert calls == [4000000007, 4000000007]
        calls.clear()
        results = [x + y, x - y, x * y, x / y, x ** 5, x ** -3, x.conjugate(), -x,
                   x + 1, 2 * x, Fraction(1, 2) - x, 3 / x, x * x.conjugate()]
        assert calls == []
        assert results[-1].is_rational and results[2] * results[3] == x * x

    def test_metallic_mean_splits_once(self, calls):
        mean = metallic_mean(1, 10 ** 9)
        assert calls == [4 * 10 ** 9 + 1]
        assert mean.radicand == 4 * 10 ** 9 + 1

    @pytest.mark.parametrize("m", [0, 1, 2, 4, 12, 10 ** 6, 10 ** 15])
    def test_generalized_gm_splits_once(self, calls, m):
        generalized_gm(m)
        assert calls == [2 * m + 1]


class TestRadicandBound:
    def test_constructor_and_sqrt_reject_above_the_bound(self):
        with pytest.raises(InputTooLarge):
            QuadraticSurd(0, 1, MAX_RADICAND + 1)
        with pytest.raises(InputTooLarge):
            QuadraticSurd.sqrt(Fraction(MAX_RADICAND + 1, 1))
        with pytest.raises(InputTooLarge):
            QuadraticSurd.sqrt(Fraction(1, MAX_RADICAND + 1))

    def test_the_bound_itself_is_normalized(self):
        assert QuadraticSurd(0, 1, MAX_RADICAND) == 10 ** 9
        prime = QuadraticSurd.sqrt(10 ** 18 - 11)
        assert (prime.coeff, prime.radicand) == (1, 10 ** 18 - 11)

    def test_sqrt_bounds_numerator_and_denominator_separately(self):
        root = QuadraticSurd.sqrt(Fraction(10 ** 9 + 1, 10 ** 9))
        assert root * root == Fraction(10 ** 9 + 1, 10 ** 9)
        assert (root.coeff, root.radicand) == (Fraction(1, 10 ** 5), 10 ** 10 + 10)

    @given(st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_sqrt_is_the_surd_of_the_joint_radicand(self, q):
        joint = QuadraticSurd(0, Fraction(1, q.denominator), q.numerator * q.denominator)
        root = QuadraticSurd.sqrt(q)
        assert (root.rat, root.coeff, root.radicand) == (joint.rat, joint.coeff, joint.radicand)

    def test_zero_coefficient_needs_no_split(self):
        assert QuadraticSurd(5, 0, MAX_RADICAND * 10) == 5

    def test_cli_reports_input_too_large(self, capsys):
        assert run(["metallic", "--p", "1", "--q", "1e20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: input-too-large:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("p, q", [("1", "1" + "0" * 4000 + "e1000"), ("1" + "0" * 4000, "1")],
                             ids=["q of 5001 digits", "p of 4001 digits"])
    def test_cli_names_a_long_radicand_by_its_size(self, capsys, p, q):
        assert run(["metallic", "--p", p, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: input-too-large: radicand of about ")
        assert captured.err.count("\n") == 1
        assert "Exceeds the limit" not in captured.err

    def test_cli_large_radicand_is_exact(self, capsys):
        start = time.perf_counter()
        assert run(["metallic", "--p", "1", "--q", "1e14", "--digits", "40"]) == 0
        assert time.perf_counter() - start < 1.0
        with mpmath.workdps(80):
            mean = (1 + mpmath.sqrt(mpmath.mpf(4 * 10 ** 14 + 1))) / 2
            expected = truncate_mpf(mean, 40)
        assert capsys.readouterr().out == (
            f"metallic mean (p=1, q=100000000000000) = (1 + √400000000000001)/2 = {expected}\n")

    def test_cli_small_rational_q_is_exact(self, capsys):
        # p^2 + 4q = 2500000001/2500000000: each part fits the bound, their product does not
        assert run(["metallic", "--p", "1", "--q", "1/10000000000", "--digits", "40"]) == 0
        with mpmath.workdps(80):
            mean = (1 + mpmath.sqrt(1 + 4 / mpmath.mpf(10 ** 10))) / 2
            expected = truncate_mpf(mean, 40)
        assert capsys.readouterr().out.endswith(f" = {expected}\n")


class TestRootParts:
    @pytest.mark.parametrize("num, den, parts", [
        (0, 1, (0, 1, 1)),
        (2, 3, (1, 3, 6)),                      # sqrt(2/3) = sqrt6/3
        (45, 8, (3, 4, 10)),                    # sqrt(45/8) = 3*sqrt10/4
        (MAX_RADICAND, 1, (10 ** 9, 1, 1)),
        (1, MAX_RADICAND, (1, 10 ** 9, 1)),
        # 10^18 - 1 = 9^2 * 12345679012345679, a square-free cofactor
        (MAX_RADICAND - 1, MAX_RADICAND, (9, 10 ** 9, 12345679012345679)),
        (MAX_RADICAND, MAX_RADICAND - 1, (10 ** 9, 9 * 12345679012345679, 12345679012345679)),
    ])
    def test_parts(self, num, den, parts):
        assert _root_parts(num, den) == parts

    @pytest.mark.parametrize("num, den", [(MAX_RADICAND + 1, 1), (1, MAX_RADICAND + 1),
                                          (MAX_RADICAND + 1, MAX_RADICAND)])
    def test_above_the_bound(self, num, den):
        with pytest.raises(InputTooLarge, match=f"radicand {MAX_RADICAND + 1} exceeds"):
            _root_parts(num, den)

    @given(st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_square_of_the_parts(self, q):
        a, c, d = _root_parts(q.numerator, q.denominator)
        assert Fraction(a * a * d, c * c) == q
        assert d == 1 or split_square_reference(d) == (1, d)


class TestContinuedFractionBound:
    def test_the_bound_is_expanded(self):
        cf = continued_fraction_of(QuadraticSurd(0, 1, 10 ** 18 - 11), MAX_CF_TERMS)
        assert cf.truncated and len(cf.initial) == MAX_CF_TERMS

    def test_the_expansion_keeps_no_state_per_term(self):
        # a dict of every (P, Q) state peaks near 2 MB here; the terms alone take about 0.25 MB
        v = QuadraticSurd(0, 1, 10 ** 18 - 11)
        tracemalloc.start()
        try:
            continued_fraction_of(v, MAX_CF_TERMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("value", [Fraction(1, 3), GOLDEN + 1])
    def test_above_the_bound(self, value):
        with pytest.raises(InputTooLarge, match=f"exceed the bound {MAX_CF_TERMS}"):
            continued_fraction_of(value, MAX_CF_TERMS + 1)


@st.composite
def _cf_surds(draw):
    """Positive irrationals (p + q*sqrt(d))/den with q < 0 whose den does not divide d*q**2 - p**2,
    so that the expansion starts with Q < 0 and needs the Q | N - P**2 fix-up."""
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 13, 19, 61, 1001, 999983]))
    coeff = draw(st.builds(Fraction, st.integers(-60, -1), st.integers(1, 40)))
    den = draw(st.integers(1, 40))
    # the least numerator over den above |coeff|*sqrt(d)
    least = isqrt(den * den * coeff.numerator ** 2 * d // coeff.denominator ** 2) + 1
    v = QuadraticSurd(Fraction(draw(st.integers(least, least + 200)), den), coeff, d)
    assume((v._q * v._q * v._d - v._p * v._p) % v._den != 0)
    return v


class TestContinuedFractionPeriod:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_cf_surds(), st.integers(1, 300))
    def test_matches_the_dict_reference(self, v, max_terms):
        assert v > 0
        cf = continued_fraction_of(v, max_terms)
        assert tuple(cf) == continued_fraction_reference(*_parts(v), max_terms)

    # expected: sympy's continued_fraction_periodic(p, q, d, s=-1) for (p - sqrt(d))/q,
    # with (p, q, d) = (4, 5, 3), (21, 6, 52) and (70, 21, 180)
    @pytest.mark.parametrize("v, expected", [
        (QuadraticSurd(Fraction(4, 5), Fraction(-1, 5), 3), [0, 2, [4, 1, 7, 1]]),
        (QuadraticSurd(Fraction(7, 2), Fraction(-1, 3), 13), [2, 3, [2, 1, 4, 1, 2, 2, 1, 1, 1, 2]]),
        (QuadraticSurd(Fraction(10, 3), Fraction(-2, 7), 5), [2, 1, 2, [3, 1, 1, 1, 61, 1, 34, 4]]),
    ], ids=["(4-sqrt3)/5", "(21-sqrt52)/6", "(70-sqrt180)/21"])
    def test_pinned_against_sympy(self, v, expected):
        cf = continued_fraction_of(v, 100)
        assert list(cf.initial) + [list(cf.period)] == expected and not cf.truncated


_EXACT = st.one_of(st.integers(-10 ** 9, 10 ** 9),
                   st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 5)))
_RADICANDS = st.one_of(
    st.sampled_from([0, 1, MAX_RADICAND]),
    st.builds(lambda k: k * k, st.integers(2, 10 ** 6)),
    st.builds(lambda k, s: k * k * s, st.integers(2, 1000), st.integers(2, 10 ** 6)),
    st.integers(0, 10 ** 12),
)


def _parts(x: QuadraticSurd) -> tuple[int, int, int, int]:
    return x._p, x._q, x._den, x._d


class TestOneNormalizer:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_EXACT, _EXACT, _RADICANDS)
    def test_constructor_matches_the_fraction_reference(self, rat, coeff, radicand):
        assert _parts(QuadraticSurd(rat, coeff, radicand)) == surd_parts_reference(rat, coeff, radicand)

    @pytest.mark.parametrize("args, parts", [
        ((3, 2, 5, 1), (1, 0, 1, 0)),    # (3 + 2*sqrt(1))/5
        ((4, -6, -4, 1), (1, 0, 2, 0)),  # and a negative denominator
        ((6, 4, 2, 5), (3, 2, 1, 5)),
        ((6, 0, 4, 5), (3, 0, 2, 0)),
    ])
    def test_canonical_folds(self, args, parts):
        assert _parts(QuadraticSurd._canonical(*args)) == parts

    def test_the_bound_needs_a_nonzero_coefficient(self):
        text = f"radicand {MAX_RADICAND + 1} exceeds the bound {MAX_RADICAND} of square-free splitting"
        with pytest.raises(InputTooLarge, match=f"^{re.escape(text)}$"):
            QuadraticSurd(Fraction(1, 3), 2, MAX_RADICAND + 1)
        assert _parts(QuadraticSurd(Fraction(1, 3), 0, MAX_RADICAND + 1)) == (1, 0, 3, 0)

    @pytest.mark.parametrize("radicand", [2.5, Fraction(9, 2), "5"], ids=repr)
    def test_a_non_integer_radicand_is_refused(self, radicand):
        with pytest.raises(TypeError):
            QuadraticSurd(0, 1, radicand)

    def test_an_integer_radicand_of_another_type_is_taken(self):
        x = QuadraticSurd(0, 1, numpy.int64(8))
        assert _parts(x) == (0, 2, 1, 2) and type(x.radicand) is int
        assert QuadraticSurd(1, 1, True) == 2

    @pytest.mark.parametrize("compare", ["__lt__", "__le__", "__gt__", "__ge__"])
    def test_a_comparison_coerces_its_operand_once(self, monkeypatch, compare):
        seen = []
        real = surds._coerce
        monkeypatch.setattr(surds, "_coerce", lambda v: seen.append(v) or real(v))
        assert getattr(GOLDEN, compare)(Fraction(1, 2)) == (compare in ("__gt__", "__ge__"))
        assert seen == [Fraction(1, 2)]
        assert getattr(GOLDEN, compare)("1") is NotImplemented

    def test_a_non_integer_term_count_is_refused(self):
        with pytest.raises(TypeError):
            continued_fraction_of(metallic_mean(7, 3), 2.5)

    @pytest.mark.parametrize("build", [
        lambda: QuadraticSurd("1/3", "2", 5),
        lambda: QuadraticSurd(Decimal("0.1"), 1, 5),
        lambda: QuadraticSurd(0, 1.5, 5),
        lambda: metallic_mean(1, "2"),
        lambda: solve_euler("1/2", 2, "3", "direct"),
        lambda: solve_euler(0, 2, Decimal(3), "direct"),
        lambda: QuadraticSurd.sqrt("4"),
    ], ids=["str", "Decimal", "float", "metallic-str", "euler-str", "euler-Decimal", "sqrt-str"])
    def test_a_value_that_is_not_rational_is_refused(self, build):
        with pytest.raises(TypeError, match="exact types only"):
            build()

    def test_every_rational_type_is_taken(self):
        assert _parts(QuadraticSurd(True, numpy.int64(3), 5)) == (1, 3, 1, 5)
        assert _parts(QuadraticSurd(numpy.int8(-1), Fraction(1, 2), 5)) == (-2, 1, 2, 5)
        assert metallic_mean(1, numpy.int32(1)) == GOLDEN + 1


def _cf_by_field_arithmetic(value, max_terms: int):
    """``(initial, period, truncated)`` by x -> 1/(x - floor(x)) in QuadraticSurd arithmetic,
    floors from ``_floor_scaled(x, 1)``, the period found as the first complete quotient past
    the integer part that comes back, and closed only if it comes back before ``max_terms``."""
    terms, seen, x = [], {}, QuadraticSurd(value) if isinstance(value, Fraction) else value
    while True:
        whole = surds._floor_scaled(x, 1)
        terms.append(whole)
        if x == whole:
            return tuple(terms), (), False
        x = 1 / (x - whole)
        if x in seen and len(terms) < max_terms:
            return tuple(terms[:seen[x]]), tuple(terms[seen[x]:]), False
        if len(terms) == max_terms:
            return tuple(terms), (), True
        seen[x] = len(terms)


_POSITIVE = st.one_of(
    _cf_surds(),
    st.builds(metallic_mean, st.integers(1, 30), st.fractions(0, 10 ** 6, max_denominator=30)),
    st.builds(QuadraticSurd, st.integers(0, 50), st.integers(1, 50), st.integers(2, 10 ** 6)),
    st.fractions(Fraction(1, 10 ** 4), 10 ** 6, max_denominator=10 ** 4),
)


class TestContinuedFractionByFieldArithmetic:
    """The (P + sqrt(N))/Q recurrence, one pass per term, against complete quotients computed
    in the surd field."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_POSITIVE, st.integers(1, 120))
    def test_matches(self, v, max_terms):
        assume(v > 0)
        assert tuple(continued_fraction_of(v, max_terms)) == _cf_by_field_arithmetic(v, max_terms)

    # sqrt(13) = [3; (1, 1, 1, 1, 6)] closes its period with the 6th term, the golden mean
    # (1 + sqrt5)/2 = [1; (1)] with the 2nd: at max_terms equal to that count it is not closed
    @pytest.mark.parametrize("v, closing", [(QuadraticSurd(0, 1, 13), 6), (GOLDEN + 1, 2),
                                            (metallic_mean(3, Fraction(7, 5)), 4)])
    def test_a_period_closing_at_max_terms_is_truncated(self, v, closing):
        at = continued_fraction_of(v, closing)
        assert at.truncated and at.period == () and len(at.initial) == closing
        after = continued_fraction_of(v, closing + 1)
        assert not after.truncated and len(after.initial) + len(after.period) == closing
        assert tuple(at) == _cf_by_field_arithmetic(v, closing)
        assert tuple(after) == _cf_by_field_arithmetic(v, closing + 1)


#: primes checked by a primality test: near 10**9, and near 10**18 on both sides of the bound
_PRIMES_NEAR_1E9 = (999999929, 999999937, 1000000007, 1000000009)
_PRIMES_NEAR_1E18 = (10 ** 18 - 33, 10 ** 18 - 11, 10 ** 18 + 3)


def _square_free(n: int) -> bool:
    return all(n % (f * f) for f in range(2, isqrt(n) + 1))


class TestSplitSquareOverTheWheel:
    """``root**2 * free == n`` with ``free`` square-free, where the divisors come from the wheel."""

    @pytest.mark.parametrize("p", _PRIMES_NEAR_1E9 + _PRIMES_NEAR_1E18)
    def test_a_prime_is_free(self, p):
        assert _split_square(p) == (1, p)

    @pytest.mark.parametrize("p", [*_PRIMES_NEAR_1E9, *_BIG_PRIMES[:3], *_BIG_PRIMES[-3:]])
    def test_a_prime_square(self, p):
        assert _split_square(p * p) == (p, 1)
        assert _split_square(30 * p * p) == (p, 30)
        assert _split_square(7 ** 3 * p * p) == (7 * p, 7)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 9), st.integers(0, 7), st.integers(0, 7),
           st.sampled_from((1, 11, 13, 29, 31, 37, 49, 121, 143, 961)))
    def test_smooth(self, a, b, c, d, rest):
        n = 2 ** a * 3 ** b * 5 ** c * 7 ** d * rest
        root, free = _split_square(n)
        assert root * root * free == n and _square_free(free)
        assert (root, free) == split_square_reference(n)


#: the primes in 1031..1400, the first above 2**10: a product of them is left to the wheel
_WHEEL_PRIMES = _primes(1031, 1401)


def _product(factors: list[tuple[int, int]]) -> tuple[int, tuple[int, int]]:
    """n and its expected (root, free) from (prime, exponent) pairs of distinct primes."""
    n = root = free = 1
    for p, k in factors:
        n, root, free = n * p ** k, root * p ** (k // 2), free * p ** (k % 2)
    return n, (root, free)


def _wheel_products() -> list[list[tuple[int, int]]]:
    """Products of two to five wheel primes of every class mod 30, each cubed or not,
    up to 10**18: the classes rotate so each prime meets each other class."""
    by_class = {c: [p for p in _WHEEL_PRIMES if p % 30 == c] for c in (1, 7, 11, 13, 17, 19, 23, 29)}
    cases = []
    for shift in range(6):
        classes = list(by_class)
        for i, c in enumerate(classes):
            group = [by_class[classes[(i + j) % 8]][shift % len(by_class[classes[(i + j) % 8]])]
                     for j in range(5)]
            for exponents in ((1, 1, 1, 0, 0), (3, 1, 0, 0, 0), (2, 1, 0, 0, 0), (1, 2, 3, 0, 0),
                              (1, 1, 1, 1, 1), (3, 3, 0, 0, 0), (2, 2, 1, 0, 0), (1, 1, 2, 1, 0)):
                factors = [(p, k) for p, k in zip(group, exponents) if k]
                if _product(factors)[0] <= MAX_RADICAND:
                    cases.append(factors)
    return cases


class TestSplitSquareByGcds:
    """The primes below 2**10 go by gcds with their product, the rest by the wheel from 1027."""

    def test_every_n_up_to_10_to_the_5(self):
        for n in range(10 ** 5 + 1):
            assert _split_square(n) == split_square_reference(n), n

    def test_zero(self):
        assert _split_square(0) == (0, 1)
        assert QuadraticSurd.sqrt(0) == 0

    def test_the_small_primes_are_those_below_1024(self):
        product = 1
        for p in _primes(2, 1024):
            product *= p
        assert surds._SMALL_PRIMES == product

    @pytest.mark.parametrize("p", _WHEEL_PRIMES)
    def test_a_wheel_prime_cubed(self, p):
        # p**3 > 1024**3, so only the wheel finds p; the cofactor test alone would see no square
        assert _split_square(p ** 3) == (p, p)
        assert _split_square(p * p * 1409) == (p, 1409)  # 1409 is prime

    def test_products_in_every_class_mod_30(self):
        cases = _wheel_products()
        big = [factors for factors in cases if _product(factors)[0] >= 1024 ** 3]
        assert len(big) > 200
        assert {p % 30 for factors in big for p, k in factors if k} == {1, 7, 11, 13, 17, 19, 23, 29}
        for factors in cases:
            n, expected = _product(factors)
            assert _split_square(n) == expected, factors

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_WHEEL_PRIMES), st.integers(1, 3)),
                    min_size=1, max_size=6, unique_by=lambda pk: pk[0]),
           st.integers(0, 5), st.integers(0, 3))
    def test_small_and_wheel_primes_together(self, factors, a, b):
        n, expected = _product([*factors, (2, a), (3, b)])
        assume(n <= MAX_RADICAND)
        assert _split_square(n) == expected

    @pytest.mark.parametrize("n, expected", [
        (1024 ** 3, (2 ** 15, 1)),
        (1024 ** 3 - 1, (3, 7 * 11 * 31 * 151 * 331)),           # 3**2 * 7 * 11 * 31 * 151 * 331
        (1024 ** 3 + 1, (5, 13 * 41 * 61 * 1321)),              # 5**2 * 13 * 41 * 61 * 1321
        (1031 ** 3, (1031, 1031)),
        (1031 * 1033 * 1039, (1, 1031 * 1033 * 1039)),
        (10 ** 18 - 11, (1, 10 ** 18 - 11)),
        (999999937 ** 2, (999999937, 1)),
        (1000000007 ** 2, (1000000007, 1)),
        (1021 ** 6, (1021 ** 3, 1)),                                # the largest small prime
        (2 ** 59, (2 ** 29, 2)),
        (2 ** 2 * 3 ** 3 * 5 ** 4 * 7 ** 5 * 1021 ** 6, (2 * 3 * 25 * 49 * 1021 ** 3, 3 * 7)),
    ])
    def test_pinned(self, n, expected):
        root, free = expected
        assert root * root * free == n
        assert _split_square(n) == expected
