"""Exact surd arithmetic, decimal rendering and continued fractions."""

import random
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldmean import (
    InputTooLarge,
    MixedRadicands,
    NonPositive,
    QuadraticSurd,
    continued_fraction_of,
    generalized_gm,
    metallic_mean,
    surd_compare,
    to_decimal,
)
from goldmean import surds
from goldmean.cli import run
from goldmean.surds import MAX_RADICAND, _split_square
from oracles import float_cf_terms, split_square_reference, truncate_mpf

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


_RATS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))


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
