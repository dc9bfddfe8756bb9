"""Closed-form quadratic roots, metallic means, integer mean detection."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldmean import (
    InputTooLarge,
    NoRealRoots,
    QuadraticSpec,
    QuadraticSurd,
    generalized_gm,
    integer_metallic,
    metallic_mean,
    solve_quadratic,
    to_decimal,
)
from goldmean._exact import _as_fraction
from oracles import solve_quadratic_reference, sqrt_decimal_string


class TestSolveQuadratic:
    def test_golden_case(self):
        pair = solve_quadratic(QuadraticSpec(1, Fraction(1), "plus"))
        assert pair.x1 == QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)
        assert pair.x2 == QuadraticSurd(Fraction(-1, 2), Fraction(-1, 2), 5)
        assert pair.discriminant == 5

    def test_half_q_case(self):
        pair = solve_quadratic(QuadraticSpec(1, Fraction(1, 2), "plus"))
        assert to_decimal(pair.x1, 7) == "0.3660254"
        assert to_decimal(pair.x2, 7) == "-1.3660254"

    def test_double_root(self):
        pair = solve_quadratic(QuadraticSpec(2, Fraction(-1), "minus"))
        assert pair.x1 == pair.x2 == 1
        assert pair.discriminant == 0

    def test_no_real_roots(self):
        with pytest.raises(NoRealRoots):
            solve_quadratic(QuadraticSpec(1, Fraction(-1), "plus"))

    def test_x1_is_larger(self):
        rnd = random.Random(5)
        for _ in range(100):
            spec = QuadraticSpec(rnd.randint(1, 9), Fraction(rnd.randint(0, 30), 2),
                                 rnd.choice(["plus", "minus"]))
            pair = solve_quadratic(spec)
            assert pair.x1 >= pair.x2

    def test_vieta_randomized(self):
        rnd = random.Random(11)
        for _ in range(100):
            sign_name = rnd.choice(["plus", "minus"])
            spec = QuadraticSpec(rnd.randint(1, 10), Fraction(rnd.randint(0, 50), 2), sign_name)
            pair = solve_quadratic(spec)
            s = 1 if sign_name == "plus" else -1
            assert pair.x1 + pair.x2 == -s * spec.p
            assert pair.x1 * pair.x2 == -spec.q

    def test_p_must_be_positive(self):
        with pytest.raises(ValueError):
            QuadraticSpec(0, Fraction(1))


class TestSolveQuadraticAgainstReference:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 10 ** 6), st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 5),
           st.sampled_from(["plus", "minus"]))
    def test_roots_and_discriminant(self, p, a, b, p_sign):
        spec = QuadraticSpec(p, Fraction(a, b), p_sign)
        try:
            x1, x2, disc = solve_quadratic_reference(p, spec.q, spec.sign)
        except NoRealRoots as expected:
            with pytest.raises(NoRealRoots) as raised:
                solve_quadratic(spec)
            assert str(raised.value) == str(expected)
            return
        pair = solve_quadratic(spec)
        assert (pair.x1, pair.x2, pair.discriminant) == (x1, x2, disc)
        assert type(pair.discriminant) is Fraction

    def test_numerator_above_the_radicand_bound(self):
        with pytest.raises(InputTooLarge):
            solve_quadratic(QuadraticSpec(10 ** 9, Fraction(1), "plus"))


class TestGeneralizedGm:
    def test_m2_is_the_golden_mean(self):
        pair = generalized_gm(2)
        assert pair.x1 == QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5)
        assert to_decimal(pair.x1, 7) == "0.6180339"
        assert pair.discriminant == 5  # = 2m + 1

    def test_m3_per_sqrt7(self):
        pair = generalized_gm(3)
        assert pair.x1 == QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 7)
        assert to_decimal(pair.x1, 7) == "0.8228756"

    def test_m0(self):
        pair = generalized_gm(0)
        assert pair.x1 == 0 and pair.x2 == -1

    def test_discriminant_is_odd_radicand(self):
        for m in range(0, 30):
            assert generalized_gm(m).discriminant == 2 * m + 1

    def test_cathetus_identity(self):
        for m in range(1, 51):
            pair = generalized_gm(m)
            assert abs(pair.x1) + abs(pair.x2) == QuadraticSurd.sqrt(2 * m + 1)
            assert (abs(pair.x1) + abs(pair.x2)) ** 2 == 2 * m + 1
            assert pair.x1 ** 2 + pair.x2 ** 2 == m + 1

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            generalized_gm(-1)

    @pytest.mark.parametrize("m", [Fraction(5), Fraction(7, 2), 2.0, "3"])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(TypeError):
            generalized_gm(m)


class TestMetallicMean:
    def test_golden(self):
        assert metallic_mean(1, 1) == QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)

    def test_silver_thirty_digits(self):
        silver = metallic_mean(2, 1)
        assert silver == QuadraticSurd(1, 1, 2)
        assert to_decimal(silver, 30) == sqrt_decimal_string(1, 2, 30)

    def test_copper_is_two(self):
        assert metallic_mean(1, 2) == 2

    def test_defining_identity(self):
        for p in range(1, 8):
            for q in range(0, 8):
                x = metallic_mean(p, q)
                assert x ** 2 == p * x + q

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            metallic_mean(1, -1)

    # metallic_mean builds x1 alone; it is the x1 of solve_quadratic, component by component
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 10 ** 4),
           st.one_of(st.integers(0, 10 ** 12),
                     st.fractions(min_value=0, max_value=10 ** 9, max_denominator=10 ** 4),
                     st.builds(Fraction, st.integers(0, 10 ** 9), st.integers(1, 1000).map(
                         lambda k: k * k))))
    def test_is_the_x1_of_solve_quadratic(self, p, q):
        mean = metallic_mean(p, q)
        x1 = solve_quadratic(QuadraticSpec(p, q, "minus")).x1
        assert (mean._p, mean._q, mean._den, mean._d) == (x1._p, x1._q, x1._den, x1._d)

    @pytest.mark.parametrize("p, q", [(1, 0), (7, 0), (3, Fraction(0, 5)), (1, Fraction(1, 4)),
                                      (2, Fraction(9, 4)), (5, Fraction(7, 16)), (1, 10 ** 12)])
    def test_zero_and_square_denominators(self, p, q):
        mean = metallic_mean(p, q)
        assert mean == solve_quadratic(QuadraticSpec(p, q, "minus")).x1
        assert mean ** 2 == p * mean + q


class TestIntegerMetallic:
    def test_examples(self):
        assert integer_metallic(2) == (1, 2)
        assert integer_metallic(20) == (4, 5)
        assert integer_metallic(5) is None

    def test_k_scan(self):
        for k in range(0, 51):
            q = k * (k + 1)
            assert integer_metallic(q) == (k, k + 1)
            assert integer_metallic(q + 1) is None

    def test_pair_matches_root_magnitudes(self):
        for k in range(0, 20):
            q = k * (k + 1)
            pair = solve_quadratic(QuadraticSpec(1, Fraction(q), "minus"))
            assert pair.x1 == k + 1 and pair.x2 == -k
            assert integer_metallic(q) == (k, k + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            integer_metallic(-3)


class TestSolveQuadraticBuildsTwoSurds:
    @pytest.fixture
    def built(self, monkeypatch):
        seen: list[tuple] = []
        real = QuadraticSurd._canonical.__func__

        def counting(cls, *parts):
            seen.append(parts)
            return real(cls, *parts)

        monkeypatch.setattr(QuadraticSurd, "_canonical", classmethod(counting))
        return seen

    @pytest.mark.parametrize("p, q, p_sign", [
        (1, Fraction(1), "plus"),           # irrational
        (3, Fraction(7, 12), "minus"),      # reducible p^2*b + 4a over b
        (1, Fraction(2), "minus"),          # rational roots 2 and -1
        (2, Fraction(-1), "plus"),          # a double root
        (5, Fraction(1, 10 ** 9), "plus"),  # a split denominator
    ])
    def test_one_canonical_surd_per_root(self, built, p, q, p_sign):
        spec = QuadraticSpec(p, q, p_sign)
        pair = solve_quadratic(spec)
        assert len(built) == 2
        assert pair.x1 * pair.x2 == -q and pair.x1 + pair.x2 == -spec.sign * p


class _Sub(Fraction):
    pass


class TestExactInputs:
    """``_as_fraction`` hands a Fraction back as it is and converts every other exact type."""

    def test_a_fraction_is_not_copied(self):
        f = Fraction(7, 3)
        assert _as_fraction(f) is f

    @pytest.mark.parametrize("value, expected", [(5, Fraction(5)), (-2, Fraction(-2)),
                                                 (True, Fraction(1)), (False, Fraction(0)),
                                                 (_Sub(3, 4), Fraction(3, 4))])
    def test_other_rationals_convert(self, value, expected):
        got = _as_fraction(value)
        assert type(got) is Fraction and got == expected

    @pytest.mark.parametrize("value", [1.5, 2.0, Decimal("1.5"), "3", "1/2", None])
    def test_inexact_types_raise(self, value):
        with pytest.raises(TypeError, match="exact types only"):
            _as_fraction(value)

    # q is converted, then its sign checked, then p: the first failing check names the error
    @pytest.mark.parametrize("p, q, error, match", [
        (0, "1", TypeError, "exact types only"),
        (-5, -0.5, TypeError, "exact types only"),
        (0, -1, ValueError, "the metallic family takes q >= 0"),
        (0, 1.5, TypeError, "exact types only"),
        (1, -1, ValueError, "the metallic family takes q >= 0"),
        (1, Fraction(-1, 2), ValueError, "the metallic family takes q >= 0"),
        (0, 1, ValueError, "p must be a positive integer"),
        (0, Fraction(1), ValueError, "p must be a positive integer"),
    ])
    def test_metallic_mean_refuses_as_before(self, p, q, error, match):
        with pytest.raises(error, match=match):
            metallic_mean(p, q)

    def test_the_spec_keeps_the_fraction(self):
        q = Fraction(7, 5)
        assert QuadraticSpec(3, q, "minus").q is q
        assert metallic_mean(3, q) == metallic_mean(3, _Sub(7, 5)) == metallic_mean(3, Fraction(14, 10))
