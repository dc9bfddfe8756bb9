"""The floats of a surd root: ``solve --n 2`` and ``metallic`` print the double nearest
the exact root, and ``solve --n 2`` brackets it by the two adjacent doubles around it.

Each root is written here as ``(p + q*sqrt(r))/den`` straight from the quadratic
formula, with no square factor split off, and every comparison with a double is
decided on integers.
"""

import contextlib
import io
import json
import math
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldmean import QuadraticSurd
from goldmean.cli import run
from goldmean.surds import MAX_RADICAND

FORMATS = ("json", "tsv")


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def side_of(root: tuple[int, int, int, int], x: float) -> int:
    """Sign of ``root - x`` for ``root = (p + q*sqrt(r))/den``, den > 0, r not a square."""
    p, q, den, r = root
    num, scale = Fraction(x).as_integer_ratio()
    # the sign of a + b*sqrt(r), with den*scale > 0 multiplied out
    a, b = p * scale - num * den, q * scale
    if a == 0 or b == 0 or (a > 0) == (b > 0):
        return _sgn(a) or _sgn(b)
    return _sgn(a) if a * a > b * b * r else _sgn(b)


def is_nearest_double(root, x: float) -> bool:
    """``root`` lies strictly between the midpoints of x and its neighbours."""
    below = (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    return side_of(root, below) > 0 and side_of(root, above) < 0


def roots_of_solve(m: int) -> list:
    """``(-1 ± sqrt(2m + 1))/2``, largest first: ``(p, q, den, r)``, or a Fraction if rational."""
    r = 2 * m + 1
    s = isqrt(r)
    if s * s == r:
        return [Fraction(-1 + s, 2), Fraction(-1 - s, 2)]
    return [(-1, 1, 2, r), (-1, -1, 2, r)]


def metallic_root(p: int, q: Fraction):
    """``(p + sqrt(p**2 + 4q))/2`` as ``(p*b + sqrt(N))/(2b)`` with ``N = (p**2*b + 4a)*b``."""
    a, b = q.as_integer_ratio()
    radicand = (p * p * b + 4 * a) * b
    s = isqrt(radicand)
    if s * s == radicand:
        return Fraction(p * b + s, 2 * b)
    return (p * b, 1, 2 * b, radicand)


def floats(*argv: str) -> list[tuple]:
    """Each result's floats: (value, bracket_lo, bracket_hi, residual, iterations) for a root
    of ``solve``, (value,) for ``metallic``; read from JSON or from TSV by ``--format``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(list(argv)) == 0
    if argv[-1] == "tsv":
        return [tuple(map(float, line.split("\t"))) for line in out.getvalue().splitlines()]
    keys = ("value", "bracket_lo", "bracket_hi", "residual", "iterations")
    return [tuple(rec[k] for k in keys if k in rec)
            for rec in json.loads(out.getvalue())["results"]]


def check_value(root, value: float) -> None:
    if isinstance(root, Fraction):
        assert value == float(root)  # float() of a Fraction is correctly rounded
    else:
        assert is_nearest_double(root, value)


#: the largest m whose radicand 2m + 1 is within the bound, about 5e17
MAX_M = (MAX_RADICAND - 1) // 2
#: m whose radicand 2m + 1 = (2k + 1)**2 is a square, so both roots are integers
_SQUARE_M = st.integers(0, 10 ** 8).map(lambda k: 2 * k * (k + 1))


class TestSolveAtDegreeTwo:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.integers(0, MAX_M), _SQUARE_M), st.sampled_from(FORMATS))
    @example(2, "json")
    @example(0, "tsv")
    @example(MAX_M, "json")
    def test_each_root_is_the_nearest_double_inside_adjacent_doubles(self, m, fmt):
        records = floats("solve", "--n", "2", "--m", str(m), "--format", fmt)
        assert len(records) == 2
        for root, (value, lo, hi, residual, *iterations) in zip(roots_of_solve(m), records):
            check_value(root, value)
            if isinstance(root, Fraction):
                assert lo == value == hi
            else:
                assert hi == math.nextafter(lo, math.inf)
                assert side_of(root, lo) > 0 and side_of(root, hi) < 0
            assert residual == abs(value ** 2 + value - m / 2)
            assert iterations in ([], [0])  # TSV prints no iteration count

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("m, value", [(2, 0.6180339887498949), (0, 0.0)])
    def test_pinned_values(self, m, value, fmt):
        assert floats("solve", "--n", "2", "--m", str(m), "--format", fmt)[0][0] == value

    def test_the_zero_root_row(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run(["solve", "--n", "2", "--m", "0", "--format", "tsv"])
        assert out.getvalue().splitlines()[0] == "0.0\t0.0\t0.0\t0.0"


class TestMetallic:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10 ** 4),
           st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 4),
           st.sampled_from(FORMATS))
    @example(1, Fraction(10, 151), "tsv")
    @example(1, Fraction(2), "json")  # the rational mean 2
    def test_value_is_the_nearest_double(self, p, q, fmt):
        (value,), = floats("metallic", "--p", str(p), f"--q={q}", "--format", fmt)
        check_value(metallic_root(p, q), value)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_pinned_value(self, fmt):
        value, = floats("metallic", "--p", "1", "--q", "10/151", "--format", fmt)[0]
        assert repr(value) == "1.0623390130187607"


class TestFloatOfASurd:
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(max_denominator=10 ** 30), st.fractions(max_denominator=10 ** 30),
           st.integers(0, 10 ** 18))
    # terms that cancel to about 1e-20 and 1e-300, a subnormal, one below half the least
    # subnormal (0.0) and one near the top of the float range
    @example(Fraction(-14142135623730950488, 10 ** 19), Fraction(1), 2)
    @example(Fraction(-isqrt(2 * 10 ** 600), 10 ** 300), Fraction(1), 2)
    @example(Fraction(0), Fraction(1, 2 ** 1050), 2)
    @example(Fraction(0), Fraction(1, 2 ** 1100), 3)
    @example(Fraction(0), Fraction(2 ** 1000), 3)
    def test_float_is_the_nearest_double(self, rat, coeff, d):
        value = float(QuadraticSurd(rat, coeff, d))
        (a, b), (c, e) = rat.as_integer_ratio(), coeff.as_integer_ratio()
        s = isqrt(d)
        if s * s == d or c == 0:
            assert value == float(rat + coeff * s)
        else:
            check_value((a * e, c * b, b * e, d), value)

    def test_past_the_float_range_is_an_overflow(self):
        with pytest.raises(OverflowError):
            float(QuadraticSurd(0, 2 ** 1100, 3))


class TestOracle:
    """The integer comparison the tests above rely on."""

    def test_sides_of_the_golden_mean(self):
        golden = (-1, 1, 2, 5)
        assert side_of(golden, 0.6180339887498948) > 0
        assert side_of(golden, 0.6180339887498949) < 0
        assert is_nearest_double(golden, 0.6180339887498949)
        assert not is_nearest_double(golden, 0.6180339887499892)

    def test_a_negative_root(self):
        assert side_of((-1, -1, 2, 5), -1.618033988749895) > 0
        assert is_nearest_double((-1, -1, 2, 5), -1.618033988749895)
