"""Every printed trinomial digit is exact: the CLI against 250-digit mpmath oracles.

Covers the commands whose roots are not quadratic surds: solve (n != 2),
mmf, stakhov and both euler modes.  Each printed decimal must equal the
oracle root truncated toward zero, at widths from 1 to 200 digits.
"""

import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldmean import solve_euler, solve_gm_general
from goldmean._exact import _decimal_text
from goldmean.cli import run
from goldmean.trinomials import _critical_signs, _Poly
from oracles import has_multiple_root, mp_real_roots, mp_root_in, truncate_mpf

DIGITS = (1, 10, 16, 29, 40, 200)


def _cases():
    """(argv, (n, c, e, rhs)) for each command, without repeated roots."""
    for n in (1, 3, 4, 5, 7):
        for m in (0, 1, 2, 7, 100):
            yield ["solve", "--n", str(n), "--m", str(m)], (n, 1, 1, Fraction(m, 2))
    for n in (1, 3, 4, 6):
        for p in (1, 2, 5):
            for sign in ("plus", "minus"):
                for m in (0, 1, 9):
                    if n == 1 and p == 1 and sign == "minus":
                        continue
                    c = p if sign == "plus" else -p
                    yield (["mmf", "--n", str(n), "--p", str(p), "--sign", sign, "--m", str(m)],
                           (n, c, 1, Fraction(m, 2)))
    for n in range(1, 8):
        yield ["stakhov", "--n", str(n), "--variant", "a"], (n, 1, 1, Fraction(1))
        yield ["stakhov", "--n", str(n), "--variant", "b"], (n, 1, n - 1, Fraction(1))
    for a, n, x in (("0", 2, "1"), ("1", 3, "2"), ("-1/3", 4, "5/7"), ("2", 5, "-3"),
                    ("0", 6, "1/2"), ("0", 3, "9"), ("0", 2, "1/2"), ("7", 1, "2"), ("2", 4, "1/2")):
        yield (["euler", f"--a={a}", "--n", str(n), f"--x={x}", "--mode", "direct"],
               (n, 0, 1, n * Fraction(x) - Fraction(a)))
    for a, n, x in (("0", 2, "1/2"), ("0", 3, "1/3"), ("5", 5, "7/3"), ("0", 4, "0"), ("0", 1, "3")):
        yield (["euler", f"--a={a}", "--n", str(n), f"--x={x}", "--mode", "constrained"],
               (n, 1, 1, n * Fraction(x)))


CASES = [(argv, poly) for argv, poly in _cases() if not has_multiple_root(*poly)]


@pytest.mark.parametrize("argv,poly", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_printed_digits_match_mpmath(argv, poly, capsys):
    roots = mp_real_roots(*poly)
    if argv[0] == "stakhov":
        roots = [r for r in roots if r >= 0]
    for digits in DIGITS:
        assert run(argv + ["--format", "json", "--digits", str(digits)]) == 0
        printed = [r["decimal"] for r in json.loads(capsys.readouterr().out)["results"]]
        assert printed == [truncate_mpf(r, digits) for r in roots], digits


def _critical_cases(seed=7, count=400):
    """Seeded (n, c, rhs) of the e = 1 family, half with f nearly 0 at a critical point.

    The fixed cases have rational critical points, three of them double roots.
    """
    yield from ((3, -3, Fraction(2)), (3, -12, Fraction(16)), (5, -5, Fraction(4)),
                (4, -32, Fraction(7, 2)), (2, 3, Fraction(-9, 4)), (4, 0, Fraction(0)))
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 40)
        c = rng.choice((1, -1)) * rng.randint(1, 60)
        m = rng.randint(0, 1000)
        if i % 2:
            # m/2 near c*(n-1)/n * x* puts f(x*) close to zero
            star = abs(c / n) ** (1 / (n - 1)) * (-1 if c > 0 else 1)
            m = max(0, round(2 * c * (n - 1) / n * star) + rng.randint(-1, 1))
        yield n, c, Fraction(m, 2)


def test_signs_at_critical_points_match_mpmath():
    checked = zeros = 0
    with mpmath.workdps(100):
        for n, c, rhs in _critical_cases():
            poly = _Poly(n, c, 1, rhs)
            for lo, hi, sign in _critical_signs(poly):
                star = mpmath.root(mpmath.mpf(abs(c)) / n, n - 1) * (1 if hi > 0 else -1)
                value = star ** n + c * star - mpmath.mpf(rhs.numerator) / rhs.denominator
                if abs(value) < mpmath.mpf(10) ** -80:
                    assert sign == 0 and lo == hi
                    assert abs(mpmath.mpf(lo.numerator) / lo.denominator - star) < 1e-80
                    zeros += 1
                else:
                    assert sign == (1 if value > 0 else -1), (n, c, rhs)
                    # ends about x* where f has its sign: f is monotone between each and x*
                    assert lo < hi and poly.sign(lo) == sign == poly.sign(hi)
                    assert abs(mpmath.mpf(lo) - star) <= 4 * mpmath.mpf(math.ulp(float(star)))
                    assert abs(mpmath.mpf(hi) - star) <= 4 * mpmath.mpf(math.ulp(float(star)))
                checked += 1
    assert checked > 300 and zeros >= 4


class TestPinned:
    def _text(self, capsys, *argv):
        assert run(list(argv)) == 0
        return capsys.readouterr().out

    def test_cubic_at_sixteen_digits(self, capsys):
        out = self._text(capsys, "solve", "--n", "3", "--m", "2", "--digits", "16")
        assert out == "x1 = 0.6823278038280193 (satisfactory)\n"

    def test_zero_root_prints_fixed_notation(self, capsys):
        out = self._text(capsys, "mmf", "--n", "5", "--p", "3", "--sign", "minus", "--m", "0")
        assert "x2 = 0.0000000000\n" in out

    def test_root_on_a_bracket_end(self, capsys):
        # x**9 + x = 2 has the root 1, the midpoint of its bracket (0, 2), where refinement
        # starts
        out = self._text(capsys, "solve", "--n", "9", "--m", "4")
        assert out == "x1 = 1.0000000000 (satisfactory)\n"

    def test_root_refinement_lands_on_is_exact(self, capsys):
        # x**3 + x = 2: refinement starts at 1, the midpoint of the bracket (0, 2), where f in
        # doubles is 0; the exact sign there is 0 too, so the root is reported exact, with
        # the bracket and the one step of its refinement
        [record] = solve_gm_general(3, 4).roots
        assert record == (1.0, (0.0, 2.0), 0.0, 1, 1) and type(record.exact) is Fraction
        assert run(["solve", "--n", "3", "--m", "4", "--format", "json"]) == 0
        [root] = json.loads(capsys.readouterr().out)["results"]
        assert (root["decimal"], root["bracket_lo"], root["bracket_hi"], root["iterations"]) == (
            "1.0000000000", 0.0, 2.0, 1)

    def test_degree_300_at_1000_digits(self, capsys):
        start = time.perf_counter()
        out = self._text(capsys, "solve", "--n", "300", "--m", "1000", "--digits", "1000")
        assert time.perf_counter() - start < 10.0
        assert out.startswith("x1 = 1.0209244569877836491")

    def test_degree_1000_at_1000_digits(self, capsys):
        # f(k/N) * N**1000 has 3.3 million bits here, so bounds on it decide every digit
        start = time.perf_counter()
        argv = ["solve", "--n", "1000", "--m", "3", "--digits", "1000", "--format", "json"]
        assert run(argv) == 0
        assert time.perf_counter() - start < 5.0
        printed = [r["decimal"] for r in json.loads(capsys.readouterr().out)["results"]]
        roots = [mp_root_in(1000, 1, 1, Fraction(3, 2), lo, hi, dps=1050)
                 for lo, hi in ((0, 2), (-2, -1))]
        assert printed == [truncate_mpf(r, 1000, dps=1050) for r in roots]

    def test_root_on_the_grid(self, capsys):
        # b**300 = 2**-300: refinement lands on the roots ±1/2, which are doubles, and the
        # exact sign there makes them exact roots, floored by integer division
        out = self._text(capsys, "euler", "--a", "0", "--n", "300", f"--x=1/{300 * 2 ** 300}",
                         "--mode", "direct", "--digits", "40")
        assert out == ("x1 = 0.5000000000000000000000000000000000000000 (satisfactory)\n"
                       "x2 = -0.5000000000000000000000000000000000000000\n")

    def test_root_on_the_grid_that_no_double_is(self, capsys):
        # b**300 = 10**-300: f is 0 at the grid points of ±1/10, which refinement cannot
        # land on; no bounds decide a sign there, so the exact value must
        out = self._text(capsys, "euler", "--a", "0", "--n", "300", f"--x=1/{300 * 10 ** 300}",
                         "--mode", "direct", "--digits", "40")
        assert out == ("x1 = 0.1000000000000000000000000000000000000000 (satisfactory)\n"
                       "x2 = -0.1000000000000000000000000000000000000000\n")

    def test_root_on_a_double(self, capsys):
        # b**10 + b = 10x with x set so that the double hi is an exact root: refinement in
        # (0, 2) ends on it, where f in doubles is -1.8e-15, not 0; hi's denominator divides
        # that of 10x, so one exact value tests hi, and the root is reported exact.  The digit
        # search from hi, by the exact signs on the grid, finds the same digits
        hi = 1.225736317318873
        x = (Fraction(hi) ** 10 + Fraction(hi)) / 10
        [record] = [r for r in solve_euler(0, 10, x).roots if r.value > 0]
        assert record == (hi, (0.0, 2.0), 0.0, 3, Fraction(hi))
        poly = _Poly(10, 1, 1, 10 * x)
        assert poly._float(hi, False)[0] != 0 and poly.sign(hi) == 0
        digits = f"{Fraction(hi) * 10 ** 30 // 1}"
        assert poly.truncate(hi, 0.0, 2.0, 1, 30)[0].replace(".", "") == digits
        assert run(["euler", "--a", "0", "--n", "10", f"--x={x}", "--mode", "constrained",
                    "--digits", "30", "--format", "json"]) == 0
        printed = [r["decimal"] for r in json.loads(capsys.readouterr().out)["results"]]
        assert digits in [d.replace(".", "") for d in printed]

    def test_root_just_below_a_double(self, capsys):
        # the equation above with the root 2**-56 below hi: f is positive at hi, but f in
        # doubles there is negative and inside its error bound; refinement ends on hi, the
        # nearest double, and the digits below it are decided by exact signs
        hi = 1.225736317318873
        root = Fraction(hi) - Fraction(1, 2 ** 56)
        x = (root ** 10 + root) / 10
        poly = _Poly(10, 1, 1, 10 * x)
        fx, err = poly._float(hi, False)[:2]
        assert -err < fx < 0 < poly.sign(hi)
        [record] = [r for r in solve_euler(0, 10, x).roots if r.value > 0]
        assert record == (hi, (0.0, 2.0), record.residual, 3, None)
        assert run(["euler", "--a", "0", "--n", "10", f"--x={x}", "--mode", "constrained",
                    "--digits", "30", "--format", "json"]) == 0
        printed = [r["decimal"] for r in json.loads(capsys.readouterr().out)["results"]]
        assert f"{root * 10 ** 30 // 1}" in [d.replace(".", "") for d in printed]

    @pytest.mark.parametrize("argv,roots", [
        (["euler", "--a", "0", "--n", "1000", "--x=1/1000", "--mode", "direct"], (1, -1)),
        (["solve", "--n", "1000", "--m", "4"], (1,)),  # x2 = -1.0010995828... is off the grid
        (["mmf", "--n", "999", "--p", "1", "--sign", "minus", "--m", "0"], (1, 0, -1)),
        (["euler", "--a", "0", "--n", "1000", f"--x=1/{1000 * 10 ** 1000}", "--mode", "direct"],
         (Fraction(1, 10), Fraction(-1, 10))),
    ], ids=lambda value: " ".join(value)[:60] if isinstance(value, list) else None)
    def test_roots_on_the_grid_at_the_degree_bound(self, capsys, argv, roots):
        # f(k/N) is 0 at these grid points.  Refinement lands on ±1 and 0 is a bracket end,
        # so those roots are exact; at ±1/10 no bounds decide a sign, and the exact sign at
        # the reduced fraction k/N does, with no integer of n * 3322 bits
        start = time.perf_counter()
        out = self._text(capsys, *argv, "--digits", "1000")
        assert time.perf_counter() - start < 0.3
        lines = out.splitlines()
        for i, root in enumerate(roots):
            label, decimal = lines[i].split(" = ")
            whole, frac = decimal.removesuffix(" (satisfactory)").split(".")
            assert (label, len(frac)) == (f"x{i + 1}", 1000)
            assert int(whole + frac) == root * 10 ** 1000
            assert decimal.endswith(" (satisfactory)") == (root > 0)

    @pytest.mark.parametrize("argv,poly", [
        (["solve", "--n", "3", "--m", "2", "--tol", "1e-300"], (3, 1, 1, Fraction(1))),
        (["mmf", "--n", "3", "--p", "1000000", "--sign", "minus", "--m", "1000000"],
         (3, -1000000, 1, Fraction(500000))),
        # (x + 2s)(x**2 - 2s*x - (8s**2 + 3)) at s = 10**5 and 10**6: the roots -2s and
        # s - sqrt(9s**2 + 3), about 1/(2s) apart on either side of a critical point
        (["mmf", "--n", "3", "--p", "120000000003", "--sign", "minus",
          "--m", "32000000001200000"], (3, -120000000003, 1, Fraction(16000000000600000))),
        (["mmf", "--n", "3", "--p", "12000000000003", "--sign", "minus",
          "--m", "32000000000012000000"], (3, -12000000000003, 1, Fraction(16000000000006000000))),
    ])
    def test_tolerance_below_float_noise(self, capsys, argv, poly):
        # the float bracket closes to adjacent floats before the residual meets the
        # tolerance, or f stays below float noise across the bracket
        roots = mp_real_roots(*poly)
        for digits in (10, 30):
            assert run(argv + ["--format", "json", "--digits", str(digits)]) == 0
            printed = [r["decimal"] for r in json.loads(capsys.readouterr().out)["results"]]
            assert printed == [truncate_mpf(r, digits) for r in roots], digits


def _decimal_text_reference(negative: bool, scaled: int, digits: int) -> str:
    whole, frac = divmod(scaled, 10 ** digits)
    text = f"{whole}.{frac:0{digits}d}"
    return f"-{text}" if negative else text


class TestDecimalText:
    """``_decimal_text`` cuts one ``str(scaled)`` where a divmod by 10**digits would split it."""

    @pytest.mark.parametrize("digits", [1, 2, 7, 999, 1000])
    @pytest.mark.parametrize("negative", [False, True])
    def test_edges(self, digits, negative):
        scale = 10 ** digits
        for scaled in (0, 1, 9, 10, 11, scale // 10 - 1, scale // 10, scale - 1, scale, scale + 1,
                       7 * scale + 3, 10 ** 300 * scale + 1):
            assert (_decimal_text(negative, scaled, digits)
                    == _decimal_text_reference(negative, scaled, digits)), scaled

    def test_pinned(self):
        assert _decimal_text(False, 0, 1) == "0.0"
        assert _decimal_text(True, 0, 3) == "-0.000"
        assert _decimal_text(False, 5, 1) == "0.5"
        assert _decimal_text(True, 5, 3) == "-0.005"
        assert _decimal_text(False, 16180339, 7) == "1.6180339"
        assert _decimal_text(False, 1, 1000) == "0." + "0" * 999 + "1"

    def test_past_the_str_digit_limit(self):
        # str() refuses more than 4300 digits, where the whole part alone still prints
        scaled = 10 ** 4000 * 10 ** 1000 + 12345
        assert _decimal_text(True, scaled, 1000) == _decimal_text_reference(True, scaled, 1000)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.booleans(), st.integers(1, 1000), st.integers(0, 1400), st.data())
    def test_matches_divmod(self, negative, digits, size, data):
        scaled = data.draw(st.integers(0, 10 ** size))
        assert (_decimal_text(negative, scaled, digits)
                == _decimal_text_reference(negative, scaled, digits))
