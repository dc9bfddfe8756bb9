"""Mutation check for the exact core: each listed mutant must make its tests fail.

A mutant replaces one exact source snippet, which must occur exactly once in its file, so
a refactor that moves the code has to update the list.  Each runs on a fresh temporary
copy of ``src/``, ``tests/`` and ``perfbench/`` (whose corpus some tests read), with its
test selection under ``pytest -x``; the unmutated copy runs every selection first and must
pass.  The script prints a Markdown table and exits 1 when a mutant survives or a snippet
does not match.  It needs pytest and the test dependencies, and pytest does not collect
it.  Run from anywhere:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BOUNDS = "tests/test_trinomials.py::TestBoundedSigns"
PINNED = "tests/test_exact_digits.py::TestPinned"
OVERFLOW = "tests/test_trinomials.py::TestOverflowingPowers"
OUTER = "tests/test_trinomials.py::TestOuterEnds"
CLOSE = ("tests/test_trinomials.py::TestCloseRootFamily::"
         "test_exact_digits_for_roots_closer_than_one_ulp")
CRITICAL_ZERO = ("tests/test_trinomials.py::TestCloseRootFamily::"
                 "test_a_root_at_the_double_of_a_critical_point_is_exact")
DOUBLE_CRITICAL = ("tests/test_trinomials.py::TestCloseRootFamily::"
                   "test_roots_within_an_ulp_of_a_critical_point_that_is_a_double")
BUDGET = "tests/test_trinomials.py::TestIterationBudget"
STAKHOV = "tests/test_trinomials.py::TestStakhov"
EXACT_DIGITS = "tests/test_exact_digits.py"
HARMONIC = "tests/test_harmonic.py"
SPLIT = ["tests/test_surds.py::TestSplitSquareOverTheWheel",
         "tests/test_surds.py::TestSplitSquareByGcds"]
DISPATCH = "tests/test_cli_dispatch.py::TestSameAsFullParser"
CONTINUED_FRACTION = "tests/test_surds.py::TestContinuedFractionByFieldArithmetic"

#: (name, file under src/goldmean, snippet, replacement, test selection)
MUTANTS = [
    ("_round: lower bound rounded up", "trinomials.py",
     "(lo >> t, -(-hi >> t), s + t)", "(-(-lo >> t), -(-hi >> t), s + t)", [BOUNDS]),
    ("_round: upper bound rounded down", "trinomials.py",
     "(lo >> t, -(-hi >> t), s + t)", "(lo >> t, hi >> t, s + t)", [BOUNDS]),
    ("_sum: lower bound rounded up", "trinomials.py",
     "lo += coefficient * x_lo >> top - s", "lo -= -coefficient * x_lo >> top - s", [BOUNDS]),
    ("_sum: upper bound rounded down", "trinomials.py",
     "hi -= -coefficient * x_hi >> top - s", "hi += coefficient * x_hi >> top - s", [BOUNDS]),
    ("_terms: sign of beta flipped, e = n-1", "trinomials.py",
     "return j, (alpha, -num * q), (d_alpha, 0)", "return j, (alpha, num * q), (d_alpha, 0)",
     [BOUNDS]),
    ("_terms: sign of alpha flipped, e = 1", "trinomials.py",
     "return j, (den * sp * p, ", "return j, (-den * sp * p, ", [BOUNDS]),
    ("exact: power-of-two q shifted one power short", "trinomials.py",
     "q_power = 1 << s * (n - 1) if", "q_power = 1 << s * (n - 2) if", [BOUNDS]),
    ("sign: a straddling interval trusted", "trinomials.py",
     "            if _sgn(lo) == _sgn(hi):\n                return _sgn(lo)\n",
     "            return _sgn(lo)\n", [BOUNDS]),
    ("truncate: no exact fallback where bounds straddle 0", "trinomials.py",
     "return _sgn(self.exact(*Fraction(k, scale).as_integer_ratio())), None", "pass", [PINNED]),
    ("RootSet.truncate: orientation flipped", "trinomials.py",
     "record.value, lo, hi, -s_lo, digits)", "record.value, lo, hi, s_lo, digits)", [PINNED]),
    ("_float: the error bound dropped", "trinomials.py",
     "err = g_n * abs(xn) + g_e * abs(t) + self._rhs_err", "err = 0.0", [BOUNDS]),
    ("_float: no guard for subnormal powers or overflow", "trinomials.py",
     "        if not abs(fx) <= _HUGE:\n            err = math.inf\n        elif abs(xn) < _NORMAL:\n"
     "            err = err + 2.0 ** -1020 if e <= 1 and abs(x) >= _NORMAL else math.inf\n",
     "", [BOUNDS]),
    ("_float: declines wherever x**n is below the normal range", "trinomials.py",
     "err = err + 2.0 ** -1020 if e <= 1 and abs(x) >= _NORMAL else math.inf", "err = math.inf",
     ["tests/test_trinomials.py::TestResiduals"]),
    ("_float: no term for a rounded x", "trinomials.py",
     "((2 * n + 2) * _U, (2 * e + 4) * _U)", "((n + 2) * _U, (e + 4) * _U)", [BOUNDS]),
    ("_float: x*f' not scaled, so it overflows with n*x**n", "trinomials.py",
     "xdf = n_s * xn + e_s * t  # x*f' * _SLOPE_SCALE\n"
     "        return fx, err, xn, -fx / xdf * (x * _SLOPE_SCALE) if xdf else math.inf",
     "xdf = 2048 * n_s * xn + 2048 * e_s * t\n"
     "        return fx, err, xn, -fx / xdf * x if xdf else math.inf", [OVERFLOW]),
    ("_critical_signs: k-th powers compared the wrong way", "trinomials.py",
     "- abs(num) ** k * n ** n)", "+ abs(num) ** k * n ** n)",
     ["tests/test_trinomials.py::TestSolveTrinomial"]),
    ("_refine: the float sign trusted within its error bound", "trinomials.py",
     "side = fx if abs(fx) > err else poly.sign(x)", "side = fx",
     ["tests/test_trinomials.py::TestCloseRootFamily"]),
    ("_refine: a root whose f in doubles is not finite returned", "trinomials.py",
     "    if not abs(fx) <= _HUGE:\n        raise OverflowError", "    if False:\n        raise OverflowError",
     ["tests/test_cli.py::TestExitCodes"]),
    ("_refine: stops where x**n overflows", "trinomials.py",
     "err <= min(scale, _HUGE)", "err <= scale", [OVERFLOW]),
    ("_least: t one short in the power-of-two bound", "trinomials.py",
     "return -(-(k + (v < strict)) // d)", "return -(-(k + (v < strict)) // d) - 1", [OUTER]),
    ("_seeds: the read-off sign of f(0) flipped", "trinomials.py",
     "marks + [(0, 0, -_sgn(num))]", "marks + [(0, 0, _sgn(num))]", [OUTER]),
    ("_first_point: the regime test's factor 4 dropped", "trinomials.py",
     "n if 4 * e * abs(t) <= n * abs(rhs - t) else", "n if e * abs(t) <= n * abs(rhs - t) else",
     [BUDGET]),
    ("_first_point: a y on lo or hi left to the midpoint", "trinomials.py",
     "else math.nextafter(y, mid) if y in (lo, hi) else mid", "else mid", [BUDGET]),
    ("_refine: the double of the Newton step not tested exactly", "trinomials.py",
     "if lo < z < hi and poly.den % q == 0 and poly.exact(p, q) == 0:", "if False:", [PINNED]),
    ("_ends: adjacent-double sign check skipped", "trinomials.py",
     "if signs == (s, s):", "if True:", [CLOSE]),
    ("_ends: dyadic halving keeps the wrong half", "trinomials.py",
     "lo, hi = (mid, hi) if versus(mid) < 0 else (lo, mid)",
     "lo, hi = (lo, mid) if versus(mid) < 0 else (mid, hi)", [CLOSE]),
    ("_ends: zero at a critical double ignored", "trinomials.py",
     "if sign == 0 and t not in zeros]", "if False]", [CRITICAL_ZERO]),
    ("_ends: without the exact mark of an x* that is an end", "trinomials.py",
     "if 0 in at:", "if False:", [DOUBLE_CRITICAL]),
    ("_refine: log step taken where x**n and w differ in sign", "trinomials.py",
     "        if 0.0 < ratio <= _HUGE:  # and so is not nan: x**n and w share a sign\n",
     "        if 0.0 < abs(ratio) <= _HUGE:\n            ratio = abs(ratio)\n", [BUDGET]),
    ("solve_stakhov: bracket orientation flipped", "trinomials.py",
     "_refine(poly, 0.0, 1.0, -1, TOLERANCE)", "_refine(poly, 0.0, 1.0, 1, TOLERANCE)",
     [STAKHOV]),
    ("RootSet.truncate: a negative exact root floored away from 0", "trinomials.py",
     "abs(p) * 10 ** digits // q", "(abs(p) * 10 ** digits + (p < 0) * (q - 1)) // q",
     [EXACT_DIGITS]),
    ("surds._floor_scaled: floor of a negative radical off by one", "surds.py",
     "return (whole - t - 1) // den", "return (whole - t) // den",
     ["tests/test_surds.py", "tests/test_nearest_double.py"]),
    ("surds.QuadraticSurd._doubles: the double below taken as the nearest", "surds.py",
     "nearest = hi if a & 1 else lo", "nearest = lo", ["tests/test_nearest_double.py"]),
    ("surds._root_parts: no MAX_RADICAND check", "surds.py",
     "if num > MAX_RADICAND or den > MAX_RADICAND:", "if False:",
     ["tests/test_surds.py::TestRadicandBound"]),
    ("surds._split_square: the primorial misses 7", "surds.py",
     "_SMALL_PRIMES = _primorial(1 << 10)", "_SMALL_PRIMES = _primorial(1 << 10) // 7", SPLIT),
    ("surds._split_square: the wheel restarts out of phase", "surds.py",
     "initial=1027)", "initial=1031)", SPLIT),
    ("surds._split_square: root and free swapped in the gcd loop", "surds.py",
     "        free *= s // t\n        root *= t\n", "        root *= s // t\n        free *= t\n",
     SPLIT),
    ("_exact._decimal_text: zfill one digit short", "_exact.py",
     "str(scaled).zfill(digits + 1)", "str(scaled).zfill(digits)",
     ["tests/test_exact_digits.py::TestDecimalText"]),
    ("_exact._check_tolerance: an infinite tolerance taken", "_exact.py",
     "    if tolerance == inf:", "    if False:", ["tests/test_cli.py::TestExitCodes"]),
    ("surds.continued_fraction_of: a period closing at max_terms taken as closed", "surds.py",
     "and big_q == first_q and len(terms) < max_terms:", "and big_q == first_q:",
     [CONTINUED_FRACTION]),
    ("surds.continued_fraction_of: period start recorded one state late", "surds.py",
     "start, first_p, first_q = len(terms), big_p, big_q",
     "start, first_p, first_q = len(terms) + 1, big_p, big_q", [CONTINUED_FRACTION]),
    ("cli._cmd_solve: x2's whole part not one larger than x1's", "cli.py",
     'f"-{int(whole) + 1}.{frac}"', 'f"-{int(whole)}.{frac}"',
     ["tests/test_cli.py::TestSolveTwoRootsDigits"]),
    ("cli._surd_fields: rat not cut by its gcd", "cli.py", "p // g", "p",
     ["tests/test_cli.py::TestSurdJson"]),
    ("cli._fraction: 0/0 read as 0", "cli.py",
     "fractions.Fraction(int(num), int(den) if slash else 1)",
     "fractions.Fraction(int(num), int(den) or 1 if slash else 1)",
     ["tests/test_cli.py::TestFractionOption"]),
    ("cli.run: a domain error exits 1", "cli.py",
     "        return EXIT_DOMAIN\n", "        return EXIT_USAGE\n",
     ["tests/test_cli.py::TestExitCodes"]),
    ("cli._cmd_solve: --tol not checked at n = 2", "cli.py",
     "    _check_tolerance(ns.tol)", "    pass", ["tests/test_cli.py::TestExitCodes"]),
    ("triangles.diophantus_triples: hypotenuse starts at 0", "triangles.py",
     "accumulate(steps, initial=1)", "accumulate(steps, initial=0)",
     ["tests/test_triangles.py::TestStreamedTriples"]),
    ("harmonic.key_rows: the product spelled k * k", "harmonic.py",
     "(k, q := k * (k + 1), q)", "(k, q := k * k, q)", [HARMONIC]),
    ("harmonic.cross_check_integer_means: a wrong pair never raises", "harmonic.py",
     "            if pair != (k, k + 1):\n", "            if False:\n", [HARMONIC]),
    ("cli._cmd_harmonic: doublet TSV columns k and q swapped", "cli.py",
     "lambda r: tsv[len(r)] % r",
     "lambda r: tsv[len(r)] % (r[1::-1] + r[2:] if len(r) == 8 else r)",
     ["tests/test_cli.py::TestFormatsAgree"]),
    ("cli._plan: a choices option reads any word", "cli.py",
     '            read = {choice: choice for choice in keywords["choices"]}.__getitem__\n',
     "            pass\n", [DISPATCH]),
    ("cli._strict: --flag=value read as the flag", "cli.py",
     "            if read is None:  # not an option, or a flag given a value\n"
     "                return None\n",
     "            if attr is None:\n                return None\n            read = read or bool\n",
     [DISPATCH]),
    ("cli._strict: a value starting with '-' read as a value", "cli.py",
     '(value := next(tokens, None)) is None or value.startswith("-"):',
     "(value := next(tokens, None)) is None:", [DISPATCH]),
    ("cli.__getattr__: no name guard", "cli.py",
     "    if name not in _HOME:\n        raise AttributeError(f\"module {__name__!r} has no attribute "
     "{name!r}\")\n", "",
     ["tests/test_tracer_contract.py::TestNameGuard"]),
]


def _copy(destination: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", "out")  # perfbench/out: results
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(destination, part), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), destination)


def _pytest(tree: str, selection: list[str]) -> tuple[int, float, str]:
    """pytest's exit code on ``selection`` in ``tree``, its seconds and its last line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *selection], cwd=tree, env=env, capture_output=True, text=True,
                          timeout=900)
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return proc.returncode, time.perf_counter() - start, tail


def main() -> int:
    failed = False
    print("| mutant | tests | result | seconds |\n|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tree:
        _copy(tree)
        selections = sorted({test for *_, tests in MUTANTS for test in tests})
        code, seconds, tail = _pytest(tree, selections)
        failed |= code != 0
        print(f"| none | every selection | {'passed' if code == 0 else tail} | {seconds:.1f} |")
    for name, module, snippet, replacement, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as tree:
            _copy(tree)
            path = os.path.join(tree, "src", "goldmean", module)
            with open(path, encoding="utf-8") as f:
                source = f.read()
            count = source.count(snippet)
            if count != 1:
                failed = True
                print(f"| {name} | | error: the snippet occurs {count} times in {module} | |")
                continue
            with open(path, "w", encoding="utf-8") as f:
                f.write(source.replace(snippet, replacement))
            code, seconds, tail = _pytest(tree, tests)
        # pytest exits 1 when a test failed; any other code is an error, not a kill
        result = {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest exit {code}: {tail}")
        failed |= code != 1
        print(f"| {name} | {' '.join(tests)} | {result} | {seconds:.1f} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
