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
OVERFLOW = "tests/test_trinomials.py::TestOverflowingWalk"
EXACT_DIGITS = "tests/test_exact_digits.py"

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
    ("truncate: no fallback to sign where bounds straddle 0", "trinomials.py",
     "return self.sign(Fraction(k, scale)), None", "pass", [PINNED]),
    ("truncate: orientation from lo not flipped", "trinomials.py",
     "orient = self.sign(hi) or -self.sign(lo)", "orient = self.sign(hi) or self.sign(lo)",
     [PINNED]),
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
     "xdf = n_s * xn + e_s * t  # x*f' * 2**-11\n"
     "        return fx, err, xn, -fx / xdf * (x * 2.0 ** -11) if xdf else math.inf",
     "xdf = 2048 * n_s * xn + 2048 * e_s * t\n"
     "        return fx, err, xn, -fx / xdf * x if xdf else math.inf", [OVERFLOW]),
    ("_critical_signs: k-th powers compared the wrong way", "trinomials.py",
     "- abs(rhs.numerator) ** k * n ** n)", "+ abs(rhs.numerator) ** k * n ** n)",
     ["tests/test_trinomials.py::TestSolveTrinomial"]),
    ("_refine: the float sign trusted within its error bound", "trinomials.py",
     "side = fx if abs(fx) > err else poly.sign(x)", "side = fx",
     ["tests/test_trinomials.py::TestCloseRootFamily"]),
    ("_refine: a root whose f in doubles is not finite returned", "trinomials.py",
     "    if not abs(fx) <= _HUGE:\n        raise OverflowError", "    if False:\n        raise OverflowError",
     ["tests/test_cli.py::TestExitCodes"]),
    ("_refine: stops where x**n overflows", "trinomials.py",
     "err <= min(scale, _HUGE)", "err <= scale", [OVERFLOW]),
    ("_expand: walks on where x**n overflows", "trinomials.py",
     "        if direction * x > 0 and", "        if False and", ["tests/test_cli.py::TestExitCodes"]),
    ("_expand: a float crossing inside the error bound taken", "trinomials.py",
     "if poly.sign(x) != inner_sign:", "if inner_sign * poly._float(x, False)[0] <= 0:", [PINNED]),
    ("RootSet.truncate: a negative exact root floored away from 0", "trinomials.py",
     "abs(p) * 10 ** digits // q", "(abs(p) * 10 ** digits + (p < 0) * (q - 1)) // q",
     [EXACT_DIGITS]),
    ("surds._floor_scaled: floor of a negative radical off by one", "surds.py",
     "return (whole - t - 1) // den", "return (whole - t) // den",
     ["tests/test_surds.py", "tests/test_nearest_double.py"]),
    ("surds._doubles: the double below taken as the nearest", "surds.py",
     "nearest = hi if a & 1 else lo", "nearest = lo", ["tests/test_nearest_double.py"]),
    ("surds._root_parts: no MAX_RADICAND check", "surds.py",
     "if num > MAX_RADICAND or den > MAX_RADICAND:", "if False:",
     ["tests/test_surds.py::TestRadicandBound"]),
    ("surds._split_square: the wheel skips 7", "surds.py",
     "for f in chain((2, 3, 5), accumulate(cycle((4, 2, 4, 2, 4, 6, 2, 6)), initial=7)):",
     "for f in filter((7).__ne__, chain((2, 3, 5), accumulate(cycle((4, 2, 4, 2, 4, 6, 2, 6)),"
     " initial=7))):",
     ["tests/test_surds.py::TestSplitSquareOverTheWheel"]),
    ("surds.continued_fraction_of: a period closing at max_terms taken as closed", "surds.py",
     "and big_q == first_q and len(terms) < max_terms:", "and big_q == first_q:",
     ["tests/test_surds.py::TestContinuedFractionByFieldArithmetic"]),
    ("cli._cmd_solve: x2's whole part not one larger than x1's", "cli.py",
     'f"-{int(whole) + 1}.{frac}"', 'f"-{int(whole)}.{frac}"',
     ["tests/test_cli.py::TestSolveTwoRootsDigits"]),
    ("cli._fraction: 0/0 read as 0", "cli.py",
     "fractions.Fraction(int(num), int(den) if slash else 1)",
     "fractions.Fraction(int(num), int(den) or 1 if slash else 1)",
     ["tests/test_cli.py::TestFractionOption"]),
    ("cli.run: a domain error exits 1", "cli.py",
     "        return EXIT_DOMAIN\n", "        return EXIT_USAGE\n",
     ["tests/test_cli.py::TestExitCodes"]),
    ("cli._cmd_solve: --tol not checked at n = 2", "cli.py",
     "    if not ns.tol > 0:", "    if False:", ["tests/test_cli.py::TestExitCodes"]),
    ("triangles.diophantus_triples: hypotenuse starts at 0", "triangles.py",
     "accumulate(steps, initial=1)", "accumulate(steps, initial=0)",
     ["tests/test_triangles.py::TestStreamedTriples"]),
    ("cli._cmd_harmonic: doublet TSV columns k and q swapped", "cli.py",
     "lambda r: tsv[len(r)] % r",
     "lambda r: tsv[len(r)] % (r[1::-1] + r[2:] if len(r) == 8 else r)",
     ["tests/test_cli.py::TestFormatsAgree"]),
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
