"""Print every help text and usage error of ``goldmean.cli.run``, for comparison.

A plain script, so that it runs on interpreters without pytest.  Run it on one
tree and on another with the same interpreter and diff the two outputs, for
example::

    python3.13 tests/usage_texts.py > after.txt

It imports ``goldmean`` from the ``src`` directory next to this file.  Help is
printed at a fixed width, so the output depends only on the interpreter's
argparse and on the parser goldmean builds.
"""

import contextlib
import io
import os
import sys

os.environ["COLUMNS"] = "80"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from goldmean import cli  # noqa: E402

COMMANDS = ("solve", "mmf", "stakhov", "euler", "metallic", "table1", "diophantus", "harmonic")
EULER = ["--n", "2", "--x", "1", "--mode", "direct"]

ARGV = [
    [], ["-h"], ["--help"], ["bogus"], ["--format", "json"],
    *([command, "--help"] for command in COMMANDS),
    *([command] for command in COMMANDS),
    ["solve", "--n", "3", "--m", "2", "extra"],
    ["solve", "extra", "--n", "3", "--m", "2"],
    ["solve", "--n", "3"],
    ["solve", "--n", "three", "--m", "2"],
    ["solve", "--n", "0", "--m", "2"],
    ["solve", "--n", "3", "--m", "-1"],
    ["solve", "--n", "3", "--m", "2", "--tol", "x"],
    ["solve", "--n", "3", "--m", "2", "--digits", "0"],
    ["solve", "--n", "3", "--m", "2", "--format", "xml"],
    ["solve", "--n", "3", "--m", "2", "--bogus"],
    ["solve", "--n", "3", "--m", "2", "--dig", "5", "--form", "json", "--"],
    ["stakhov", "--n", "3", "--variant", "c"],
    ["table1", "--rows", "2", "--side", "middle"],
    ["mmf", "--n", "3", "--p", "1", "--sign", "both", "--m", "2"],
    ["euler", "--a", "-3/2", *EULER],
    ["euler", "--a", "1/0", *EULER],
    ["euler", "--a", "1e1001", *EULER],
    ["euler", "--a", *EULER],
    ["metallic", "--p", "1", "--q", "x"],
    ["metallic", "--p", "1", "--q", "1", "--cf-terms", "0"],
    ["harmonic", "--size", "3", "--doublets=yes"],
    ["harmonic", "--size", "3", "--key", "K"],
    ["diophantus", "--count"],
    ["diophantus", "--", "--count", "2"],
]

for argv in ARGV:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    print(f"$ goldmean {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}"
          f"--- stderr\n{err.getvalue()}")
