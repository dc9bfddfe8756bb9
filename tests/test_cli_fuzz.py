"""Argv fuzz of every subcommand: each input ends in a clean exit.

Values go to extremes (integers up to 10^400, fractions, q up to 10^30);
degree stays at most 300 and width at most 200 digits, and the sizes of the
catalog commands stay small, so every example has a bounded cost.  Each
invocation must return exit code 0, 1 or 2 without an exception, print at
most one ``error: <code>:`` line, and on exit 2 print nothing to stdout.  JSON
that exits 0 parses with no ``Infinity`` or ``NaN`` and is the bytes ``json.dumps``
makes of the parsed object.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from goldmean.cli import run
from oracles import strict_json

_huge = st.one_of(
    st.integers(-3, 10 ** 6),
    st.integers(0, 10 ** 400),
    st.sampled_from([10 ** 18, 10 ** 18 + 1, 10 ** 30, 2 ** 1024, 10 ** 400]),
)
_int = _huge.map(str)
_fraction = st.one_of(
    _int,
    st.builds(lambda a, b: f"{a}/{b}", _huge, st.integers(-5, 10 ** 30)),
    st.sampled_from(["1e20", "1e14", "-2.5", "0.1", "1e-300", "x"]),
)
_q = st.one_of(
    st.integers(0, 10 ** 30).map(str),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(0, 10 ** 30), st.integers(1, 10 ** 30)),
    st.sampled_from(["1e20", "1e14", "-1", "0", "3/0"]),
)
_degree = st.integers(1, 300).map(str)
_common = st.tuples(
    st.sampled_from(["text", "json", "tsv"]),
    st.integers(1, 200).map(str),
).map(lambda fd: ["--format", fd[0], "--digits", fd[1]])
_sign = st.sampled_from(["plus", "minus"])


def _cmd(name, *parts):
    """argv of ``name`` with (flag, value strategy) parts, then the common options."""
    flags = [st.tuples(st.just(flag), values) for flag, values in parts]
    return st.tuples(*flags, _common).map(
        lambda drawn: [name, *(x for pair in drawn[:-1] for x in pair), *drawn[-1]])


ARGV = {
    "solve": st.one_of(
        _cmd("solve", ("--n", _degree), ("--m", _int)),
        _cmd("solve", ("--n", _degree), ("--m", _int),
             ("--tol", st.sampled_from(["1e-300", "1e-20", "5e-324", "1e300", "inf", "nan", "0"]))),
    ),
    "mmf": _cmd("mmf", ("--n", _degree), ("--p", _int), ("--sign", _sign), ("--m", _int)),
    "stakhov": _cmd("stakhov", ("--n", _degree), ("--variant", st.sampled_from(["a", "b"]))),
    "euler": _cmd("euler", ("--a", _fraction), ("--n", _degree), ("--x", _fraction),
                  ("--mode", st.sampled_from(["direct", "constrained"]))),
    "metallic": st.one_of(
        _cmd("metallic", ("--p", _int), ("--q", _q)),
        _cmd("metallic", ("--p", _int), ("--q", _q), ("--cf-terms", st.integers(0, 300).map(str))),
    ),
    "table1": _cmd("table1", ("--rows", st.integers(-1, 60).map(str)),
                   ("--side", st.sampled_from(["left", "right", "both"]))),
    "diophantus": _cmd("diophantus", ("--count", st.integers(-1, 300).map(str))),
    "harmonic": st.one_of(
        _cmd("harmonic", ("--size", st.integers(-1, 60).map(str))),
        _cmd("harmonic", ("--size", st.integers(-1, 300).map(str)),
             ("--key", st.integers(-1, 300).map(str))).map(lambda argv: argv + ["--doublets"]),
    ),
}


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(max_examples=100, derandomize=True, database=None, deadline=timedelta(seconds=10))
@given(data=st.data())
def test_every_argv_exits_cleanly(command, data):
    argv = data.draw(ARGV[command], label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    event(f"exit {code}")
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(errors) <= 1
    if code == 2:
        assert out.getvalue() == "" and len(errors) == 1 and err.getvalue().count("\n") == 1
    if code == 0 and argv[argv.index("--format") + 1] == "json":
        assert json.dumps(strict_json(out.getvalue())) + "\n" == out.getvalue()
