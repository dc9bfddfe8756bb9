"""Command-line behavior: formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldmean import QuadraticSurd, cli
from goldmean.cli import run
from goldmean.surds import MAX_CF_TERMS, ContinuedFraction
from goldmean.trinomials import RootSet
from oracles import strict_json


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExamples:
    def test_solve_text_marks_satisfactory(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--n", "2", "--m", "2",
                              "--digits", "7", "--format", "text")
        assert code == 0
        assert "x1 = 0.6180339 (satisfactory)" in out
        assert "x2 = -1.6180339" in out
        assert "r = 5" in out

    def test_diophantus_tsv_last_record(self, capsys):
        code, out, _ = invoke(capsys, "diophantus", "--count", "7", "--format", "tsv")
        assert code == 0
        assert out.splitlines()[-1] == "13\t84\t85"

    def test_degenerate_identity_exit_code(self, capsys):
        code, out, err = invoke(capsys, "mmf", "--n", "1", "--p", "1",
                                "--sign", "minus", "--m", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: degenerate-identity:")
        assert err.count("\n") == 1


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, out, err = invoke(capsys, "frobnicate")
        assert code == 1 and out == "" and "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = invoke(capsys, "solve", "--n", "2", "--m", "2", "--wat")
        assert code == 1 and "usage" in err

    def test_missing_required(self, capsys):
        code, _, _ = invoke(capsys, "solve", "--n", "2")
        assert code == 1

    def test_bad_value(self, capsys):
        code, _, _ = invoke(capsys, "solve", "--n", "0", "--m", "2")
        assert code == 1

    # n = 2 runs no solver, so its check is the CLI's own
    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "0"])
    def test_tolerance_must_be_positive(self, capsys, n, tol):
        code, out, err = invoke(capsys, "solve", "--n", n, "--m", "2", f"--tol={tol}")
        assert code == 1 and out == ""
        assert err == "error: invalid-argument: tolerance must be positive\n"

    # an infinite tolerance accepts the first point of a bracket as the root, and JSON
    # has no Infinity to echo it with
    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("tol", ["inf", "1e999", "Infinity"])
    @pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
    def test_tolerance_must_be_finite(self, capsys, n, tol, fmt):
        code, out, err = invoke(capsys, "solve", "--n", n, "--m", "2", "--tol", tol,
                                "--format", fmt)
        assert code == 1 and out == ""
        assert err == "error: invalid-argument: tolerance must be finite\n"

    def test_the_largest_finite_tolerance_is_taken(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--n", "2", "--m", "2",
                              "--tol", "1.7976931348623157e308", "--format", "json")
        assert code == 0 and '"tolerance": 1.7976931348623157e+308' in out

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0 and "usage" in out

    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "2", "--m", "1" + "0" * 400),
        ("euler", "--a", "0", "--n", "2", "--x", "1" + "0" * 400, "--mode", "direct"),
        # p is beyond the float range (about 1.8e308), so f overflows wherever it is evaluated
        ("mmf", "--n", "3", "--p", "1" + "0" * 400, "--sign", "plus", "--m", "2"),
        ("mmf", "--n", "3", "--p", "1" + "0" * 400, "--sign", "minus", "--m", "2"),
        # degrees above trinomials.MAX_DEGREE; solving them takes 40 s or more
        ("mmf", "--n", "10000001", "--p", "3", "--sign", "minus", "--m", "3"),
        ("euler", "--a", "0", "--n", "1000000", "--x", "1/1000000", "--mode", "direct"),
        # the root 2e154 squares past the float range, so f in doubles there is not finite
        ("mmf", "--n", "2", "--p", "2" + "0" * 154, "--sign", "minus", "--m", "0"),
        # the roots 2**1000 and 10**300 square past it: refinement ends where f in doubles is
        # not finite, though 2**1000 is an exact root
        ("mmf", "--n", "2", "--p", str(2 ** 1000), "--sign", "minus", "--m", "0"),
        ("mmf", "--n", "2", "--p", "1" + "0" * 300, "--sign", "minus", "--m", "0"),
    ])
    def test_input_too_large(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: input-too-large:")
        assert err.count("\n") == 1

    def test_euler_no_real_root(self, capsys):
        code, out, err = invoke(capsys, "euler", "--a", "5", "--n", "2",
                                "--x", "1", "--mode", "direct")
        assert code == 2 and out == ""
        assert "no-real-root" in err

    @pytest.mark.parametrize("argv", [
        # before the exponent bound these ran 9-10 s or printed CPython's digit-limit message
        ("metallic", "--p", "1", "--q", "1e10000000"),
        ("metallic", "--p", "1", "--q", "1e100000"),
        ("euler", "--a", "1e10000000", "--n", "3", "--x", "1", "--mode", "direct"),
    ])
    def test_huge_decimal_exponent_is_a_usage_error(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "decimal exponent must be at most 1000" in err
        assert "int_max_str_digits" not in err

    @pytest.mark.parametrize("q", ["1e1000", "1e-1000"])
    def test_exponent_at_the_bound_reaches_the_radicand_bound(self, capsys, q):
        code, out, err = invoke(capsys, "metallic", "--p", "1", "--q", q)
        assert code == 2 and out == ""
        assert err.startswith("error: input-too-large:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("template,code", [
        ("mmf --n 3 --p 1e308 --sign plus --m 1", 0),
        ("mmf --n 3 --p 1e308 --sign minus --m 1", 2),
        ("mmf --n 3 --p 1e309 --sign plus --m 1", 2),
        ("mmf --n 3 --p 1e309 --sign minus --m 1", 2),
        ("mmf --n 3 --p 1e400 --sign plus --m 1", 2),
        ("mmf --n 3 --p 1e400 --sign minus --m 1", 2),
        ("mmf --n 3 --p 1 --sign plus --m 1e308", 0),
        ("mmf --n 3 --p 1 --sign minus --m 1e308", 0),
        ("mmf --n 3 --p 1 --sign plus --m 1e309", 2),
        ("mmf --n 3 --p 1 --sign minus --m 1e309", 2),
        ("mmf --n 3 --p 1 --sign plus --m 1e400", 2),
        ("mmf --n 3 --p 1 --sign minus --m 1e400", 2),
        ("euler --a 0 --n 3 --x=1e307 --mode direct", 0),
        ("euler --a 0 --n 3 --x=-1e307 --mode constrained", 0),
        ("euler --a 0 --n 3 --x=1e308 --mode direct", 2),
        ("euler --a 0 --n 3 --x=-1e308 --mode constrained", 2),
        ("euler --a 0 --n 3 --x=1e309 --mode constrained", 2),
        ("euler --a 0 --n 3 --x=-1e400 --mode direct", 2),
    ])
    def test_where_input_too_large_begins_for_huge_coefficients(self, capsys, template, code):
        # the float stage holds values below about 1.8e308; past that the exit is 2, with
        # one error line and no traceback.  --p and --m take integers: 1eN is written out
        argv = [str(10 ** int(a[2:])) if a[:2] == "1e" else a for a in template.split()]
        got, out, err = invoke(capsys, *argv)
        assert got == code
        if code == 0:
            assert err == "" and out.startswith("x1 = ")
        else:
            assert out == ""
            assert err == ("error: input-too-large: values of the equation exceed the float "
                           "range (about 1.8e308) of the first refinement stage\n")


class TestCatalogBounds:
    """Each catalog size one above its bound exits 2 at once; the bounds are
    rows 10^4, count 10^6, printed grid 2000, and 10^5 for --doublets and --key."""

    @pytest.mark.parametrize("argv", [
        ("table1", "--rows", "10001", "--side", "left"),
        ("table1", "--rows", "100000000"),
        ("diophantus", "--count", "1000001"),
        ("diophantus", "--count", "1000001", "--format", "json"),
        ("diophantus", "--count", "1000001", "--format", "tsv"),
        ("harmonic", "--size", "2001"),
        ("harmonic", "--size", "2001", "--format", "tsv"),
        ("harmonic", "--size", "100001", "--doublets"),
        ("harmonic", "--size", "5", "--key", "100001"),
    ])
    def test_above_the_bound(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: input-too-large:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, lines", [
        (("table1", "--rows", "10000", "--side", "left"), 10000),
        (("harmonic", "--size", "5", "--key", "100000", "--format", "tsv"), 100001),
        # the size bounds only the grid and the doublets, not the key rows
        (("harmonic", "--size", "100000000", "--key", "3"), 4),
        (("solve", "--n", "1000", "--m", "3"), 2),
    ])
    def test_at_the_bound(self, capsys, argv, lines):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out.count("\n") == lines


class TestClosedPipe:
    def test_reader_closing_early_ends_quietly(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "goldmean.cli", "diophantus", "--count", "100000"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=path))
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "2", "--m", "2", "--format", "json"),
        ("solve", "--n", "3", "--m", "5", "--format", "text"),
        ("metallic", "--p", "3", "--q", "1", "--cf-terms", "8", "--format", "json"),
        ("harmonic", "--size", "10", "--doublets", "--format", "tsv"),
        ("table1", "--rows", "6", "--side", "both", "--format", "tsv"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second


class TestOneParserPerProcess:
    def test_three_runs_build_one_parser(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        for argv in (["solve", "--n", "3", "--m", "2"], ["stakhov", "--n", "3", "--variant", "a"],
                     ["diophantus", "--count", "0"]):
            run(argv)
        assert len(built) <= 1

    def test_no_state_leaks_between_runs(self, capsys):
        first = invoke(capsys, "solve", "--n", "3", "--m", "2")
        assert first[0] == 0
        assert invoke(capsys, "solve", "--n", "0")[0] == 1
        assert invoke(capsys, "--help")[0] == 0
        assert invoke(capsys, "mmf", "--n", "1", "--p", "1", "--sign", "minus", "--m", "4")[0] == 2
        assert invoke(capsys, "solve", "--n", "3", "--m", "2", "--tol", "1e-6",
                      "--format", "json")[0] == 0
        assert invoke(capsys, "solve", "--n", "3", "--m", "2") == first


def parse_json(out):
    payload = strict_json(out)
    assert set(payload) == {"command", "inputs", "results", "errors"}
    assert payload["errors"] == []
    return payload


class TestJsonRoundTrip:
    """JSON written record by record is the bytes ``json.dumps`` makes of the parsed object."""

    @pytest.mark.parametrize("argv", [
        ("table1", "--rows", "3", "--side", "left"),
        ("table1", "--rows", "3", "--side", "right"),
        ("table1", "--rows", "3", "--side", "both"),
        ("diophantus", "--count", "1"),
        ("harmonic", "--size", "1"),
        ("harmonic", "--size", "1", "--doublets"),
        ("harmonic", "--size", "1", "--key", "0"),
        ("harmonic", "--size", "4", "--doublets", "--key", "5"),
        ("solve", "--n", "2", "--m", "3"),
        ("mmf", "--n", "3", "--p", "2", "--sign", "minus", "--m", "2"),
        ("stakhov", "--n", "3", "--variant", "b"),
        ("euler", "--a=-3/2", "--n", "2", "--x", "1", "--mode", "direct"),
        ("metallic", "--p", "1", "--q", "1/3", "--cf-terms", "6"),
        ("mmf", "--n", "3", "--p", "3", "--sign", "minus", "--m", "4"),
        ("metallic", "--p", "1", "--q", "65/64", "--cf-terms", "2"),
        ("solve", "--n", "2", "--m", "0"),
        # the exact root -1.8e308, where f in doubles overflows: its residual is finite
        pytest.param(("mmf", "--n", "1", "--p", "2", "--sign", "minus",
                      "--m", str(2 * int(sys.float_info.max))), id="mmf --m 2*DBL_MAX"),
    ], ids=" ".join)
    def test_dumps_of_loads_gives_the_same_bytes(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(parse_json(out)) + "\n" == out


class TestJsonFrame:
    """The frame of the command and its inputs, written by ``%`` formats, is the bytes
    ``json.dumps`` makes of them."""

    @pytest.mark.parametrize("argv, inputs", [
        (("solve", "--n", "2", "--m", "3"), {"n": 2, "m": 3, "tolerance": 1e-12, "r": 7}),
        (("solve", "--n", "3", "--m", "0", "--tol", "0.5"), {"n": 3, "m": 0, "tolerance": 0.5}),
        (("solve", "--n", "2", "--m", "12", "--tol", "1e300"),
         {"n": 2, "m": 12, "tolerance": 1e300, "r": 25}),
        (("solve", "--n", "3", "--m", "2", "--tol", "5e-324"),
         {"n": 3, "m": 2, "tolerance": 5e-324}),
        (("mmf", "--n", "3", "--p", "2", "--sign", "minus", "--m", "2"),
         {"n": 3, "p": 2, "sign": "minus", "m": 2}),
        (("mmf", "--n", "4", "--p", "1", "--sign", "plus", "--m", "10"),
         {"n": 4, "p": 1, "sign": "plus", "m": 10}),
        (("stakhov", "--n", "3", "--variant", "b"), {"n": 3, "variant": "b"}),
        (("stakhov", "--n", "1", "--variant", "a"), {"n": 1, "variant": "a"}),
        (("euler", "--a=-3/2", "--n", "2", "--x", "1", "--mode", "direct"),
         {"a": "-3/2", "n": 2, "x": "1", "mode": "direct"}),
        (("euler", "--a", "0.25", "--n", "3", "--x", "6/4", "--mode", "constrained"),
         {"a": "1/4", "n": 3, "x": "3/2", "mode": "constrained"}),
        (("metallic", "--p", "1", "--q", "1"), {"p": 1, "q": "1"}),
        (("metallic", "--p", "3", "--q", "14/10", "--cf-terms", "4"), {"p": 3, "q": "7/5"}),
        (("metallic", "--p", "2", "--q", "0"), {"p": 2, "q": "0"}),
        (("table1", "--rows", "3"), {"rows": 3, "side": "both"}),
        (("table1", "--rows", "2", "--side", "left"), {"rows": 2, "side": "left"}),
        (("diophantus", "--count", "2"), {"count": 2}),
        (("harmonic", "--size", "3"), {"size": 3, "doublets": False, "key": None}),
        (("harmonic", "--size", "3", "--doublets"), {"size": 3, "doublets": True, "key": None}),
        (("harmonic", "--size", "4", "--key", "0"), {"size": 4, "doublets": False, "key": 0}),
        (("harmonic", "--size", "4", "--doublets", "--key", "5"),
         {"size": 4, "doublets": True, "key": 5}),
    ], ids=lambda value: " ".join(value) if isinstance(value, tuple) else "")
    def test_every_command(self, capsys, argv, inputs):
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        frame = json.dumps({"command": argv[0], "inputs": inputs})[:-1]
        assert out.startswith(frame + ', "results": [')
        assert parse_json(out)["inputs"] == inputs

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.floats(min_value=5e-324, allow_infinity=False), st.sampled_from([2, 3]))
    def test_any_finite_tolerance(self, tol, n):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = run(["solve", "--n", str(n), "--m", "2", "--tol", repr(tol), "--format", "json"])
        out = stdout.getvalue()
        inputs = {"n": n, "m": 2, "tolerance": tol, **({"r": 5} if n == 2 else {})}
        assert code == 0
        assert out.startswith(json.dumps({"command": "solve", "inputs": inputs})[:-1] + ", ")


class TestTsvDecidesNoDigits:
    """TSV prints floats alone, so it calls none of the functions that decide digits."""

    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "2", "--m", "3"),
        ("solve", "--n", "3", "--m", "2"),
        ("mmf", "--n", "3", "--p", "2", "--sign", "minus", "--m", "2"),
        ("euler", "--a=-3/2", "--n", "2", "--x", "1", "--mode", "direct"),
        ("stakhov", "--n", "3", "--variant", "b"),
        ("metallic", "--p", "1", "--q", "1/3", "--cf-terms", "6"),
    ], ids=" ".join)
    def test_digit_calls(self, capsys, monkeypatch, argv):
        calls = []

        def counted(real):
            def wrapper(*args, **kwargs):
                calls.append(real)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RootSet, "truncate", counted(RootSet.truncate))
        for name in ("to_decimal", "stakhov_decimal"):
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        assert invoke(capsys, *argv, "--format", "tsv")[0] == 0
        assert calls == []
        assert invoke(capsys, *argv, "--format", "text")[0] == 0
        assert calls


class TestTextFindsNoDoubles:
    """Text prints the digits and surds of ``solve`` at n = 2, so it finds none of the roots'
    doubles, which JSON and TSV print."""

    def test_doubles_calls(self, capsys, monkeypatch):
        calls, doubles = [], QuadraticSurd._doubles
        monkeypatch.setattr(QuadraticSurd, "_doubles",
                            lambda surd: calls.append(surd) or doubles(surd))
        counts = []
        for fmt in ("text", "tsv", "json"):
            assert invoke(capsys, "solve", "--n", "2", "--m", "3", "--format", fmt)[0] == 0
            counts.append(len(calls))
        assert counts == [0, 2, 4]


class TestFormatsAgree:
    def test_solve_json_vs_tsv(self, capsys):
        _, json_out, _ = invoke(capsys, "solve", "--n", "2", "--m", "3", "--format", "json")
        _, tsv_out, _ = invoke(capsys, "solve", "--n", "2", "--m", "3", "--format", "tsv")
        records = parse_json(json_out)["results"]
        lines = tsv_out.splitlines()
        assert len(lines) == len(records)
        for record, line in zip(records, lines):
            value, lo, hi, residual = (float(cell) for cell in line.split("\t"))
            assert value == record["value"]
            assert (lo, hi) == (record["bracket_lo"], record["bracket_hi"])
            assert residual == record["residual"]

    def test_diophantus_json_vs_tsv(self, capsys):
        _, json_out, _ = invoke(capsys, "diophantus", "--count", "5", "--format", "json")
        _, tsv_out, _ = invoke(capsys, "diophantus", "--count", "5", "--format", "tsv")
        records = parse_json(json_out)["results"]
        for record, line in zip(records, tsv_out.splitlines()):
            assert [int(v) for v in line.split("\t")] == [record["a"], record["b"], record["c"]]

    def test_table1_json_vs_tsv(self, capsys):
        _, json_out, _ = invoke(capsys, "table1", "--rows", "4", "--format", "json")
        _, tsv_out, _ = invoke(capsys, "table1", "--rows", "4", "--format", "tsv")
        records = parse_json(json_out)["results"]
        for record, line in zip(records, tsv_out.splitlines()):
            side, index, m, h, r = line.split("\t")
            assert side == record["side"]
            assert [int(index), int(m), int(h), int(r)] == [
                record["index"], record["m"], record["h"], record["r"]]

    def test_harmonic_doublets_and_key_json_vs_tsv(self, capsys):
        argv = ("harmonic", "--size", "6", "--doublets", "--key", "4")
        _, json_out, _ = invoke(capsys, *argv, "--format", "json")
        _, tsv_out, _ = invoke(capsys, *argv, "--format", "tsv")
        records = parse_json(json_out)["results"]
        lines = tsv_out.splitlines()
        assert len(lines) == len(records) == 5 + 5
        # a TSV line is its JSON record's values in field order, 8 for a doublet and 3 for a key
        for record, line in zip(records, lines):
            assert [int(v) for v in line.split("\t")] == list(record.values())

    def test_stakhov_json_vs_tsv(self, capsys):
        _, json_out, _ = invoke(capsys, "stakhov", "--n", "3", "--variant", "b",
                                "--format", "json")
        _, tsv_out, _ = invoke(capsys, "stakhov", "--n", "3", "--variant", "b",
                               "--format", "tsv")
        record = parse_json(json_out)["results"][0]
        assert float(tsv_out.strip()) == record["value"]

    def test_harmonic_grid_json_vs_tsv(self, capsys):
        _, json_out, _ = invoke(capsys, "harmonic", "--size", "5", "--format", "json")
        _, tsv_out, _ = invoke(capsys, "harmonic", "--size", "5", "--format", "tsv")
        rows = parse_json(json_out)["results"]
        for row, line in zip(rows, tsv_out.splitlines()):
            assert [int(v) for v in line.split("\t")] == row


class TestCommandSurfaces:
    def test_solve_json_payload(self, capsys):
        _, out, _ = invoke(capsys, "solve", "--n", "2", "--m", "2", "--format", "json")
        payload = parse_json(out)
        assert payload["command"] == "solve"
        assert payload["inputs"]["r"] == 5
        top = payload["results"][0]
        assert top["exact"] == {"a_num": -1, "a_den": 2, "b_num": 1, "b_den": 2, "d": 5}
        assert top["satisfactory"] is True
        assert top["decimal"].startswith("0.6180339887")

    def test_solve_digits_are_exact_prefixes(self, capsys):
        _, short_out, _ = invoke(capsys, "solve", "--n", "2", "--m", "1",
                                 "--digits", "7", "--format", "json")
        _, long_out, _ = invoke(capsys, "solve", "--n", "2", "--m", "1",
                                "--digits", "20", "--format", "json")
        short_dec = json.loads(short_out)["results"][0]["decimal"]
        long_dec = json.loads(long_out)["results"][0]["decimal"]
        assert short_dec == "0.3660254"
        assert long_dec.startswith(short_dec)

    def test_metallic_with_continued_fraction(self, capsys):
        _, out, _ = invoke(capsys, "metallic", "--p", "2", "--q", "1",
                           "--cf-terms", "10", "--format", "json")
        record = parse_json(out)["results"][0]
        assert record["exact"] == {"a_num": 1, "a_den": 1, "b_num": 1, "b_den": 1, "d": 2}
        assert record["cf_initial"] == [2]
        assert record["cf_period"] == [2]
        assert record["cf_truncated"] is False

    def test_metallic_accepts_fraction_q(self, capsys):
        code, out, _ = invoke(capsys, "metallic", "--p", "1", "--q", "1/2",
                              "--format", "json")
        assert code == 0
        record = parse_json(out)["results"][0]
        assert record["exact"]["d"] == 3  # (1 + sqrt3)/2

    def test_mmf_roots(self, capsys):
        _, out, _ = invoke(capsys, "mmf", "--n", "3", "--p", "2", "--sign", "minus",
                           "--m", "2", "--format", "json")
        values = [r["value"] for r in parse_json(out)["results"]]
        for v in values:
            assert abs(v ** 3 - 2 * v - 1.0) < 1e-10

    def test_euler_constrained(self, capsys):
        _, out, _ = invoke(capsys, "euler", "--a", "0", "--n", "2", "--x", "1/2",
                           "--mode", "constrained", "--format", "json")
        top = parse_json(out)["results"][0]
        assert abs(top["value"] - 0.6180339887498949) < 1e-9

    def test_harmonic_key(self, capsys):
        _, out, _ = invoke(capsys, "harmonic", "--size", "10", "--key", "9",
                           "--format", "json")
        records = parse_json(out)["results"]
        assert records[-1] == {"k": 9, "square_plus_side": 90, "product": 90}

    def test_table1_right_side_only(self, capsys):
        _, out, _ = invoke(capsys, "table1", "--rows", "3", "--side", "right",
                           "--format", "json")
        records = parse_json(out)["results"]
        assert all(r["side"] == "right" for r in records)
        assert [r["r"] for r in records] == [1, 3, 5]

    def test_solve_honors_tolerance_flag(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--n", "3", "--m", "2",
                              "--tol", "1e-6", "--format", "json")
        assert code == 0
        payload = parse_json(out)
        assert payload["inputs"]["tolerance"] == 1e-6
        record = payload["results"][0]
        assert record["residual"] <= 1e-6 * (1 + abs(record["value"]) ** 3)

    def test_solve_echoes_tolerance_at_degree_two(self, capsys):
        # n = 2 takes its roots from their surds, so --tol changes no field but is echoed
        code, out, _ = invoke(capsys, "solve", "--n", "2", "--m", "2",
                              "--tol", "1e-6", "--format", "json")
        _, default, _ = invoke(capsys, "solve", "--n", "2", "--m", "2", "--format", "json")
        assert code == 0
        assert parse_json(out)["inputs"]["tolerance"] == 1e-6
        assert parse_json(out)["results"] == parse_json(default)["results"]

    def test_zero_root_not_marked_satisfactory(self, capsys):
        _, out, _ = invoke(capsys, "solve", "--n", "2", "--m", "0", "--format", "json")
        records = parse_json(out)["results"]
        assert not any(r["satisfactory"] for r in records)


class TestSurdJson:
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=-50, max_value=50, max_denominator=60),
           st.fractions(min_value=-50, max_value=50, max_denominator=60),
           st.sampled_from([0, 2, 3, 5, 6, 7, 10, 30]))
    def test_fields_of_the_rationals(self, rat, coeff, d):
        surd = QuadraticSurd(rat, coeff, d)
        assert json.loads("{%s}" % cli._surd_fields(surd))["exact"] == {
            "a_num": surd.rat.numerator, "a_den": surd.rat.denominator,
            "b_num": surd.coeff.numerator, "b_den": surd.coeff.denominator, "d": surd.radicand}

    def test_reducible_negative_parts(self):
        surd = QuadraticSurd(Fraction(-3, 4), Fraction(-1, 6), 5)  # (-9 - 2*sqrt5)/12
        assert (surd._p, surd._q, surd._den) == (-9, -2, 12)
        assert json.loads("{%s}" % cli._surd_fields(surd))["exact"] == {
            "a_num": -3, "a_den": 4, "b_num": -1, "b_den": 6, "d": 5}


class TestMetallicBuildsOnlyWhatItPrints:
    """``metallic --cf-terms`` expands the continued fraction once, before any output, and
    each format's line reads only what it prints: TSV has no ``cf_truncated`` member."""

    def test_truncated_read_by_json_alone(self, capsys, monkeypatch):
        reads = []

        class Counted(ContinuedFraction):
            @property
            def truncated(self):
                reads.append(self)
                return self[2]

        expand = cli.continued_fraction_of
        monkeypatch.setattr(cli, "continued_fraction_of",
                            lambda mean, terms: Counted(*expand(mean, terms)))
        counts = []
        for fmt in ("tsv", "json"):
            argv = ("metallic", "--p", "11", "--q", "1/24", "--cf-terms", "5", "--format", fmt)
            assert invoke(capsys, *argv)[0] == 0
            counts.append(len(reads))
        assert counts == [0, 1]


class TestCfTermsBound:
    @pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
    def test_above_the_bound(self, capsys, fmt):
        code, out, err = invoke(capsys, "metallic", "--p", "1", "--q", "1",
                                "--cf-terms", str(MAX_CF_TERMS + 1), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (f"error: input-too-large: {MAX_CF_TERMS + 1} continued-fraction terms "
                       f"exceed the bound {MAX_CF_TERMS}\n")

    def test_the_bound_itself(self, capsys):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "metallic", "--p", "1", "--q", "249999999999999999",
                              "--cf-terms", str(MAX_CF_TERMS), "--format", "tsv")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert len(out.split("\t")[1].split(",")) == MAX_CF_TERMS


#: texts a rational option may get: plain ASCII ones that ``int()`` reads, and every other
#: form Fraction's regex reads or refuses
_FRACTION_TEXTS = [
    "0", "7", "007", "07/010", "0/5", "12/8", "0/0", "1/0", "1/00", "5/", "/5", "/", "",
    " 3", "3 ", " 3/4 ", "3 /4", "+3", "-3/4", "3/-4", "1_000", "1_000/1_0", "1__000", "_1",
    "١٢/٣", "٣", "²", "3/4/5", "1.5", "1e3", "1e-3", ".5", "0x10", "inf", "nan",
    "1" * 4300, "1" * 4301, "1/" + "1" * 4301, "1" * 4301 + "/3",
]


def _fraction_or_error(text: str):
    """``Fraction(text)``, or the usage error ``_fraction`` gives where Fraction raises."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"not a rational number: {text!r}"


def _cli_fraction_or_error(text: str):
    try:
        value = cli._fraction(text)
    except Exception as exc:  # argparse's ArgumentTypeError
        return str(exc)
    assert type(value) is Fraction
    return value


class TestFractionOption:
    """``_fraction`` reads plain ``a`` and ``a/b`` with ``int()``, and gives what
    ``Fraction(text)`` gives, or the same usage error, for every text."""

    @pytest.mark.parametrize("text", _FRACTION_TEXTS, ids=lambda t: repr(t)[:20])
    def test_as_fraction_reads_it(self, text):
        assert _cli_fraction_or_error(text) == _fraction_or_error(text)

    @settings(max_examples=500, deadline=None)
    @given(st.text("0123456789/+-_ .٣²", max_size=12))
    def test_any_text(self, text):
        assert _cli_fraction_or_error(text) == _fraction_or_error(text)

    @pytest.mark.parametrize("q", ["0/0", "1/00"])
    def test_a_zero_denominator_is_a_usage_error(self, capsys, q):
        code, out, err = invoke(capsys, "metallic", "--p", "1", "--q", q)
        assert (code, out) == (1, "")
        assert err.endswith(f"argument --q: not a rational number: {q!r}\n")


_PERFECT = st.builds(lambda k: (k * k - 1) // 2, st.integers(0, 10 ** 6).map(lambda k: 2 * k + 1))


class TestSolveTwoRootsDigits:
    """``solve --n 2`` prints x2 = -1 - x1 as x1's digits with the whole part one larger."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.just(0), _PERFECT, st.integers(0, 10 ** 12),
                     st.sampled_from([499999999999999994, 499999999999999999])),
           st.one_of(st.integers(1, 1000), st.sampled_from([1, 1000])))
    def test_x2_as_to_decimal_renders_it(self, m, digits):
        pair = cli.generalized_gm(m)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["solve", "--n", "2", "--m", str(m), "--digits", str(digits),
                        "--format", "json"]) == 0
        x1, x2 = json.loads(out.getvalue())["results"]
        assert x1["decimal"] == cli.to_decimal(pair.x1, digits)
        assert x2["decimal"] == cli.to_decimal(pair.x2, digits)
        assert (x1["satisfactory"], x2["satisfactory"]) == (m > 0, False)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            run(["solve", "--n", "2", "--m", str(m), "--digits", str(digits)])
        assert text.getvalue().splitlines()[1].startswith(
            f"x2 = {cli.to_decimal(pair.x2, digits)}   [")
