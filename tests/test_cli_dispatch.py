"""``cli.run`` parses a well-formed argv from the command table, without argparse.

The strict pass must leave every namespace, exit code, stdout and stderr as
argparse's full parser makes them, and it must keep argparse out of the
common path.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from goldmean import cli

# the benchmark's argv generator, loaded by path so its siblings stay off sys.path
_spec = importlib.util.spec_from_file_location(
    "corpus", Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

EDGE_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["bogus", "--n", "3"],
    ["solve", "-h"],
    ["solve", "--bogus", "-h"],
    ["solve", "--n", "3"],
    ["solve", "--n", "three", "--m", "2"],
    ["solve", "--n", "0", "--m", "2"],
    ["stakhov", "--n", "3", "--variant", "c"],
    ["solve", "--n", "3", "--m", "2", "--dig", "5", "--form", "json"],
    ["solve", "--n=3", "--m=2"],
    ["euler", "--a=-3", "--n", "2", "--x", "1", "--mode", "direct"],
    ["metallic", "--p", "1", "--q=-1/5", "--cf-terms=4"],
    ["solve", "--", "--n", "3"],
    ["solve", "--n", "3", "--m", "2", "--"],
    ["--", "solve", "--n", "3", "--m", "2"],
    ["solve", "--n", "3", "--n", "4", "--m", "2"],
    ["solve", "--n", "3", "--m", "2", "extra"],
    ["solve", "extra", "--n", "3", "--m", "2"],
    ["solve", "--n", "3", "--m", "2", "--bogus"],
    ["--format", "json", "solve", "--n", "3", "--m", "2"],
    ["-h", "solve"],
    ["solve", "--h"],
    ["harmonic", "--size", "3", "--doublets", "--key", "2"],
    ["table1", "--rows", "2", "--side", "middle"],
    ["diophantus", "--count", "2", "--count", "3"],
    ["euler", "--a", "-3/2", "--n", "2", "--x", "1", "--mode", "direct"],
    ["euler", "--a", "-3", "--n", "2", "--x", "-0.5", "--mode", "direct"],
    ["metallic", "--p", "1", "--q", "-1/5"],
    ["solve", "--n", "3", "--m", "2", "--tol", "-1e-3"],
    ["harmonic", "--size", "3", "--doublets=yes"],
    # forms a whole-token lookup misses, split at '=' alone
    ["solve", "--n", "3", "--m", "2", "--format=json"],
    ["table1", "--rows", "2", "--side=both"],
    ["stakhov", "--n", "3", "--variant=a"],
    ["harmonic", "--size", "3", "--doublets="],
    ["metallic", "--p", "1", "--q="],
    ["solve", "--n", "3", "--m", "2", "--digits=5", "--digits", "6"],
    ["metallic", "--p", "1", "--q", "1", "--cf-terms=-1"],
]


class _Parsed(Exception):
    """Stops ``cli.run`` at its handler, carrying the namespace it parsed."""


def _stop(ns):
    raise _Parsed(ns)


def _fields(ns) -> dict:
    # the handler is a stub; the command names the real one.  Values compare by
    # repr, since a nan (``--tol nan``) equals no float, not even itself
    return {k: repr(v) for k, v in vars(ns).items() if k != "handler"}


@pytest.fixture
def via_run(monkeypatch, capsys):
    """What ``cli.run`` parses: ("ns", fields) or ("exit", code, stdout, stderr)."""
    monkeypatch.setattr(cli, "_parser", None)  # so argparse's parser is built from the stubs
    for command, (_, summary, options) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, command, (_stop, summary, options))
    codes = []
    real_exit = argparse.ArgumentParser.exit

    def exit(self, status=0, message=None):
        codes.append(status)
        real_exit(self, status, message)

    monkeypatch.setattr(argparse.ArgumentParser, "exit", exit)

    def parse(argv):
        try:
            cli.run(argv)
        except _Parsed as parsed:
            return ("ns", _fields(parsed.args[0]))
        return ("exit", codes[-1], *capsys.readouterr())

    return parse


def full_parse(parser, argv, capsys):
    """What the full parser makes of argv, in the form of ``via_run``."""
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return ("exit", exc.code, *capsys.readouterr())
    return ("ns", _fields(ns))


class TestSameAsFullParser:
    @pytest.mark.parametrize("argv", EDGE_ARGV, ids=" ".join)
    def test_edge_argv(self, via_run, capsys, argv):
        expected = full_parse(cli.build_parser(), argv, capsys)
        assert via_run(argv) == expected

    @pytest.mark.parametrize("argv", [["solve", "--n", "3", "--m", "2"], ["solve", "--n", "3"],
                                      ["solve", "--n", "3", "--m", "2", "x"], ["--help"]])
    def test_argv_none_reads_sys_argv(self, via_run, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["goldmean", *argv])
        expected = full_parse(cli.build_parser(), None, capsys)
        assert via_run(None) == expected

    def test_namespace_of_a_full_parse_is_kept(self, via_run, capsys, monkeypatch):
        # argparse 3.12.7+ and 3.13.1+ drop a '--' before the command and parse the rest
        monkeypatch.setattr(cli, "_parser", cli.build_parser())
        real = cli._parser.parse_args
        monkeypatch.setattr(cli._parser, "parse_args",
                            lambda argv: real(argv[1:] if argv[:1] == ["--"] else argv))
        argv = ["solve", "--n", "3", "--m", "2"]
        assert via_run(["--", *argv]) == full_parse(cli.build_parser(), argv, capsys)

    @pytest.mark.parametrize("workload", sorted(corpus.GENERATORS))
    def test_perfbench_corpus(self, via_run, capsys, workload):
        parser = cli.build_parser()
        distinct = {tuple(op["argv"]) for seed in (1, 2, 3) for op in corpus.generate(workload, seed)}
        for argv in sorted(distinct):
            expected = full_parse(parser, list(argv), capsys)
            assert expected[0] == "ns"
            assert via_run(list(argv)) == expected, argv


OPTIONS = sorted({*cli._COMMON, *(flag for _, _, own in cli._COMMANDS.values() for flag in own)})
VALUES = ["0", "1", "12", " 7", "1_0", "-1", "-3", "-0.5", "-3/2", "-1e-3", "-1/5", "1/2", "2.5",
          "1e3", "1e1001", "nan", "x", "", "-", "--n"]
NOISE = st.one_of(
    st.sampled_from([*OPTIONS, *VALUES, "-h", "--help", "--", "bogus", "solve"]),
    st.builds("{}={}".format, st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
    st.builds(lambda flag, k: flag[:k], st.sampled_from(OPTIONS), st.integers(2, 5)),
)


@st.composite
def argvs(draw):
    """Mostly well-formed argv: each option of one command 0-2 times (a required one at
    least once), in any order and either form, with good and bad values and a little noise."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = {**cli._COMMON, **cli._COMMANDS[command][2]}
    tokens = []
    for flag in draw(st.permutations(sorted(options))):
        keywords = options[flag]
        for _ in range(draw(st.integers(1 if keywords.get("required") else 0, 2))):
            if "action" in keywords:
                tokens.append(draw(st.sampled_from([flag, flag, f"{flag}=1"])))
                continue
            good = st.sampled_from(keywords.get("choices", ("1", "3", "12")))
            value = draw(st.one_of(good, good, st.sampled_from(VALUES)))
            tokens += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(NOISE))
    return draw(st.sampled_from([[command]] * 5 + [[], [command[:3]], ["--", command]])) + tokens


class TestFuzz:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argvs())
    def test_same_as_full_parser(self, via_run, capsys, argv):
        assert via_run(argv) == full_parse(cli.build_parser(), argv, capsys)


WELL_FORMED = [
    ["solve", "--n", "3", "--m", "2"],
    ["mmf", "--n", "3", "--p", "1", "--sign", "plus", "--m", "2"],
    ["stakhov", "--n", "3", "--variant", "a"],
    ["euler", "--a", "1", "--n", "2", "--x", "1", "--mode", "direct"],
    ["metallic", "--p", "1", "--q", "1"],
    ["table1", "--rows", "2"],
    ["diophantus", "--count", "2"],
    ["harmonic", "--size", "3"],
]


class TestTopLevelPassSkipped:
    """No argparse parser parses a well-formed argv; help and usage errors take the full one."""

    @pytest.fixture
    def top_level_passes(self, monkeypatch):
        """Names of argparse's parse methods, one per call on any parser, the cached one built."""
        monkeypatch.setattr(cli, "_parser", cli.build_parser())
        calls = []
        for name in ("parse_args", "parse_known_args"):
            real = getattr(argparse.ArgumentParser, name)
            monkeypatch.setattr(argparse.ArgumentParser, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        return calls

    def test_one_argv_per_command(self, capsys):
        assert [cli.run(argv) for argv in WELL_FORMED] == [cli.EXIT_OK] * len(WELL_FORMED)
        assert sorted(argv[0] for argv in WELL_FORMED) == sorted(cli._COMMANDS)

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
    def test_not_taken(self, top_level_passes, capsys, argv):
        cli.run(argv)
        capsys.readouterr()
        assert top_level_passes == []

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"],
                                      ["solve", "--n", "3", "--m", "2", "extra"]], ids=" ".join)
    def test_taken_for_help_unknown_command_and_extras(self, top_level_passes, capsys, argv):
        cli.run(argv)
        capsys.readouterr()
        assert top_level_passes.count("parse_args") == 1

    @pytest.mark.parametrize("argv", [["solve", "--n", "3"], ["harmonic", "--doublets"]],
                             ids=" ".join)
    def test_taken_for_a_missing_option(self, top_level_passes, capsys, argv):
        # argparse words the error, so the full parser reads the argv, once
        assert cli.run(argv) == cli.EXIT_USAGE
        assert "the following arguments are required" in capsys.readouterr().err
        assert top_level_passes.count("parse_args") == 1
