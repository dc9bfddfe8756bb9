"""``cli.run`` parses a well-formed argv with its subcommand's parser alone.

The shortcut must leave every namespace, exit code, stdout and stderr as the
full parser makes them, and it must keep the top-level pass out of the
common path.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import pytest

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
]


class _Parsed(Exception):
    """Stops ``cli.run`` at its handler, carrying the namespace it parsed."""


def _stop(ns):
    raise _Parsed(ns)


def _fields(ns) -> dict:
    # the handler is the stub on one side; the command names the real one
    return {k: v for k, v in vars(ns).items() if k != "handler"}


@pytest.fixture
def via_run(monkeypatch, capsys):
    """What ``cli.run`` parses: ("ns", fields) or ("exit", code, stdout, stderr)."""
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_commands", {})
    cli.run(["diophantus", "--count", "1"])
    capsys.readouterr()
    for sub in cli._commands.values():
        sub.set_defaults(handler=_stop)
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
        real = cli._parser.parse_args
        monkeypatch.setattr(cli._parser, "parse_args",
                            lambda argv: real(argv[1:] if argv[:1] == ["--"] else argv))
        argv = ["solve", "--n", "3", "--m", "2"]
        assert via_run(["--", *argv]) == full_parse(cli.build_parser(), argv, capsys)

    @pytest.mark.parametrize("workload", sorted(corpus.GENERATORS))
    def test_perfbench_corpus(self, via_run, capsys, workload):
        parser = cli.build_parser()
        distinct = {tuple(op["argv"]) for op in corpus.generate(workload, 1)}
        for argv in sorted(distinct):
            expected = full_parse(parser, list(argv), capsys)
            assert expected[0] == "ns"
            assert via_run(list(argv)) == expected, argv


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
    @pytest.fixture
    def top_level_passes(self, monkeypatch, capsys):
        """Names of the cached top-level parser's parse methods, one per call."""
        cli.run(["diophantus", "--count", "1"])
        capsys.readouterr()
        calls = []
        for name in ("parse_args", "parse_known_args"):
            real = getattr(cli._parser, name)
            monkeypatch.setattr(cli._parser, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        return calls

    def test_one_argv_per_command(self, capsys):
        assert [cli.run(argv) for argv in WELL_FORMED] == [cli.EXIT_OK] * len(WELL_FORMED)
        assert sorted(argv[0] for argv in WELL_FORMED) == sorted(cli._commands)

    @pytest.mark.parametrize("argv", [*WELL_FORMED, ["solve", "--n", "3"]], ids=" ".join)
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
