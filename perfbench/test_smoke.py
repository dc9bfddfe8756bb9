"""Smoke test of the benchmark on tiny corpora.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py -q``.
It lives outside ``tests/``, so the library's own suite does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

WORKLOADS = sorted(corpus.GENERATORS)


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def outcome(cli, argv, **params):
    op = {"argv": argv, "cmd": argv[0], "params": params, "fmt": "text", "digits": 10, "group": 0}
    for flag, key in (("--format", "fmt"), ("--digits", "digits")):
        if flag in argv:
            value = argv[argv.index(flag) + 1]
            op[key] = int(value) if key == "digits" else value
    _, code, out, err, exc = run.run_inprocess(cli, argv)
    return op, code, out, err, exc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload):
    first, again, other = (corpus.generate(workload, s) for s in (1, 1, 2))
    assert corpus.digest(first) == corpus.digest(again)
    assert corpus.digest(first) != corpus.digest(other)
    assert all(op["argv"][0] == op["cmd"] for op in first)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_accepts_a_tiny_corpus(cli, workload):
    ops = [op for op in corpus.generate(workload, 7) if op["cmd"] not in ("table1", "harmonic")
           or op["params"].get("rows", op["params"].get("size")) <= 300][:40]
    verdicts = [check.check(op, *run.run_inprocess(cli, op["argv"])[1:]) for op in ops]
    assert [v.reason for v in verdicts if v.status == "wrong"] == []


def test_checker_rejects_wrong_outputs(cli):
    op, code, out, err, exc = outcome(cli, ["metallic", "--p", "1", "--q", "1", "--digits", "7"], p=1, q=1, cf_terms=None)
    assert check.check(op, code, out, err, exc).status == "ok"
    assert check.check(op, code, out.replace("1.6180339", "1.6180338"), err, exc).status == "wrong"
    assert check.check(op, code, out.replace("√5", "√6"), err, exc).status == "wrong"

    op, code, out, err, exc = outcome(cli, ["table1", "--rows", "4", "--format", "tsv"], rows=4, side="both")
    assert check.check(op, code, out, err, exc).status == "ok"
    assert check.check(op, code, out.replace("\t13\t", "\t14\t"), err, exc).status == "wrong"

    op, code, out, err, exc = outcome(cli, ["harmonic", "--size", "5", "--format", "json"],
                                      size=5, doublets=False, key=None)
    assert check.check(op, code, out, err, exc).status == "ok"
    assert check.check(op, code, out.replace("16]", "15]"), err, exc).status == "wrong"

    op, code, out, err, exc = outcome(cli, ["mmf", "--n", "1", "--p", "1", "--sign", "minus", "--m", "4"],
                                      n=1, p=1, sign="minus", m=4)
    assert (code, check.check(op, code, out, err, exc).status) == (2, "ok")
    assert check.check(op, code, out, err + err, exc).status == "wrong"


def test_checker_classifies_the_float_path_defects(cli):
    op, *result = outcome(cli, ["solve", "--n", "3", "--m", "2", "--digits", "16"], n=3, m=2)
    assert check.check(op, *result) == ("known", "float-digits", {"count": 1, "decimals": ["0.6823278038283471"]})
    op, *result = outcome(cli, ["solve", "--n", "3", "--m", "2", "--digits", "30"], n=3, m=2)
    assert check.check(op, *result).reason == "decimal-context"
    op, *result = outcome(cli, ["solve", "--n", "3", "--m", "0"], n=3, m=0)
    assert check.check(op, *result).reason == "float-notation"


def test_formats_must_agree():
    same = {"decimals": ["1.5"], "values": [(1.5, 1.0, 2.0, 0.0)]}
    assert check.agree([same, {"decimals": ["1.5"]}]) is None
    assert check.agree([same, {"values": [(1.5, 1.0, 2.5, 0.0)]}]) == "formats disagree on values"


@pytest.mark.parametrize("workload,trace", [("closed_form", False), ("closed_form", True),
                                            ("cold_start", False), ("cold_start", True)])
def test_tiny_run_prints_every_metric(monkeypatch, capsys, workload, trace):
    full = corpus.GENERATORS[workload]
    monkeypatch.setitem(corpus.GENERATORS, workload, lambda seed: full(seed)[:12])
    result = run.run_workload(workload, 3, 0.01, trace)
    section = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in run.load_spec()[section]]
    assert list(result["metrics"]) == names
    assert result["correct"] and result["attempted"] >= 1
    printed = capsys.readouterr().out
    assert all(f"{name}: " in printed for name in names)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(PERF, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(PERF.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["command"][1] == "perfbench/run.py"


def test_pass_count_depends_only_on_workload_and_seconds():
    assert run.passes_for("trinomial", 20) == 10
    assert run.passes_for("catalog", 0.01) == 1
    assert all(run.passes_for(w, 20) >= 1 for w in WORKLOADS)


def test_attempted_and_failed_repeat_for_a_seed(monkeypatch, capsys):
    full = corpus.GENERATORS["trinomial"]
    monkeypatch.setitem(corpus.GENERATORS, "trinomial", lambda seed: full(seed)[:60])
    monkeypatch.setitem(run.PASS_SECONDS, "trinomial", 0.01)
    first, again = (run.run_workload("trinomial", 5, 0.03, False) for _ in range(2))
    assert (first["attempted"], first["failed"]) == (again["attempted"], again["failed"])
    assert first["attempted"] == 3 * sum(not op["verify_only"] for op in full(5)[:60])
