"""Record semantics shared by every spec and result class.

Each record is immutable, equal (with an equal hash) to a record rebuilt
from the same fields, printed as ``Name(field=value, ...)`` and unchanged
by a pickle round trip.  ``RootSet`` compares, hashes and prints by its
roots alone: the polynomial it keeps for :meth:`RootSet.truncate` is not a
field.
"""

import builtins
import contextlib
import importlib
import io
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from test_cli_dispatch import WELL_FORMED, corpus

import goldmean
from goldmean import (
    ContinuedFraction,
    DoubletReport,
    HarmonicTable,
    PythagoreanTriple,
    QuadraticSpec,
    RootRecord,
    TableOneRow,
    TrinomialSpec,
    TripletClass,
    build_table,
    classify_triplet,
    diophantus_triple,
    find_doublets,
    generalized_gm,
    solve_gm_general,
    table_one,
)
from goldmean import cli
from goldmean.cli import _Output
from goldmean.quadratics import solve_quadratic

_root = solve_gm_general(3, 2).roots[0]

#: (record, an equal record built another way, the fields its repr shows)
RECORDS = {
    "QuadraticSpec": (QuadraticSpec(1, 3, "minus"),
                      QuadraticSpec(p=1, q=Fraction(3), p_sign="minus"), ("p", "q", "p_sign")),
    "RootPair": (generalized_gm(2),
                 solve_quadratic(QuadraticSpec(1, Fraction(1), "plus")),
                 ("x1", "x2", "discriminant")),
    "ContinuedFraction": (ContinuedFraction((1,), (1,)),
                          ContinuedFraction(initial=(1,), period=(1,), truncated=False),
                          ("initial", "period", "truncated")),
    "PythagoreanTriple": (PythagoreanTriple(3, 4, 5), diophantus_triple(1), ("a", "b", "c")),
    "TableOneRow": (TableOneRow("right", 2, 2, 3, 5), table_one(3, "right")[2],
                    ("side", "index", "m", "h", "r")),
    "TripletClass": (classify_triplet((1, 1, 2)), TripletClass("fibonacci", (1, 2, 3)),
                     ("tag", "member_indices")),
    "HarmonicTable": (HarmonicTable(4), build_table(4), ("size",)),
    "DoubletReport": (list(find_doublets(build_table(3)))[1],
                      DoubletReport(1, 2, ((1, 2), (2, 1))), ("k", "q", "positions")),
    "TrinomialSpec": (TrinomialSpec(n=3, p=2, p_sign="minus", m=1, lower_exponent="n_minus_one"),
                      TrinomialSpec(3, 2, "minus", 1, "n_minus_one"),
                      ("n", "p", "p_sign", "m", "lower_exponent")),
    "RootRecord": (_root, RootRecord(_root.value, _root.bracket, _root.residual,
                                     _root.iterations),
                   ("value", "bracket", "residual", "iterations", "exact")),
    "RootSet": (solve_gm_general(3, 2), solve_gm_general(3, 2), ("roots",)),
    "_Output": (_Output({"n": 2}, [1], str, repr, None, ("r = 5\n",)),
                _Output(inputs={"n": 2}, records=[1], text=str, tsv=repr, json=None,
                        footer=("r = 5\n",)),
                ("inputs", "records", "text", "tsv", "json", "footer")),
}
#: every record whose fields are all hashable
HASHABLE = [name for name in RECORDS if name != "_Output"]
#: each record's field defaults; a record not named here has none
FIELD_DEFAULTS = {"RootRecord": {"exact": None}, "_Output": {"footer": ()},
                  "TripletClass": {"member_indices": None}}


@pytest.mark.parametrize("name", RECORDS)
def test_an_equal_rebuild_is_equal(name):
    record, rebuilt, _ = RECORDS[name]
    assert type(record).__name__ == name
    assert record is not rebuilt
    assert record == rebuilt


@pytest.mark.parametrize("name", HASHABLE)
def test_an_equal_rebuild_hashes_alike(name):
    record, rebuilt, _ = RECORDS[name]
    assert hash(record) == hash(rebuilt)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_each_field(name):
    record, _, fields = RECORDS[name]
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record, _, fields = RECORDS[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", RECORDS)
def test_fields_and_defaults(name):
    record, _, fields = RECORDS[name]
    assert type(record)._fields == fields
    assert type(record)._field_defaults == FIELD_DEFAULTS.get(name, {})


@pytest.mark.parametrize("name", RECORDS)
def test_no_instance_dict_but_the_root_sets_polynomial(name):
    record, _, _ = RECORDS[name]
    assert hasattr(record, "__dict__") == (name == "RootSet")


def test_a_record_built_with_its_default_is_equal_and_shows_it():
    record = TripletClass("neither")
    assert record == classify_triplet((1, 2, 4)) == TripletClass("neither", None)
    assert hash(record) == hash(classify_triplet((1, 2, 4)))
    assert repr(record) == "TripletClass(tag='neither', member_indices=None)"


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record, _, _ = RECORDS[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


class TestRootSetIsItsRoots:
    def test_two_solves_are_equal_and_hash_alike(self):
        first, second = solve_gm_general(3, 2), solve_gm_general(3, 2)
        assert first.poly is not second.poly
        assert first == second and hash(first) == hash(second)

    def test_repr_shows_no_object_address(self):
        assert " at 0x" not in repr(solve_gm_general(3, 2))

    def test_an_unpickled_set_still_truncates(self):
        roots = solve_gm_general(3, 2)
        copy = pickle.loads(pickle.dumps(roots))
        assert copy.roots[0].exact is None  # the float root, decided by the polynomial
        assert copy.truncate(copy.roots[0], 30) == roots.truncate(roots.roots[0], 30)


def _fresh(code: str, *argv: str, flags: tuple[str, ...] = ()) -> str:
    """Stdout of ``code`` run by a fresh interpreter with ``flags`` on this checkout's ``src``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: the exit code of ``cli.run(sys.argv[1:])``, then every module loaded
RUN_AND_LIST = """import contextlib, io, sys
from goldmean import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(code, *sys.modules)
"""

#: each argv and the standard-library modules its run must not load: no record or annotation
#: needs typing, and a harmonic grid or key run reads no rational, so it skips fractions and
#: the modules fractions imports
NO_STDLIB = {**{tuple(argv): ("typing",) for argv in WELL_FORMED}, **dict.fromkeys(
    [("harmonic", "--size", "3"), ("harmonic", "--size", "3", "--key", "2"),
     ("harmonic", "--size", "4", "--doublets")],
    ("typing", "fractions", "decimal", "numbers", "re"))}

#: ``cli.run(sys.argv[1:])``'s stdout, then its exit code and goldmean's submodules loaded
RUN_AND_SHOW = """import contextlib, io, sys
from goldmean import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(sys.argv[1:])
print(out.getvalue(), end="")
print(code, *sorted(m for m in sys.modules if m.startswith("goldmean.")))
"""

#: the surd and quadratic layers, which a trinomial run or a harmonic grid does not use
SURD_LAYERS = ("surds", "quadratics")

#: library modules a command's cold run must not load, for the argv of ``WELL_FORMED`` and
#: those below; the harmonic doublets' perfect-square test needs no surd arithmetic
NOT_LOADED = {
    **dict.fromkeys(("solve", "mmf", "stakhov", "euler"), ("triangles", "harmonic", *SURD_LAYERS)),
    "metallic": ("trinomials", "triangles", "harmonic"),
    "table1": ("trinomials", "harmonic"),
    "diophantus": ("trinomials", "harmonic", *SURD_LAYERS),
    "harmonic": ("trinomials", "triangles", *SURD_LAYERS),
}
ALSO_ALONE = [("harmonic", "--size", "4", "--doublets")]

#: argv whose run does use a surd layer: the layers it loads, and its stdout; ``solve`` at
#: n = 2 takes its roots from the surds alone and loads no trinomial solver
LOADS_A_SURD_LAYER = {
    ("solve", "--n", "2", "--m", "2"): (SURD_LAYERS, (
        "x1 = 0.6180339887 (satisfactory)   [(-1 + √5)/2]\n"
        "x2 = -1.6180339887   [(-1 - √5)/2]\n"
        "r = 5\n")),
    ("metallic", "--p", "1", "--q", "1"): (SURD_LAYERS, (
        "metallic mean (p=1, q=1) = (1 + √5)/2 = 1.6180339887\n")),
    # each right-side row checks its h and r against the roots of x^2 + x = m/2
    ("table1", "--rows", "2", "--side", "right"): (SURD_LAYERS, (
        "right  N=0  m=0  h=1  r=1\n"
        "right  N=1  m=1  h=2  r=3\n")),
}

#: catalog argv that print no surd and run none: neither surd layer nor ``fractions`` and the
#: modules it imports may load, though ``triangles`` holds the right-side rows' check
NO_SURD_RUN = [("diophantus", "--count", "3"), ("table1", "--rows", "3", "--side", "left")]

#: trinomial argv with a root known exactly, and their stdout: RootSet.truncate floors such a
#: root, a Fraction, by integer division, so the run loads the trinomial solver and no surd layer
EXACT_TRINOMIAL_ROOTS = {
    # x**3 - 3x - 2 = (x - 2)(x + 1)**2: the root -1 is known exactly, at a critical point
    ("mmf", "--n", "3", "--p", "3", "--sign", "minus", "--m", "4", "--digits", "30"): (
        "x1 = 2.000000000000000000000000000000 (satisfactory)\n"
        "x2 = -1.000000000000000000000000000000\n"),
    # x + 2x = 3/2, the linear case
    ("mmf", "--n", "1", "--p", "2", "--sign", "plus", "--m", "3"): (
        "x1 = 0.5000000000 (satisfactory)\n"),
    # (1 + b)/1 = 1: b = 0
    ("euler", "--a", "1", "--n", "1", "--x", "1", "--mode", "direct"): "x1 = 0.0000000000\n",
}


class TestColdImport:
    def test_the_cli_imports_neither_dataclasses_nor_inspect(self):
        code = ("import goldmean.cli, sys; "
                "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        assert _fresh(code) == "\n"

    @pytest.mark.parametrize("argv", [*WELL_FORMED, *ALSO_ALONE], ids=" ".join)
    def test_a_well_formed_run_loads_its_command_alone(self, argv):
        code, *loaded = _fresh(RUN_AND_LIST, *argv).split()
        assert code == "0"
        assert "argparse" not in loaded
        assert not {f"goldmean.{module}" for module in NOT_LOADED[argv[0]]} & set(loaded)

    @pytest.mark.parametrize("argv", NO_STDLIB, ids=" ".join)
    def test_a_well_formed_run_loads_no_standard_module_it_does_not_run(self, argv):
        # -S: a .pth file in site-packages may import typing or re before goldmean does
        code, *loaded = _fresh(RUN_AND_LIST, *argv, flags=("-S",)).split()
        assert code == "0"
        assert not set(NO_STDLIB[argv]) & set(loaded)

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
    def test_a_json_run_loads_no_json(self, argv):
        # the JSON frame and records are % formats of the command's own values
        code, *loaded = _fresh(RUN_AND_LIST, *argv, "--format", "json", flags=("-S",)).split()
        assert code == "0"
        assert "json" not in loaded

    @pytest.mark.parametrize("argv", LOADS_A_SURD_LAYER, ids=" ".join)
    def test_a_run_that_uses_a_surd_layer_loads_it_and_prints_its_digits(self, argv):
        layers, expected = LOADS_A_SURD_LAYER[argv]
        *lines, status = _fresh(RUN_AND_SHOW, *argv).splitlines(keepends=True)
        code, *loaded = status.split()
        assert ("".join(lines), code) == (expected, "0")
        assert {f"goldmean.{layer}" for layer in layers} <= set(loaded)
        assert ("goldmean.quadratics" in loaded) == ("quadratics" in layers)
        assert "goldmean.trinomials" not in loaded

    @pytest.mark.parametrize("argv", NO_SURD_RUN, ids=" ".join)
    def test_a_catalog_run_with_no_surd_loads_no_surd_layer(self, argv):
        # -S: a .pth file in site-packages may import re or decimal before goldmean does
        code, *loaded = _fresh(RUN_AND_LIST, *argv, flags=("-S",)).split()
        assert code == "0"
        assert "goldmean.triangles" in loaded
        unloaded = {"goldmean.surds", "goldmean.quadratics", "fractions", "decimal", "numbers"}
        assert not unloaded & set(loaded)

    @pytest.mark.parametrize("argv", EXACT_TRINOMIAL_ROOTS, ids=" ".join)
    def test_an_exact_trinomial_root_prints_with_the_trinomial_layer_alone(self, argv):
        *lines, status = _fresh(RUN_AND_SHOW, *argv).splitlines(keepends=True)
        code, *loaded = status.split()
        assert ("".join(lines), code) == (EXACT_TRINOMIAL_ROOTS[argv], "0")
        assert "goldmean.trinomials" in loaded
        assert not {f"goldmean.{module}" for module in NOT_LOADED[argv[0]]} & set(loaded)

    def test_the_trinomial_module_alone_loads_no_surd_layer(self):
        code = ("import goldmean.trinomials, sys; "
                "print(*sorted(m for m in sys.modules if m.startswith('goldmean.')))")
        loaded = _fresh(code).split()
        assert "goldmean.trinomials" in loaded
        assert not {f"goldmean.{layer}" for layer in SURD_LAYERS} & set(loaded)

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--n", "3"]], ids=" ".join)
    def test_help_and_usage_errors_load_argparse(self, argv):
        assert "argparse" in _fresh(RUN_AND_LIST, *argv).split()

    def test_a_star_import_of_the_cli_loads_no_command_module(self):
        code = ("from goldmean.cli import *; import sys; "
                "print(*sorted(m for m in sys.modules if m.startswith('goldmean.')))")
        loaded = _fresh(code).split()
        assert not {"goldmean.trinomials", "goldmean.triangles", "goldmean.harmonic"} & set(loaded)


class TestWarmRun:
    """A warm ``cli.run`` runs no import statement of the package: each library layer is
    bound on its first use."""

    def test_a_second_run_of_each_perfbench_argv_imports_nothing_of_the_package(
            self, monkeypatch):
        distinct = sorted({tuple(op["argv"]) for workload in corpus.GENERATORS
                           for seed in (1, 2, 3) for op in corpus.generate(workload, seed)})
        real, imports = builtins.__import__, []

        def counted(name, globals=None, locals=None, fromlist=(), level=0):
            if level > 0 or name.split(".")[0] == "goldmean":
                imports.append((name, level))
            return real(name, globals, locals, fromlist, level)

        offenders = {}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in distinct:
                cli.run(list(argv))  # the first run binds what the command uses
                monkeypatch.setattr(builtins, "__import__", counted)
                cli.run(list(argv))
                monkeypatch.setattr(builtins, "__import__", real)
                if imports:
                    offenders[" ".join(argv)] = imports[:]
                    imports.clear()
        assert offenders == {}
    def test_the_package_alone_loads_no_submodule(self):
        code = "import goldmean, sys; print(*sorted(m for m in sys.modules if 'goldmean' in m))"
        assert _fresh(code) == "goldmean\n"

    def test_every_public_name_is_its_home_modules_object(self):
        assert sorted(goldmean._HOME) == sorted(goldmean.__all__)
        for name, module in goldmean._HOME.items():
            home = importlib.import_module(f"goldmean.{module}")
            assert getattr(goldmean, name) is getattr(home, name), name

    def test_the_old_import_paths_of_the_shared_helpers_still_work(self):
        from goldmean import _exact
        from goldmean.quadratics import Sign, sign_value
        from goldmean.surds import MAX_DIGITS
        from goldmean.trinomials import TOLERANCE, RootRecord
        assert MAX_DIGITS is _exact.MAX_DIGITS
        assert Sign is _exact.Sign
        assert sign_value is _exact.sign_value
        assert TOLERANCE is _exact.TOLERANCE
        assert RootRecord is _exact.RootRecord

    def test_star_import_and_dir(self):
        code = ("from goldmean import *; import goldmean; "
                "print(all(globals()[n] is getattr(goldmean, n) for n in goldmean.__all__), "
                "set(goldmean.__all__) <= set(dir(goldmean)))")
        assert _fresh(code) == "True True\n"

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'solve'"):
            goldmean.solve
        with pytest.raises(ImportError):
            from goldmean import bogus  # noqa: F401
