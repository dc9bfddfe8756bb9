"""The names ``perfbench/spans.py`` patches in ``goldmean.cli`` are the ones it calls.

The tracer reads each library name with ``getattr`` on ``goldmean.cli`` and
sets a wrapper in its place with ``setattr``.  The handlers call each name as
``_cli.<name>``, an attribute of the module looked up when they run, so the
wrapper is what they call.  ``cli.__getattr__`` binds a name of the package's
``_HOME`` table on its first read, from the package, and no other name.
"""

import contextlib
import importlib
import io
import sys

import pytest

import goldmean

#: the library names each command's handler calls, for one argv of each command
CALLS = {
    # at n = 2 the roots are generalized_gm's surds: no trinomial solver runs
    ("solve", "--n", "2", "--m", "1"): {"generalized_gm", "to_decimal"},
    ("solve", "--n", "3", "--m", "2"): {"solve_gm_general"},
    ("mmf", "--n", "3", "--p", "1", "--sign", "plus", "--m", "2"): {"TrinomialSpec",
                                                                     "solve_trinomial"},
    ("stakhov", "--n", "3", "--variant", "a"): {"solve_stakhov", "stakhov_decimal"},
    ("euler", "--a", "1", "--n", "2", "--x", "1", "--mode", "direct"): {"solve_euler"},
    ("metallic", "--p", "1", "--q", "1", "--cf-terms", "3"): {"metallic_mean", "to_decimal",
                                                             "continued_fraction_of"},
    ("table1", "--rows", "2"): {"table_one"},
    ("diophantus", "--count", "2"): {"diophantus_triples"},
    ("harmonic", "--size", "3", "--doublets", "--key", "2"): {"build_table",
                                                             "cross_check_integer_means",
                                                             "key_rows"},
}
NAMES = sorted(set().union(*CALLS.values()))


@pytest.fixture
def fresh_cli(monkeypatch):
    """A newly imported ``goldmean.cli``, with no library name read yet; the old one after."""
    monkeypatch.setattr(goldmean, "cli", importlib.import_module("goldmean.cli"))
    monkeypatch.delitem(sys.modules, "goldmean.cli")
    return importlib.import_module("goldmean.cli")


def test_fifteen_names():
    assert len(NAMES) == 15


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_each_wrapper_is_called(fresh_cli, argv):
    called = set()
    for name in NAMES:
        def wrapper(*args, _name=name, _real=getattr(fresh_cli, name), **kwargs):
            called.add(_name)
            return _real(*args, **kwargs)
        setattr(fresh_cli, name, wrapper)
    with contextlib.redirect_stdout(io.StringIO()):
        assert fresh_cli.run(list(argv)) == 0
    assert called == CALLS[argv]


class TestTrianglesBindsTheQuadraticSolverLate:
    """``triangles`` binds ``generalized_gm`` on its first read, and its right-side rows call
    it as ``_triangles.generalized_gm``, so a wrapper set there with ``setattr`` is called
    (``tests/test_triangles.py::TestInvariantsRaise`` sets such wrappers)."""

    def test_the_name_is_the_quadratic_solver(self):
        from goldmean import quadratics, triangles
        assert triangles.generalized_gm is quadratics.generalized_gm

    def test_an_unknown_name_is_an_attribute_error(self):
        from goldmean import triangles
        with pytest.raises(AttributeError,
                           match="^module 'goldmean.triangles' has no attribute 'x'$"):
            triangles.x


class TestNameGuard:
    """``cli.__getattr__`` lends the package's library names alone, not its attributes."""

    @pytest.mark.parametrize("name", ["__path__", "__all__", "__version__"])
    def test_package_attributes_are_not_lent(self, fresh_cli, name):
        assert not hasattr(fresh_cli, name)

    def test_an_unknown_name_is_an_attribute_error(self, fresh_cli):
        with pytest.raises(AttributeError, match="^module 'goldmean.cli' has no attribute 'x'$"):
            fresh_cli.x
