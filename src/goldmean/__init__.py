"""Exact toolkit for golden and metallic means.

Quadratic surd arithmetic with digit-exact decimals and periodic continued
fractions; closed-form quadratic roots and the metallic-means family;
certified real roots for the trinomial generalizations x**n ± p*x**e = m/2;
the Diophantus triangle catalog; and the harmonic multiplication table.

Each public name is imported from its submodule on first use (PEP 562), so
``import goldmean.cli`` loads only the submodules a command needs.
"""

__version__ = "0.1.0"

_HOMES = {
    "_exact": ("TOLERANCE", "RootRecord", "integer_metallic"),
    "errors": ("CrossCheckFailed", "DegenerateIdentity", "DomainError", "InputTooLarge",
               "MixedRadicands", "NoConvergence", "NonPositive", "NoRealRoot", "NoRealRoots"),
    "harmonic": ("DoubletReport", "HarmonicTable", "build_table", "cross_check_integer_means",
                 "find_doublets", "key_rows"),
    "quadratics": ("QuadraticSpec", "RootPair", "generalized_gm", "metallic_mean",
                   "solve_quadratic"),
    "surds": ("ContinuedFraction", "QuadraticSurd", "Rational", "continued_fraction_of",
              "surd_compare", "to_decimal"),
    "triangles": ("PythagoreanTriple", "TableOneRow", "TripletClass", "classify_triplet",
                  "diophantus_triple", "diophantus_triples", "four_k_sequence",
                  "left_to_right_index", "table_one"),
    "trinomials": ("RootSet", "TrinomialSpec", "isolate_real_roots", "solve_euler",
                   "solve_gm_general", "solve_stakhov", "solve_trinomial", "stakhov_decimal"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, whose imports -X importtime does not list
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
