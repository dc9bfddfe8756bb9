"""Exact toolkit for golden and metallic means.

Quadratic surd arithmetic with digit-exact decimals and periodic continued
fractions; closed-form quadratic roots and the metallic-means family;
certified real roots for the trinomial generalizations x**n ± p*x**e = m/2;
the Diophantus triangle catalog; and the harmonic multiplication table.
"""

from .errors import (
    CrossCheckFailed,
    DegenerateIdentity,
    DomainError,
    InputTooLarge,
    MixedRadicands,
    NoConvergence,
    NonPositive,
    NoRealRoot,
    NoRealRoots,
)
from .harmonic import (
    DoubletReport,
    HarmonicTable,
    build_table,
    cross_check_integer_means,
    find_doublets,
    key_rows,
)
from .quadratics import (
    QuadraticSpec,
    RootPair,
    generalized_gm,
    integer_metallic,
    metallic_mean,
    solve_quadratic,
)
from .surds import (
    ContinuedFraction,
    QuadraticSurd,
    Rational,
    continued_fraction_of,
    surd_compare,
    to_decimal,
)
from .triangles import (
    PythagoreanTriple,
    TableOneRow,
    TripletClass,
    classify_triplet,
    diophantus_triple,
    four_k_sequence,
    left_to_right_index,
    table_one,
)
from .trinomials import (
    TOLERANCE,
    RootRecord,
    RootSet,
    TrinomialSpec,
    isolate_real_roots,
    solve_euler,
    solve_gm_general,
    solve_stakhov,
    solve_trinomial,
    stakhov_decimal,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuedFraction",
    "CrossCheckFailed",
    "DegenerateIdentity",
    "DomainError",
    "DoubletReport",
    "HarmonicTable",
    "InputTooLarge",
    "MixedRadicands",
    "NoConvergence",
    "NonPositive",
    "NoRealRoot",
    "NoRealRoots",
    "PythagoreanTriple",
    "QuadraticSpec",
    "QuadraticSurd",
    "Rational",
    "RootPair",
    "RootRecord",
    "RootSet",
    "TOLERANCE",
    "TableOneRow",
    "TrinomialSpec",
    "TripletClass",
    "build_table",
    "classify_triplet",
    "continued_fraction_of",
    "cross_check_integer_means",
    "diophantus_triple",
    "find_doublets",
    "four_k_sequence",
    "generalized_gm",
    "integer_metallic",
    "isolate_real_roots",
    "key_rows",
    "left_to_right_index",
    "metallic_mean",
    "solve_euler",
    "solve_gm_general",
    "solve_quadratic",
    "solve_stakhov",
    "solve_trinomial",
    "stakhov_decimal",
    "surd_compare",
    "table_one",
    "to_decimal",
]
