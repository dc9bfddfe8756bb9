"""Command-line front end.

Every invocation is deterministic: identical argv produces byte-identical
output.  Three formats are supported everywhere: ``text`` (human-readable),
``json`` (one object with keys command/inputs/results/errors) and ``tsv``
(tab-separated, one record per line).  The JSON ``errors`` key is reserved
and always ``[]``.  Exit codes: 0 success, 1 usage error, 2 domain error;
domain errors print a single ``error: <code>: ...`` line to stderr and
nothing to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import DomainError, InputTooLarge
from .harmonic import build_table, cross_check_integer_means, key_rows
from .quadratics import generalized_gm, metallic_mean
from .surds import MAX_DIGITS, QuadraticSurd, continued_fraction_of, to_decimal
from .triangles import MAX_TRIPLES, diophantus_triple, table_one
from .trinomials import (
    TOLERANCE,
    RootSet,
    TrinomialSpec,
    solve_euler,
    solve_gm_general,
    solve_stakhov,
    solve_trinomial,
    stakhov_decimal,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

#: Largest decimal exponent, in magnitude, a rational argument may carry
#: (``Fraction`` builds 10**exponent, which takes seconds near 10**7).
MAX_EXPONENT = 1000


class _Output(NamedTuple):
    """A command's records, made as they are read.  JSON prints them as one
    list, text ``text(record)`` for each and then ``footer``, TSV the
    ``columns`` a record has (a grid row as is).
    """

    inputs: dict
    records: Iterable
    text: Callable[..., str]
    columns: tuple[str, ...]
    footer: tuple[str, ...] = ()


def _surd_json(surd: QuadraticSurd) -> dict:
    return {
        "a_num": surd.rat.numerator,
        "a_den": surd.rat.denominator,
        "b_num": surd.coeff.numerator,
        "b_den": surd.coeff.denominator,
        "d": surd.radicand,
    }


_ROOT_COLUMNS = ("value", "bracket_lo", "bracket_hi", "residual")


def _root_records(roots: RootSet, digits: int,
                  exact: list[QuadraticSurd] | None = None) -> list[dict]:
    """Records for a root set, largest root first."""
    records = []
    for i, rec in enumerate(reversed(roots.roots)):
        if exact is not None:
            decimal, sign = to_decimal(exact[i], digits), exact[i].sign()
        else:
            decimal, sign = roots.truncate(rec, digits)
        record = {
            "label": f"x{i + 1}",
            "decimal": decimal,
            "value": rec.value,
            "bracket_lo": rec.bracket[0],
            "bracket_hi": rec.bracket[1],
            "residual": rec.residual,
            "iterations": rec.iterations,
            "satisfactory": sign > 0,
        }
        if exact is not None:
            record["exact"] = _surd_json(exact[i])
            record["surd"] = str(exact[i])
        records.append(record)
    return records


def _root_text(record: dict) -> str:
    mark = " (satisfactory)" if record["satisfactory"] else ""
    surd = f"   [{record['surd']}]" if "surd" in record else ""
    return f"{record['label']} = {record['decimal']}{mark}{surd}"


def _cmd_solve(ns) -> _Output:
    roots = solve_gm_general(ns.n, ns.m, tolerance=ns.tol)
    inputs = {"n": ns.n, "m": ns.m, "tolerance": ns.tol}
    exact, footer = None, ()
    if ns.n == 2:
        pair = generalized_gm(ns.m)
        exact = [pair.x1, pair.x2]
        inputs["r"] = 2 * ns.m + 1
        footer = (f"r = {inputs['r']}",)
    records = _root_records(roots, ns.digits, exact)
    return _Output(inputs, records, _root_text, _ROOT_COLUMNS, footer)


def _cmd_mmf(ns) -> _Output:
    spec = TrinomialSpec(n=ns.n, p=ns.p, p_sign=ns.sign, m=ns.m, lower_exponent="one")
    roots = solve_trinomial(spec)
    inputs = {"n": ns.n, "p": ns.p, "sign": ns.sign, "m": ns.m}
    return _Output(inputs, _root_records(roots, ns.digits), _root_text, _ROOT_COLUMNS)


def _cmd_stakhov(ns) -> _Output:
    value = solve_stakhov(ns.n, ns.variant)
    inputs = {"n": ns.n, "variant": ns.variant}
    records = [{"decimal": stakhov_decimal(ns.n, ns.variant, value, ns.digits), "value": value}]
    text = f"x = {{decimal}} (variant {ns.variant})".format_map
    return _Output(inputs, records, text, ("value",))


def _cmd_euler(ns) -> _Output:
    roots = solve_euler(ns.a, ns.n, ns.x, ns.mode)
    inputs = {"a": str(ns.a), "n": ns.n, "x": str(ns.x), "mode": ns.mode}
    return _Output(inputs, _root_records(roots, ns.digits), _root_text, _ROOT_COLUMNS)


def _cmd_metallic(ns) -> _Output:
    mean = metallic_mean(ns.p, ns.q)
    inputs = {"p": ns.p, "q": str(ns.q)}
    record = {
        "decimal": to_decimal(mean, ns.digits),
        "value": float(mean),
        "exact": _surd_json(mean),
        "surd": str(mean),
    }
    footer = ()
    if ns.cf_terms is not None:
        cf = continued_fraction_of(mean, ns.cf_terms)
        record.update(cf_initial=list(cf.initial), cf_period=list(cf.period),
                      cf_truncated=cf.truncated)
        footer = (f"continued fraction: {cf}",)
    text = f"metallic mean (p={ns.p}, q={ns.q}) = {{surd}} = {{decimal}}".format_map
    return _Output(inputs, [record], text, ("value", "cf_initial", "cf_period"), footer)


def _cmd_table1(ns) -> _Output:
    inputs = {"rows": ns.rows, "side": ns.side}
    records = ({"side": row.side, "index": row.index, "m": row.m, "h": row.h, "r": row.r}
               for row in table_one(ns.rows, ns.side))
    text = "{side:>5}  N={index}  m={m}  h={h}  r={r}".format_map
    return _Output(inputs, records, text, ("side", "index", "m", "h", "r"))


def _cmd_diophantus(ns) -> _Output:
    if ns.count > MAX_TRIPLES:
        raise InputTooLarge(f"count {ns.count} exceeds the bound {MAX_TRIPLES}")
    inputs = {"count": ns.count}
    records = ({"a": t.a, "b": t.b, "c": t.c}
               for t in map(diophantus_triple, range(ns.count)))
    return _Output(inputs, records, "{c}^2 = {b}^2 + {a}^2".format_map, ("a", "b", "c"))


def _harmonic_text(record) -> str:
    if not isinstance(record, dict):
        return _tsv_row(record, ())
    if "q" in record:
        return ("doublet q={q} at ({i1},{j1})/({i2},{j2}) "
                "-> integer pair ({pair_low}, {pair_high})").format_map(record)
    k = record["k"]
    return f"({k} x {k}) + {k} = {record['square_plus_side']} = {k} x {k + 1}"


def _cmd_harmonic(ns) -> _Output:
    table = build_table(ns.size)
    inputs = {"size": ns.size, "doublets": ns.doublets, "key": ns.key}
    columns = ("k", "q", "i1", "j1", "i2", "j2", "pair_low", "pair_high",
               "square_plus_side", "product")
    if not ns.doublets and ns.key is None:
        return _Output(inputs, table.rows(), _harmonic_text, columns)
    doublets = cross_check_integer_means(table) if ns.doublets else []
    keys = key_rows(ns.key) if ns.key is not None else []
    records = chain(({"k": k, "q": q, "i1": k, "j1": k + 1, "i2": k + 1, "j2": k,
                      "pair_low": k, "pair_high": high} for q, (k, high) in doublets),
                    ({"k": k, "square_plus_side": square_plus, "product": product}
                     for k, square_plus, product in keys))
    return _Output(inputs, records, _harmonic_text, columns)


def _cell(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _tsv_row(record, columns: tuple[str, ...]) -> str:
    if not isinstance(record, dict):
        return "\t".join(map(str, record))
    return "\t".join(_cell(record[c]) for c in columns if c in record)


def _emit(ns, out: _Output) -> None:
    if ns.format == "json":
        import json  # only this format needs it, so a cold start skips it
        print(json.dumps({"command": ns.command, "inputs": out.inputs,
                          "results": list(out.records), "errors": []}))
    elif ns.format == "tsv":
        for record in out.records:
            print(_tsv_row(record, out.columns))
    else:
        for line in chain(map(out.text, out.records), out.footer):
            print(line)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _fraction(text: str) -> Fraction:
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > MAX_EXPONENT):
        raise argparse.ArgumentTypeError(
            f"decimal exponent must be at most {MAX_EXPONENT} in magnitude: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _digits(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"digits must be in 1..{MAX_DIGITS}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "tsv"), default="text",
                        help="output format (default: text)")
    common.add_argument("--digits", type=_digits, default=10,
                        help="decimal rendering width (default: 10)")

    parser = argparse.ArgumentParser(
        prog="goldmean",
        description="Golden and metallic means: exact surds, certified trinomial "
                    "roots, triangle catalogs and the harmonic table.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common],
                       help="all real roots of x**n + x = m/2")
    p.set_defaults(handler=_cmd_solve)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_nonneg_int, required=True)
    p.add_argument("--tol", type=float, default=TOLERANCE,
                   help=f"scaled residual tolerance (default {TOLERANCE})")

    p = sub.add_parser("mmf", parents=[common],
                       help="all real roots of x**n ± p*x = m/2")
    p.set_defaults(handler=_cmd_mmf)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--sign", choices=("plus", "minus"), required=True)
    p.add_argument("--m", type=_nonneg_int, required=True)

    p = sub.add_parser("stakhov", parents=[common],
                       help="positive root of x**n + x = 1 (a) or x**n + x**(n-1) = 1 (b)")
    p.set_defaults(handler=_cmd_stakhov)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--variant", choices=("a", "b"), required=True)

    p = sub.add_parser("euler", parents=[common],
                       help="solve (a + b**n)/n = x for b")
    p.set_defaults(handler=_cmd_euler)
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--x", type=_fraction, required=True)
    p.add_argument("--mode", choices=("direct", "constrained"), required=True)

    p = sub.add_parser("metallic", parents=[common],
                       help="positive root of x**2 - p*x - q = 0, exact")
    p.set_defaults(handler=_cmd_metallic)
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--q", type=_fraction, required=True)
    p.add_argument("--cf-terms", type=_positive_int, default=None,
                   help="also expand this many continued-fraction terms")

    p = sub.add_parser("table1", parents=[common],
                       help="rows of the two-sided solution table")
    p.set_defaults(handler=_cmd_table1)
    p.add_argument("--rows", type=_positive_int, required=True)
    p.add_argument("--side", choices=("left", "right", "both"), default="both")

    p = sub.add_parser("diophantus", parents=[common],
                       help="Pythagorean triples (2N+1, 2N(N+1), 2N(N+1)+1)")
    p.set_defaults(handler=_cmd_diophantus)
    p.add_argument("--count", type=_positive_int, required=True)

    p = sub.add_parser("harmonic", parents=[common],
                       help="harmonic multiplication table, doublets and key")
    p.set_defaults(handler=_cmd_harmonic)
    p.add_argument("--size", type=_positive_int, required=True)
    p.add_argument("--doublets", action="store_true",
                   help="list diagonal doublets with their integer mean pairs")
    p.add_argument("--key", type=_nonneg_int, default=None, metavar="K",
                   help="print key rows (k, k^2 + k, k(k+1)) for k in 0..K")
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first run(), then reused
_commands: dict[str, argparse.ArgumentParser] = {}  # its subcommand parsers by name


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, emit; returns the process exit code."""
    global _parser, _commands
    if _parser is None:
        _parser = build_parser()
        # the top-level pass only finds the command parser: a choice of private _SubParsersAction
        _commands = next(a.choices for a in _parser._actions
                         if isinstance(a, argparse._SubParsersAction))
    argv = sys.argv[1:] if argv is None else argv
    try:
        sub = _commands.get(argv[0]) if argv else None
        ns, extras = sub.parse_known_args(argv[1:]) if sub else (None, None)
        if sub is None or extras:  # help, an unknown command or extra arguments:
            ns = _parser.parse_args(argv)  # the full parser reports them as it always did
        else:
            ns.command = argv[0]
    except SystemExit as exc:
        # argparse already printed usage/help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        out = ns.handler(ns)
    except DomainError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: invalid-argument: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(ns, out)
    return EXIT_OK


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; see "Note on SIGPIPE" in Python's signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
