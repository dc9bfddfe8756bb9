"""Command-line front end.

Every invocation is deterministic: identical argv produces byte-identical
output.  Three formats are supported everywhere: ``text`` (human-readable),
``json`` (one object with keys command/inputs/results/errors) and ``tsv``
(tab-separated, one record per line).  The JSON ``errors`` key is reserved
and always ``[]``.  Exit codes: 0 success, 1 usage error, 2 domain error;
domain errors print a single ``error: <code>: ...`` line to stderr and
nothing to stdout.  A command imports only the modules its answer runs:
each library layer on its first use, and ``fractions``, ``json`` and
``argparse`` inside the functions that need them.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from itertools import chain
from math import gcd
from types import SimpleNamespace

from . import _HOME
from ._exact import MAX_DIGITS, TOLERANCE, RootRecord
from .errors import DomainError

TYPE_CHECKING = False  # true for a type checker alone, so no run imports typing
if TYPE_CHECKING:
    import argparse
    from collections.abc import Callable, Iterable
    from fractions import Fraction

    from .surds import QuadraticSurd
    from .trinomials import RootSet

#: this module; handlers call ``_cli.<name>``, so a wrapper set here by ``setattr`` is called
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """Bind a name of the package's table on its first read, importing its home module alone."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

#: Largest decimal exponent, in magnitude, a rational argument may carry
#: (``Fraction`` builds 10**exponent, which takes seconds near 10**7).
MAX_EXPONENT = 1000


class _Output(namedtuple("_Output", "inputs records text tsv json footer", defaults=((),))):
    """A command's records, made as they are read, and each format's line of one record.
    Text writes ``text(record)`` lines and then those of ``footer``, an iterable, lazy where
    a line costs work, that no other format reads; TSV ``tsv(record)`` lines, and JSON each ``json(record)``, joined by
    ", ", inside a frame of the command, its inputs and the empty errors, so no format holds
    the whole result.  A record is a library value, such as a catalog's tuple or a root's
    ``(index, RootRecord)``, and a line computes only what its format prints: TSV prints
    floats and decides no digits.
    """

    __slots__ = ()


def _surd_json(surd: QuadraticSurd) -> dict:
    """``rat`` and ``coeff`` in lowest terms: ``p/den`` and ``q/den``, each cut by a gcd."""
    p, q, den = surd._p, surd._q, surd._den
    g, h = gcd(p, den), gcd(q, den)
    return {"a_num": p // g, "a_den": den // g, "b_num": q // h, "b_den": den // h, "d": surd._d}


def _surd_fields(surd: QuadraticSurd) -> str:
    """A surd's ``exact`` and ``surd`` JSON members; json.dumps writes ``√`` as its escape."""
    return ('"exact": {"a_num": %(a_num)d, "a_den": %(a_den)d, "b_num": %(b_num)d, '
            '"b_den": %(b_den)d, "d": %(d)d}' % _surd_json(surd)
            + ', "surd": "%s"' % str(surd).replace("√", "\\u221a"))


def _roots(inputs: dict, records: Iterable[RootRecord],
           decide: Callable[[RootRecord], tuple[str, int]], footer: tuple[str, ...] = (),
           surds: bool = False) -> _Output:
    """Each root as (index, RootRecord), from ``records`` largest first.  Text and JSON take
    its digits and sign from ``decide``; with ``surds`` its surd ``exact`` is shown too."""
    def text(record) -> str:
        i, root = record
        decimal, sign = decide(root)
        mark = " (satisfactory)" if sign > 0 else ""
        surd = f"   [{root.exact}]" if surds else ""
        return f"x{i} = {decimal}{mark}{surd}\n"

    def as_json(record) -> str:
        i, root = record
        decimal, sign = decide(root)
        line = ('{"label": "x%d", "decimal": "%s", "value": %r, "bracket_lo": %r, '
                '"bracket_hi": %r, "residual": %r, "iterations": %d, "satisfactory": %s' % (
                    i, decimal, root.value, *root.bracket, root.residual,
                    root.iterations, "true" if sign > 0 else "false"))
        return line + (", " + _surd_fields(root.exact) + "}" if surds else "}")

    return _Output(inputs, enumerate(records, 1), text,
                   lambda r: "%r\t%r\t%r\t%r\n" % (r[1].value, *r[1].bracket, r[1].residual),
                   as_json, footer)


def _root_set(inputs: dict, roots: RootSet, digits: int) -> _Output:
    """A solver's roots, their digits and signs decided by ``RootSet.truncate``."""
    return _roots(inputs, reversed(roots.roots), lambda root: roots.truncate(root, digits))


def _cmd_solve(ns) -> _Output:
    inputs = {"n": ns.n, "m": ns.m, "tolerance": ns.tol}
    if ns.n != 2:
        return _root_set(inputs, _cli.solve_gm_general(ns.n, ns.m, tolerance=ns.tol), ns.digits)
    if not ns.tol > 0:  # checked as the solver checks it, though the surds need no tolerance
        raise ValueError("tolerance must be positive")
    from .surds import _doubles  # only this branch needs the surd layer, so it is loaded here
    pair = _cli.generalized_gm(ns.m)
    inputs["r"] = 2 * ns.m + 1

    def record(surd: QuadraticSurd) -> RootRecord:
        lo, value, hi = _doubles(surd)
        return RootRecord(value, (lo, hi), abs(value ** 2 + value - ns.m / 2), 0, surd)

    x1_text = ""

    def decide(root: RootRecord) -> tuple[str, int]:
        nonlocal x1_text
        if root.exact is pair.x1:  # records come largest first, so x1 is decided before x2
            x1_text = _cli.to_decimal(pair.x1, ns.digits)
            return x1_text, pair.x1.sign()
        # x2 = -1 - x1 with x1 >= 0, so floor(|x2| * 10**D) = 10**D + floor(x1 * 10**D):
        # x2's digits are x1's with the whole part one larger
        whole, _, frac = x1_text.partition(".")
        return f"-{int(whole) + 1}.{frac}", -1

    return _roots(inputs, map(record, (pair.x1, pair.x2)), decide, (f"r = {inputs['r']}\n",),
                  surds=True)


def _cmd_mmf(ns) -> _Output:
    spec = _cli.TrinomialSpec(n=ns.n, p=ns.p, p_sign=ns.sign, m=ns.m, lower_exponent="one")
    inputs = {"n": ns.n, "p": ns.p, "sign": ns.sign, "m": ns.m}
    return _root_set(inputs, _cli.solve_trinomial(spec), ns.digits)


def _cmd_stakhov(ns) -> _Output:
    def decimal(root: float) -> str:
        return _cli.stakhov_decimal(ns.n, ns.variant, root, ns.digits)

    return _Output({"n": ns.n, "variant": ns.variant}, (_cli.solve_stakhov(ns.n, ns.variant),),
                   lambda v: f"x = {decimal(v)} (variant {ns.variant})\n", "%r\n".__mod__,
                   lambda v: '{"decimal": "%s", "value": %r}' % (decimal(v), v))


def _cmd_euler(ns) -> _Output:
    inputs = {"a": str(ns.a), "n": ns.n, "x": str(ns.x), "mode": ns.mode}
    return _root_set(inputs, _cli.solve_euler(ns.a, ns.n, ns.x, ns.mode), ns.digits)


def _cmd_metallic(ns) -> _Output:
    mean = _cli.metallic_mean(ns.p, ns.q)
    tsv, cf_json, footer = "%r\n", "}", ()
    if ns.cf_terms is not None:
        cf = _cli.continued_fraction_of(mean, ns.cf_terms)
        initial, period = ",".join(map(str, cf.initial)), ",".join(map(str, cf.period))
        tsv = f"%r\t{initial}\t{period}\n"
        cf_json = ', "cf_initial": [%s], "cf_period": [%s], "cf_truncated": %s}' % (
            initial.replace(",", ", "), period.replace(",", ", "),
            "true" if cf.truncated else "false")
        footer = map("continued fraction: {}\n".format, (cf,))  # str(cf) only where text reads it
    return _Output({"p": ns.p, "q": str(ns.q)}, (mean,),
                   lambda s: f"metallic mean (p={ns.p}, q={ns.q}) = {s} = "
                             f"{_cli.to_decimal(s, ns.digits)}\n",
                   lambda s: tsv % float(s),
                   lambda s: '{"decimal": "%s", "value": %r, %s%s' % (
                       _cli.to_decimal(s, ns.digits), float(s), _surd_fields(s), cf_json), footer)


def _cmd_table1(ns) -> _Output:
    return _Output({"rows": ns.rows, "side": ns.side}, _cli.table_one(ns.rows, ns.side),
                   "%5s  N=%d  m=%d  h=%d  r=%d\n".__mod__, "%s\t%d\t%d\t%d\t%d\n".__mod__,
                   '{"side": "%s", "index": %d, "m": %d, "h": %d, "r": %d}'.__mod__)


def _cmd_diophantus(ns) -> _Output:
    # text prints c first, so its triples come as (c, b, a) and every format is one `%`
    triples = _cli.diophantus_triples(ns.count, hypotenuse_first=ns.format == "text")
    return _Output({"count": ns.count}, triples, "%d^2 = %d^2 + %d^2\n".__mod__,
                   "%d\t%d\t%d\n".__mod__, '{"a": %d, "b": %d, "c": %d}'.__mod__)


def _cmd_harmonic(ns) -> _Output:
    table = _cli.build_table(ns.size)
    inputs = {"size": ns.size, "doublets": ns.doublets, "key": ns.key}
    if not ns.doublets and ns.key is None:
        # one format per grid renders a row in text and TSV alike, as "\t".join(map(str, row))
        row = "\t".join(["%d"] * ns.size) + "\n"
        return _Output(inputs, table.rows(), row.__mod__, row.__mod__,
                       ("[" + ", ".join(["%d"] * ns.size) + "]").__mod__)
    doublets = _cli.cross_check_integer_means(table) if ns.doublets else []
    keys = _cli.key_rows(ns.key) if ns.key is not None else []
    # a doublet (q, (k, k + 1)) is the record (k, q, i1, j1, i2, j2, pair_low, pair_high), a key
    # row (k, k^2 + k, k(k + 1)) is one as it is, and each format tells them apart by length
    records = chain(((k, q, k, k + 1, k + 1, k, k, high) for q, (k, high) in doublets), keys)
    tsv = {8: "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", 3: "%d\t%d\t%d\n"}
    as_json = {8: '{"k": %d, "q": %d, "i1": %d, "j1": %d, "i2": %d, "j2": %d, "pair_low": %d, '
                  '"pair_high": %d}', 3: '{"k": %d, "square_plus_side": %d, "product": %d}'}
    return _Output(inputs, records, lambda r: (
        "doublet q=%d at (%d,%d)/(%d,%d) -> integer pair (%d, %d)\n" % r[1:] if len(r) == 8
        else f"({r[0]} x {r[0]}) + {r[0]} = {r[1]} = {r[0]} x {r[0] + 1}\n"),
        lambda r: tsv[len(r)] % r, lambda r: as_json[len(r)] % r)


def _emit(ns, out: _Output) -> None:
    stdout = sys.stdout
    if ns.format != "json":
        stdout.writelines(map(getattr(out, ns.format), out.records))
        stdout.writelines(out.footer if ns.format == "text" else ())
        return
    import json  # only this format needs it, so a cold start skips it
    frame = json.dumps({"command": ns.command, "inputs": out.inputs})
    records = map(out.json, out.records)
    stdout.write(frame[:-1] + ', "results": [' + next(records, ""))
    stdout.writelines(map(", ".__add__, records))
    stdout.write('], "errors": []}\n')


def _usage_error(message: str) -> Exception:
    import argparse  # argparse words every usage error, so only an error needs it

    return argparse.ArgumentTypeError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise _usage_error("must be a positive integer")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise _usage_error("must be a non-negative integer")
    return value


def _fraction(text: str) -> Fraction:
    import fractions  # only a rational option needs it, so a cold start skips it

    num, slash, den = text.partition("/")
    try:
        # plain ASCII "a" or "a/b" skips the regex; 0/0 and 4301 digits raise as in Fraction(text)
        if text.isascii() and num.isdigit() and (den.isdigit() or not slash):
            return fractions.Fraction(int(num), int(den) if slash else 1)
        _, e, exponent = text.lower().rpartition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > MAX_EXPONENT):
            raise _usage_error(
                f"decimal exponent must be at most {MAX_EXPONENT} in magnitude: {text!r}")
        return fractions.Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _usage_error(f"not a rational number: {text!r}") from exc


def _digits(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_DIGITS:
        raise _usage_error(f"digits must be in 1..{MAX_DIGITS}")
    return value


#: the options every subcommand takes, as ``add_argument`` keywords
_COMMON = {
    "--format": dict(choices=("text", "json", "tsv"), default="text",
                     help="output format (default: text)"),
    "--digits": dict(type=_digits, default=10, help="decimal rendering width (default: 10)"),
}
#: each subcommand's handler, help and own options
_COMMANDS = {
    "solve": (_cmd_solve, "all real roots of x**n + x = m/2", {
        "--n": dict(type=_positive_int, required=True),
        "--m": dict(type=_nonneg_int, required=True),
        "--tol": dict(type=float, default=TOLERANCE,
                      help="scaled residual tolerance (default %(default)s)")}),
    "mmf": (_cmd_mmf, "all real roots of x**n ± p*x = m/2", {
        "--n": dict(type=_positive_int, required=True),
        "--p": dict(type=_positive_int, required=True),
        "--sign": dict(choices=("plus", "minus"), required=True),
        "--m": dict(type=_nonneg_int, required=True)}),
    "stakhov": (_cmd_stakhov, "positive root of x**n + x = 1 (a) or x**n + x**(n-1) = 1 (b)", {
        "--n": dict(type=_positive_int, required=True),
        "--variant": dict(choices=("a", "b"), required=True)}),
    "euler": (_cmd_euler, "solve (a + b**n)/n = x for b", {
        "--a": dict(type=_fraction, required=True),
        "--n": dict(type=_positive_int, required=True),
        "--x": dict(type=_fraction, required=True),
        "--mode": dict(choices=("direct", "constrained"), required=True)}),
    "metallic": (_cmd_metallic, "positive root of x**2 - p*x - q = 0, exact", {
        "--p": dict(type=_positive_int, required=True),
        "--q": dict(type=_fraction, required=True),
        "--cf-terms": dict(type=_positive_int, default=None,
                           help="also expand this many continued-fraction terms")}),
    "table1": (_cmd_table1, "rows of the two-sided solution table", {
        "--rows": dict(type=_positive_int, required=True),
        "--side": dict(choices=("left", "right", "both"), default="both")}),
    "diophantus": (_cmd_diophantus, "Pythagorean triples (2N+1, 2N(N+1), 2N(N+1)+1)", {
        "--count": dict(type=_positive_int, required=True)}),
    "harmonic": (_cmd_harmonic, "harmonic multiplication table, doublets and key", {
        "--size": dict(type=_positive_int, required=True),
        "--doublets": dict(action="store_true",
                           help="list diagonal doublets with their integer mean pairs"),
        "--key": dict(type=_nonneg_int, default=None, metavar="K",
                      help="print key rows (k, k^2 + k, k(k+1)) for k in 0..K")}),
}


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser of the command table; ``run`` needs it only for help and errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="goldmean",
        description="Golden and metallic means: exact surds, certified trinomial "
                    "roots, triangle catalogs and the harmonic table.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(handler=handler)
        for flag, keywords in {**_COMMON, **options}.items():
            p.add_argument(flag, **keywords)
    return parser


def _plan(options: dict) -> tuple[dict, frozenset, dict]:
    """A command's options as flag -> (attribute name, type, choices, is a flag), the
    attributes of its required options, and the value argparse gives each attribute whose
    option is not on the command line."""
    flags, required, defaults = {}, set(), {}
    for flag, keywords in {**_COMMON, **options}.items():
        attr, is_flag = flag[2:].replace("-", "_"), "action" in keywords  # a store_true flag
        flags[flag] = (attr, keywords.get("type", str), keywords.get("choices"), is_flag)
        defaults[attr] = keywords.get("default", False if is_flag else None)
        if keywords.get("required"):
            required.add(attr)
    return flags, frozenset(required), defaults


#: each command's option plan, made once; the handler is read from ``_COMMANDS`` per call
_PLANS = {command: _plan(options) for command, (_, _, options) in _COMMANDS.items()}


def _strict(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed argv, read from the command table.

    It reads exact ``--opt value`` pairs whose value does not start with '-',
    ``--opt=value`` and flags, calls each option's type and checks its choices.
    Anything else is None, and argparse reads it: help, a prefix, '--', a value
    starting with '-', a bad value, a missing option, an unknown or extra word.
    """
    if not argv or argv[0] not in _PLANS:
        return None
    flags, required, defaults = _PLANS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        entry = flags.get(flag)
        if entry is None:
            return None
        attr, kind, choices, is_flag = entry
        if is_flag:
            if eq:
                return None
            given[attr] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        try:
            value = kind(value)
        except Exception:  # whatever it raises, argparse calls it again and reports it
            return None
        if choices is not None and value not in choices:
            return None
        given[attr] = value
    if not required <= given.keys():
        return None
    return SimpleNamespace(command=argv[0], handler=_COMMANDS[argv[0]][0],
                           **{**defaults, **given})


_parser: argparse.ArgumentParser | None = None  # built by the first argv argparse reads


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, emit; returns the process exit code."""
    global _parser
    argv = sys.argv[1:] if argv is None else argv
    ns = _strict(argv)
    if ns is None:  # help, a usage error or a form only argparse reads
        if _parser is None:
            _parser = build_parser()
        try:
            ns = _parser.parse_args(argv)
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
