"""Command-line front end.

Every invocation is deterministic: identical argv produces byte-identical
output.  Three formats are supported everywhere: ``text`` (human-readable),
``json`` (one object with keys command/inputs/results/errors) and ``tsv``
(tab-separated, one record per line).  The JSON ``errors`` key is reserved
and always ``[]``.  Exit codes: 0 success, 1 usage error, 2 domain error;
domain errors print a single ``error: <code>: ...`` line to stderr and
nothing to stdout.  Compiled option readers parse a well-formed argv, argparse
the rest.  A command imports only the modules its answer runs, each library
layer once, on first use, and ``fractions`` and ``argparse`` where needed; JSON,
its inputs for JSON alone, is written by ``%`` formats, so none imports ``json``.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from itertools import chain
from math import gcd
from types import SimpleNamespace

from . import _HOME
from ._exact import MAX_DIGITS, TOLERANCE, RootRecord, _check_tolerance
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
    a line costs work, that no other format reads; TSV ``tsv(record)`` lines, and JSON each
    ``json(record)``, joined by ", ", in a frame of the command, its inputs and the empty
    errors, so no format holds the whole result.  ``inputs`` is a ``%`` format of the JSON
    inputs' members and its values, which JSON alone formats: ints, finite floats, flags,
    null, and ASCII words and rationals, which need no escape.  A record is a library value,
    such as a catalog's tuple or a root's ``(index, RootRecord)``, and a line computes only
    what its format prints: TSV decides no digits, and text finds no double of a surd.
    """

    __slots__ = ()


def _surd_fields(surd: QuadraticSurd) -> str:
    """JSON members ``exact``, the lowest terms of ``rat`` = p/den and ``coeff`` = q/den and
    the radicand, and ``surd``, the text with ``√`` escaped as json.dumps escapes it."""
    p, q, den = surd._p, surd._q, surd._den
    g, h = gcd(p, den), gcd(q, den)
    return ('"exact": {"a_num": %d, "a_den": %d, "b_num": %d, "b_den": %d, "d": %d}, "surd": "%s"'
            % (p // g, den // g, q // h, den // h, surd._d, str(surd).replace("√", "\\u221a")))


def _roots(inputs: tuple[str, tuple], records: Iterable[RootRecord],
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


def _root_set(inputs: tuple[str, tuple], roots: RootSet, digits: int) -> _Output:
    """A solver's roots, their digits and signs decided by ``RootSet.truncate``."""
    return _roots(inputs, reversed(roots.roots), lambda root: roots.truncate(root, digits))


def _cmd_solve(ns) -> _Output:
    inputs = '"n": %d, "m": %d, "tolerance": %r', (ns.n, ns.m, ns.tol)
    if ns.n != 2:
        return _root_set(inputs, _cli.solve_gm_general(ns.n, ns.m, tolerance=ns.tol), ns.digits)
    _check_tolerance(ns.tol)  # as the solver checks it, though the surds need no tolerance
    pair = _cli.generalized_gm(ns.m)
    r = 2 * ns.m + 1

    def record(surd: QuadraticSurd) -> RootRecord:
        if ns.format == "text":  # text prints a root's digits and surd, and none of its doubles
            return RootRecord(None, None, None, 0, surd)
        lo, value, hi = surd._doubles()
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

    return _roots((inputs[0] + ', "r": %d', (*inputs[1], r)), map(record, (pair.x1, pair.x2)),
                  decide, (f"r = {r}\n",), surds=True)


def _cmd_mmf(ns) -> _Output:
    spec = _cli.TrinomialSpec(n=ns.n, p=ns.p, p_sign=ns.sign, m=ns.m, lower_exponent="one")
    return _root_set(('"n": %d, "p": %d, "sign": "%s", "m": %d', (ns.n, ns.p, ns.sign, ns.m)),
                     _cli.solve_trinomial(spec), ns.digits)


def _cmd_stakhov(ns) -> _Output:
    def decimal(root: float) -> str:
        return _cli.stakhov_decimal(ns.n, ns.variant, root, ns.digits)

    return _Output(('"n": %d, "variant": "%s"', (ns.n, ns.variant)),
                   (_cli.solve_stakhov(ns.n, ns.variant),),
                   lambda v: f"x = {decimal(v)} (variant {ns.variant})\n", "%r\n".__mod__,
                   lambda v: '{"decimal": "%s", "value": %r}' % (decimal(v), v))


def _cmd_euler(ns) -> _Output:
    return _root_set(('"a": "%s", "n": %d, "x": "%s", "mode": "%s"', (ns.a, ns.n, ns.x, ns.mode)),
                     _cli.solve_euler(ns.a, ns.n, ns.x, ns.mode), ns.digits)


def _cmd_metallic(ns) -> _Output:
    mean = _cli.metallic_mean(ns.p, ns.q)
    # expanded here, so a bound or sign error exits before any output; text reads str(cf) alone
    cf = None if ns.cf_terms is None else _cli.continued_fraction_of(mean, ns.cf_terms)

    def terms(sep: str) -> tuple[str, str]:
        return sep.join(map(str, cf.initial)), sep.join(map(str, cf.period))

    def as_json(s: QuadraticSurd) -> str:
        line = '{"decimal": "%s", "value": %r, %s' % (
            _cli.to_decimal(s, ns.digits), float(s), _surd_fields(s))
        return line + "}" if cf is None else line + (
            ', "cf_initial": [%s], "cf_period": [%s], "cf_truncated": %s}'
            % (*terms(", "), "true" if cf.truncated else "false"))

    return _Output(('"p": %d, "q": "%s"', (ns.p, ns.q)), (mean,),
                   lambda s: f"metallic mean (p={ns.p}, q={ns.q}) = {s} = "
                             f"{_cli.to_decimal(s, ns.digits)}\n",
                   lambda s: "%r\n" % float(s) if cf is None
                   else "%r\t%s\t%s\n" % (float(s), *terms(",")), as_json,
                   () if cf is None else map("continued fraction: {}\n".format, (cf,)))


def _cmd_table1(ns) -> _Output:
    return _Output(('"rows": %d, "side": "%s"', (ns.rows, ns.side)),
                   _cli.table_one(ns.rows, ns.side),
                   "%5s  N=%d  m=%d  h=%d  r=%d\n".__mod__, "%s\t%d\t%d\t%d\t%d\n".__mod__,
                   '{"side": "%s", "index": %d, "m": %d, "h": %d, "r": %d}'.__mod__)


def _cmd_diophantus(ns) -> _Output:
    # text prints c first, so its triples come as (c, b, a) and every format is one `%`
    triples = _cli.diophantus_triples(ns.count, hypotenuse_first=ns.format == "text")
    return _Output(('"count": %d', (ns.count,)), triples, "%d^2 = %d^2 + %d^2\n".__mod__,
                   "%d\t%d\t%d\n".__mod__, '{"a": %d, "b": %d, "c": %d}'.__mod__)


def _cmd_harmonic(ns) -> _Output:
    table = _cli.build_table(ns.size)
    inputs = ('"size": %d, "doublets": %s, "key": %s',
              (ns.size, "true" if ns.doublets else "false", "null" if ns.key is None else ns.key))
    if not ns.doublets and ns.key is None:
        # one format per grid renders a row in text and TSV alike, as "\t".join(map(str, row))
        row = "\t".join(["%d"] * ns.size) + "\n"
        return _Output(inputs, table.rows(), row.__mod__, row.__mod__,
                       ("[" + ", ".join(["%d"] * ns.size) + "]").__mod__)
    doublets = _cli.cross_check_integer_means(table) if ns.doublets else ()
    keys = _cli.key_rows(ns.key) if ns.key is not None else ()
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
    records, (inputs, values) = map(out.json, out.records), out.inputs
    stdout.write('{"command": "%s", "inputs": {%s}, "results": [%s' % (
        ns.command, inputs % values, next(records, "")))
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
        "--doublets": dict(action="store_true", default=False,
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


def _plan(command: str, options: dict) -> tuple[dict, set, dict]:
    """A command's options compiled once: flag -> (attribute, reader), the attributes of its
    required options, and the values argparse gives the command and each other attribute
    whose option is not on the command line.  A reader is the option's type, or the lookup
    of its choices (no option has both); a store_true flag has none."""
    flags, defaults = {}, {"command": command}
    for flag, keywords in {**_COMMON, **options}.items():
        attr, read = flag[2:].replace("-", "_"), keywords.get("type", str)
        if "choices" in keywords:  # a lookup that raises KeyError on any other word
            read = {choice: choice for choice in keywords["choices"]}.__getitem__
        flags[flag] = (attr, None if "action" in keywords else read)  # store_true: no value
        if not keywords.get("required"):
            defaults[attr] = keywords.get("default")
    return flags, {attr for attr, _ in flags.values()} - defaults.keys(), defaults


#: each command's compiled options, made once; its handler is read from ``_COMMANDS`` per call
_PLANS = {command: _plan(command, options) for command, (_, _, options) in _COMMANDS.items()}


def _strict(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed argv, read by the compiled options.

    A token is looked up whole, as a flag or the option of an ``--opt value`` pair whose
    value does not start with '-', and split as ``--opt=value`` on a miss alone.  Each value
    is one call of its reader, set in a copy of the defaults.  Anything else is None, and
    argparse reads it: help, a prefix, '--', a value starting with '-', a flag given a
    value, a bad value, a missing option, an unknown or extra word.
    """
    if not argv or argv[0] not in _PLANS:
        return None
    flags, required, values = _PLANS[argv[0]]
    values, tokens = values.copy(), iter(argv[1:])
    for token in tokens:
        attr, read = flags.get(token, (None, None))
        if attr is None:  # --opt=value, or a word argparse reads
            flag, _, value = token.partition("=")
            attr, read = flags.get(flag, (None, None))
            if read is None:  # not an option, or a flag given a value
                return None
        elif read is None:  # a flag
            values[attr] = True
            continue
        elif (value := next(tokens, None)) is None or value.startswith("-"):
            return None
        try:
            values[attr] = read(value)
        except Exception:  # whatever it raises, argparse calls it again and reports it
            return None
    if required <= values.keys():
        return SimpleNamespace(handler=_COMMANDS[argv[0]][0], **values)
    return None


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
