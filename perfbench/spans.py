"""Spans around calls into goldmean's modules, recorded from outside.

:class:`Tracer` replaces public functions in the namespace where the caller
looks them up (``goldmean.cli``'s imported names, ``goldmean.triangles.
generalized_gm``, ``goldmean.quadratics.solve_quadratic``) and
``QuadraticSurd.__init__`` with wrappers that record a span ``[kind, start,
end, parent, op, error]``.  The layer of a span is the part of its kind
before the first dot.  A span's self time is its duration minus that of its
direct children, so the self times of one op add up to its ``cli.run`` span.
"""

from __future__ import annotations

import json
import sys
import traceback
from collections import Counter
from time import perf_counter

#: marks the start of a traced child's span dump on its stderr
CHILD_MARK = "\n\x00perfbench-spans\x00\n"

#: span kinds, in report order
KINDS = ("cli.run", "cli.build_parser", "cli.parse", "surds.ctor", "surds.to_decimal",
         "surds.cf", "quadratics", "trinomials", "triangles", "harmonic.build", "harmonic.check")


def _add(key, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def _root_counts(counts, args, result):
    records = result.roots
    counts["trinomials.roots"] += len(records)
    counts["trinomials.brackets"] += sum(1 for r in records if r.bracket[0] < r.bracket[1])
    counts["trinomials.iterations"] += sum(r.iterations for r in records)


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._saved: list[tuple] = []

    def _wrap(self, kind: str, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            record = [kind, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def _patch(self, owner, name: str, kind: str, count=None) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, self._wrap(kind, original, count))

    def install(self) -> None:
        from goldmean import cli, quadratics, surds, triangles

        build = self._wrap("cli.build_parser", cli.build_parser)

        def build_parser():
            parser = build()
            parser.parse_args = self._wrap("cli.parse", parser.parse_args)
            return parser

        self._saved.append((cli, "build_parser", cli.build_parser))
        cli.build_parser = build_parser
        self._patch(cli, "run", "cli.run")
        self._patch(cli, "to_decimal", "surds.to_decimal",
                    _add("surds.digits_rendered", lambda a, r: a[1]))
        self._patch(cli, "continued_fraction_of", "surds.cf",
                    _add("surds.cf_terms", lambda a, r: len(r.initial) + len(r.period)))
        self._patch(surds.QuadraticSurd, "__init__", "surds.ctor")
        for owner, name in ((cli, "metallic_mean"), (cli, "generalized_gm"),
                            (triangles, "generalized_gm"), (quadratics, "solve_quadratic")):
            self._patch(owner, name, "quadratics")
        for name in ("solve_gm_general", "solve_trinomial", "solve_euler"):
            self._patch(cli, name, "trinomials", _root_counts)
        self._patch(cli, "solve_stakhov", "trinomials", _add("trinomials.roots", lambda a, r: 1))
        self._patch(cli, "table_one", "triangles", _add("triangles.rows", lambda a, r: len(r)))
        self._patch(cli, "diophantus_triple", "triangles", _add("triangles.rows", lambda a, r: 1))
        self._patch(cli, "build_table", "harmonic.build",
                    _add("harmonic.cells_built", lambda a, r: r.size * r.size))
        self._patch(cli, "cross_check_integer_means", "harmonic.check")
        self._patch(cli, "key_rows", "harmonic.check")

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def aggregate(spans: list[list], base: int = 0) -> tuple[dict, Counter]:
    """Self milliseconds per kind, and layer entry/error counts, for one op's spans.

    ``base`` is the index of ``spans[0]`` in the list its parent indices refer to.
    """
    child = [0.0] * len(spans)
    for kind, start, end, parent, _, _ in spans:
        if parent >= base:
            child[parent - base] += end - start
    self_ms: dict = {}
    counts: Counter = Counter()
    for i, (kind, start, end, parent, _, error) in enumerate(spans):
        self_ms[kind] = self_ms.get(kind, 0.0) + (end - start - child[i]) * 1000.0
        layer = kind.split(".")[0]
        outer = parent < base or spans[parent - base][0].split(".")[0] != layer
        if kind == "surds.ctor":
            counts["surds.ctor_calls"] += 1
        if kind == "quadratics" and outer:
            counts["quadratics.calls"] += 1
        if error and outer:
            counts[f"{layer}.errors"] += 1
    return self_ms, counts


def child_main(argv: list[str]) -> None:
    """Run one traced CLI invocation; append the spans to stderr after :data:`CHILD_MARK`."""
    from goldmean import cli

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = cli.run(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(CHILD_MARK + json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    sys.stderr.flush()
    sys.exit(code)
