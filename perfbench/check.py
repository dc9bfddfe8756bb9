"""Output checks for the benchmark, independent of goldmean.

Nothing here imports the library.  Root decimals are verified by an exact
sign test: a decimal ``t`` truncated to D digits is right when the
polynomial changes sign on ``[t, t + 10**-D]`` (mirrored for negative
values), evaluated on integers.  Surds, continued fractions and catalog
rows are checked against their defining identities.

A check ends in one of three verdicts:

``ok``     the output is right.
``known``  the output is wrong in a way listed in :data:`KNOWN_DEFECTS`;
           the op counts as failed, but the run stays ``correct``.
``wrong``  anything else; the run is not ``correct``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, isqrt, ulp
from typing import NamedTuple

#: defects of the float root path that the benchmark counts as failures
KNOWN_DEFECTS = {
    "float-digits": "float-path decimal wrong past the float's accuracy",
    "float-notation": "float-path decimal printed in exponent notation, such as 0E-10",
    "decimal-context": "decimal.InvalidOperation from the 28-digit default Decimal context",
    "float-convergence": "NoConvergence from the float refinement (degrees near 300)",
}

FLOAT_ROOTED = ("mmf", "stakhov", "euler")

#: slack (relative above 1, absolute below) within which a float approximates a root
FLOAT_SLACK = Fraction(1, 10 ** 11)


class Verdict(NamedTuple):
    status: str
    reason: str
    summary: dict


class Wrong(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise Wrong(reason)


# -- exact polynomial signs ---------------------------------------------------

def polynomial(cmd: str, p: dict) -> list[tuple[Fraction, int]]:
    """Terms ``(coefficient, exponent)`` of the polynomial whose roots the command prints."""
    if cmd == "metallic":
        return [(Fraction(1), 2), (Fraction(-p["p"]), 1), (-Fraction(p["q"]), 0)]
    n = p["n"]
    if cmd == "solve":
        return [(Fraction(1), n), (Fraction(1), 1), (Fraction(-p["m"], 2), 0)]
    if cmd == "mmf":
        s = 1 if p["sign"] == "plus" else -1
        return [(Fraction(1), n), (Fraction(s * p["p"]), 1), (Fraction(-p["m"], 2), 0)]
    if cmd == "stakhov":
        lower = 1 if p["variant"] == "a" else n - 1
        return [(Fraction(1), n), (Fraction(1), lower), (Fraction(-1), 0)]
    if p["mode"] == "direct":
        return [(Fraction(1), n), (-(n * Fraction(p["x"]) - Fraction(p["a"])), 0)]
    return [(Fraction(1), n), (Fraction(1), 1), (-n * Fraction(p["x"]), 0)]


def sign_at(poly: list[tuple[Fraction, int]], x: Fraction) -> int:
    """Exact sign of the polynomial at a rational point, on integers only."""
    deg = max(e for _, e in poly)
    scale = 1
    for c, _ in poly:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    num, den = x.numerator, x.denominator
    total = sum(c.numerator * (scale // c.denominator) * num ** e * den ** (deg - e)
                for c, e in poly)
    return (total > 0) - (total < 0)


def root_between(poly, lo: Fraction, hi: Fraction) -> bool:
    """True when a root lies in [lo, hi] by sign change or an exact zero at an end."""
    a, b = sign_at(poly, lo), sign_at(poly, hi)
    return a == 0 or b == 0 or a != b


_DECIMAL = re.compile(r"-?\d+\.(\d+)")


def check_decimal(poly, text: str, digits: int, float_path: bool, known: set) -> Fraction:
    """Verify one printed root decimal; returns its value."""
    match = _DECIMAL.fullmatch(text)
    if match is None:
        try:
            value = Fraction(text)
        except ValueError:
            raise Wrong(f"unparsable decimal {text!r}") from None
        _require(float_path, f"decimal {text!r} is not in fixed notation")
        known.add("float-notation")
        _require(root_between(poly, value - _slack(value), value + _slack(value)),
                 f"{text!r} is not near a root")
        return value
    _require(len(match.group(1)) == digits, f"{text!r} does not have {digits} digits")
    value = Fraction(text)
    ulp = Fraction(1, 10 ** digits)
    lo, hi = (value - ulp, value) if text.startswith("-") else (value, value + ulp)
    if root_between(poly, lo, hi):
        return value
    _require(float_path, f"no root in the truncation interval of {text!r}")
    _require(root_between(poly, lo - _slack(value), hi + _slack(value)),
             f"{text!r} is not near a root")
    known.add("float-digits")
    return value


def _slack(value: Fraction) -> Fraction:
    return FLOAT_SLACK * max(1, abs(value))


def check_float(poly, v: float, ulps: int | None = None) -> None:
    """A float approximates a root: within ``ulps`` units in the last place, else the float slack."""
    x = Fraction(v)
    slack = _slack(x) if ulps is None else ulps * Fraction(ulp(v))
    _require(sign_at(poly, x) == 0 or root_between(poly, x - slack, x + slack),
             f"value {v!r} is not near a root")


def check_residual(poly, v: float, residual: float) -> None:
    """``residual`` is |f(v)| up to float rounding of the terms."""
    x = Fraction(v)
    exact = abs(sum(c * x ** e for c, e in poly))
    size = sum(abs(c) * abs(x) ** e for c, e in poly)
    _require(residual >= 0 and abs(Fraction(residual) - exact) <= size * Fraction(1, 10 ** 13),
             f"residual {residual!r} is not |f({v!r})|")


def check_bracket(poly, v: float, lo: float, hi: float) -> None:
    _require(lo <= v <= hi, f"value {v!r} outside its bracket [{lo!r}, {hi!r}]")
    if lo < hi:
        _require(root_between(poly, Fraction(lo), Fraction(hi)), f"no root in bracket [{lo!r}, {hi!r}]")


# -- surds and continued fractions ----------------------------------------------

_SURD_TERM = re.compile(r"(?:(-?\d+) ([+-]) )?(-?)(\d*)√(\d+)")


def parse_surd(text: str) -> tuple[Fraction, Fraction, int]:
    """``a + b*sqrt(d)`` from the printed forms ``(A + K√D)/den``, ``K√D``, ``a/b``."""
    if "√" not in text:
        return Fraction(text), Fraction(0), 0
    den = 1
    match = re.fullmatch(r"\((.+)\)/(\d+)", text)
    if match:
        text, den = match.group(1), int(match.group(2))
    match = _SURD_TERM.fullmatch(text)
    _require(match is not None, f"unparsable surd {text!r}")
    whole, op, minus, k, d = match.groups()
    coeff = int(k) if k else 1
    if op == "-" or minus:
        coeff = -coeff
    return Fraction(int(whole or 0), den), Fraction(coeff, den), int(d)


def _square_free(d: int) -> bool:
    """No square factor: trial division to the cube root, then a square test."""
    f = 2
    while f * f * f <= d:
        if d % (f * f) == 0:
            return False
        while d % f == 0:
            d //= f
        f += 1
    r = isqrt(d)
    return d == 1 or r * r != d


def check_surd_root(surd: tuple, poly2: tuple[Fraction, Fraction], larger: bool) -> None:
    """``a + b*sqrt(d)`` solves x**2 + B x + C = 0 and is the larger/smaller root."""
    a, b, d = surd
    big_b, big_c = poly2
    if b == 0 or d == 0:
        _require(b == 0 and d == 0, "zero coefficient with a radicand")
        _require(a * a + big_b * a + big_c == 0, f"{a} is not a root")
        return
    _require(d > 1 and _square_free(d), f"radicand {d} is not square-free")
    _require(a * a + b * b * d + big_b * a + big_c == 0 and 2 * a * b + big_b * b == 0,
             "surd does not solve the quadratic")
    _require((b > 0) == larger, "surd is the other root")


def _surd_fields(rec: dict) -> tuple:
    e = rec["exact"]
    return Fraction(e["a_num"], e["a_den"]), Fraction(e["b_num"], e["b_den"]), e["d"]


def _matmul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _cf_matrix(terms) -> tuple:
    m = (1, 0, 0, 1)
    for t in terms:
        m = _matmul(m, (t, 1, 1, 0))
    return m


def _compare_metallic(p: int, q: Fraction, r: Fraction) -> int:
    """Sign of ``r - x`` for the positive root x of y**2 - p*y - q (q >= 0)."""
    if r < 0:
        return -1
    return sign_at([(Fraction(1), 2), (Fraction(-p), 1), (-q, 0)], r)


def check_cf(p: int, q: Fraction, initial: list, period: list, truncated: bool,
             max_terms: int) -> None:
    """The continued fraction is that of the positive root of y**2 - p*y - q."""
    terms = list(initial) + list(period)
    _require(len(initial) >= 1 and all(t >= 1 for t in terms[1:]), "bad continued fraction terms")
    if truncated:
        _require(not period and len(initial) == max_terms, "truncated expansion of the wrong length")
    else:
        _require(len(terms) <= max_terms, "expansion longer than asked for")
    # x has these leading terms iff it lies between [t0..tk] and [t0..tk + 1]
    m = _cf_matrix(terms)
    near = Fraction(m[0], m[2])
    far = Fraction(m[0] + m[1], m[2] + m[3])
    if not truncated and not period:
        _require(_compare_metallic(p, q, near) == 0, "finite expansion is not the value")
        return
    s_near, s_far = _compare_metallic(p, q, near), _compare_metallic(p, q, far)
    _require(s_near != 0 and s_near != s_far, "value is outside the expansion's interval")
    if period:
        # tail z = [period; z]: m10 z^2 + (m11 - m00) z - m01 = 0; x = (A z + B)/(C z + D)
        z = _cf_matrix(period)
        big_a, big_b, big_c, big_d = _cf_matrix(initial)
        # z = (D x - B)/(A - C x); clear denominators into a quadratic in x
        u, v = (big_d, -big_b), (-big_c, big_a)           # numerator, denominator as (x coeff, const)

        def mul(f, g):
            return (f[0] * g[0], f[0] * g[1] + f[1] * g[0], f[1] * g[1])

        parts = [mul(u, u), mul(u, v), mul(v, v)]
        weights = [z[2], z[3] - z[0], -z[1]]
        quad = [sum(w * part[i] for w, part in zip(weights, parts)) for i in range(3)]
        _require(quad[0] != 0 and Fraction(quad[1], quad[0]) == -p and Fraction(quad[2], quad[0]) == -q,
                 "periodic expansion solves another quadratic")


_CF_TEXT = re.compile(r"\[(\d+)(?:; (.*?))?(, \.\.\.)?\]")


def parse_cf_text(text: str) -> tuple[list, list, bool]:
    match = _CF_TEXT.fullmatch(text)
    _require(match is not None, f"unparsable continued fraction {text!r}")
    head, rest, dots = match.groups()
    initial, period = [int(head)], []
    if rest:
        pm = re.fullmatch(r"(?:(.*), )?\((.*)\)", rest)
        if pm:
            rest, cycle = pm.groups()
            period = [int(t) for t in cycle.split(", ")]
        if rest:
            initial += [int(t) for t in rest.split(", ")]
    return initial, period, dots is not None


# -- per-command checks ----------------------------------------------------------

def expected_inputs(op: dict) -> dict:
    """The JSON ``inputs`` object: the parsed arguments, rationals as text."""
    p = op["params"]
    if op["cmd"] == "solve":
        return {"n": p["n"], "m": p["m"], "tolerance": 1e-12,
                **({"r": 2 * p["m"] + 1} if p["n"] == 2 else {})}
    if op["cmd"] == "euler":
        return {"a": str(Fraction(p["a"])), "n": p["n"], "x": str(Fraction(p["x"])), "mode": p["mode"]}
    if op["cmd"] == "metallic":
        return {"p": p["p"], "q": str(Fraction(p["q"]))}
    return dict(p)


def _json(out: str, op: dict) -> dict:
    try:
        payload = json.loads(out)
    except ValueError:
        raise Wrong("output is not JSON") from None
    _require(isinstance(payload, dict) and set(payload) == {"command", "inputs", "results", "errors"},
             "JSON object has the wrong keys")
    _require(payload["command"] == op["cmd"] and payload["errors"] == [], "JSON command/errors mismatch")
    _require(payload["inputs"] == expected_inputs(op), "JSON inputs differ from the arguments")
    return payload


def _lines(out: str) -> list[str]:
    _require(out.endswith("\n") or out == "", "output does not end with a newline")
    return out.split("\n")[:-1]


def _roots(op: dict, out: str, poly, float_path: bool, known: set) -> dict:
    """Root sets of solve, mmf and euler, largest first."""
    fmt, digits, p = op["fmt"], op["digits"], op["params"]
    exact = op["cmd"] == "solve" and p["n"] == 2
    quad = (Fraction(1), Fraction(-p["m"], 2)) if exact else None
    decimals, values, surds = [], [], []
    if fmt == "text":
        lines = _lines(out)
        if exact:
            _require(lines[-1:] == [f"r = {2 * p['m'] + 1}"], "missing or wrong r line")
            lines = lines[:-1]
        pattern = re.compile(r"x(\d+) = (\S+)( \(satisfactory\))?(?:   \[(.+)\])?")
        for i, line in enumerate(lines):
            match = pattern.fullmatch(line)
            _require(match is not None and match.group(1) == str(i + 1), f"bad root line {line!r}")
            decimals.append(match.group(2))
            if exact:
                _require(match.group(4) is not None, "exact root without its surd")
                surds.append(parse_surd(match.group(4)))
                _require(bool(match.group(3)) == (i == 0 and p["m"] > 0), "wrong satisfactory flag")
    elif fmt == "json":
        records = _json(out, op)["results"]
        for i, rec in enumerate(records):
            _require(rec.get("label") == f"x{i + 1}", "bad label")
            decimals.append(rec["decimal"])
            values.append((rec["value"], rec["bracket_lo"], rec["bracket_hi"], rec["residual"]))
            if exact:
                surds.append(_surd_fields(rec))
                _require(parse_surd(rec["surd"]) == surds[-1], "surd text disagrees with its fields")
                _require(rec["satisfactory"] == (i == 0 and p["m"] > 0), "wrong satisfactory flag")
    else:
        for line in _lines(out):
            cells = line.split("\t")
            _require(len(cells) == 4, f"bad root row {line!r}")
            values.append(tuple(float(c) for c in cells))
    count = max(len(decimals), len(values))
    _require(count >= 1, "no roots printed")
    checked = [check_decimal(poly, t, digits, float_path, known) for t in decimals]
    _require(checked == sorted(checked, reverse=True), "roots are not in descending order")
    for i, surd in enumerate(surds):
        check_surd_root(surd, quad, larger=(i == 0))
    for v, lo, hi, residual in values:
        check_float(poly, v)
        check_bracket(poly, v, lo, hi)
        check_residual(poly, v, residual)
    _require([v[0] for v in values] == sorted((v[0] for v in values), reverse=True),
             "values are not in descending order")
    summary = {"count": count}
    if decimals:
        summary["decimals"] = decimals
    if values:
        summary["values"] = values
    if surds:
        summary["surds"] = surds
    return summary


def _stakhov(op, out, poly, known) -> dict:
    if op["fmt"] == "text":
        match = re.fullmatch(r"x = (\S+) \(variant ([ab])\)\n", out)
        _require(match is not None and match.group(2) == op["params"]["variant"], "bad stakhov line")
        decimal = match.group(1)
        value = check_decimal(poly, decimal, op["digits"], True, known)
        _require(value >= 0, "negative stakhov root")
        return {"decimals": [decimal]}
    if op["fmt"] == "json":
        (rec,) = _json(out, op)["results"]
        value = check_decimal(poly, rec["decimal"], op["digits"], True, known)
        _require(value >= 0, "negative stakhov root")
        check_float(poly, rec["value"])
        return {"decimals": [rec["decimal"]], "values": [rec["value"]]}
    v = float(out)
    _require(out == repr(v) + "\n" and v >= 0, "bad stakhov row")
    check_float(poly, v)
    return {"values": [v]}


def _metallic(op, out, poly, known) -> dict:
    p, q, cf_terms = op["params"]["p"], Fraction(op["params"]["q"]), op["params"]["cf_terms"]
    quad = (Fraction(-p), -q)
    summary = {}
    cf = None
    if op["fmt"] == "text":
        lines = _lines(out)
        _require(len(lines) == (2 if cf_terms else 1), "wrong number of metallic lines")
        match = re.fullmatch(r"metallic mean \(p=(\d+), q=(\S+)\) = (.+) = (\S+)", lines[0])
        _require(match is not None and int(match.group(1)) == p and Fraction(match.group(2)) == q,
                 "bad metallic line")
        summary["surd"] = parse_surd(match.group(3))
        summary["decimals"] = [match.group(4)]
        if cf_terms:
            _require(lines[1].startswith("continued fraction: "), "missing continued fraction")
            cf = parse_cf_text(lines[1][len("continued fraction: "):])
    elif op["fmt"] == "json":
        (rec,) = _json(out, op)["results"]
        summary["surd"] = _surd_fields(rec)
        _require(parse_surd(rec["surd"]) == summary["surd"], "surd text disagrees with its fields")
        summary["decimals"] = [rec["decimal"]]
        summary["values"] = [rec["value"]]
        if cf_terms:
            cf = (rec["cf_initial"], rec["cf_period"], rec["cf_truncated"])
    else:
        cells = out.rstrip("\n").split("\t")
        _require(out.count("\n") == 1 and len(cells) == (3 if cf_terms else 1), "bad metallic row")
        summary["values"] = [float(cells[0])]
        if cf_terms:
            initial = [int(t) for t in cells[1].split(",")]
            period = [int(t) for t in cells[2].split(",")] if cells[2] else []
            truncated = not period and len(initial) == cf_terms and _compare_metallic(
                p, q, Fraction(_cf_matrix(initial)[0], _cf_matrix(initial)[2])) != 0
            cf = (initial, period, truncated)
    for decimal in summary.get("decimals", []):
        value = check_decimal(poly, decimal, op["digits"], False, known)
        _require(value >= 0, "negative metallic mean")
    if "surd" in summary:
        check_surd_root(summary["surd"], quad, larger=True)
    for v in summary.get("values", []):
        check_float(poly, v, ulps=8)
    if cf is not None:
        check_cf(p, q, cf[0], cf[1], cf[2], cf_terms)
        summary["cf"] = (list(cf[0]), list(cf[1]))
    elif cf_terms is None:
        _require(op["fmt"] != "json" or "cf_initial" not in rec, "unrequested continued fraction")
    return summary


def _table1(op, out) -> list:
    rows, side = op["params"]["rows"], op["params"]["side"]
    expected = []
    for n in range(rows):
        if side in ("left", "both"):
            m = 2 * n * (n + 1)
            expected.append(("left", n, m, m + 1, (2 * n + 1) ** 2))
        if side in ("right", "both"):
            expected.append(("right", n, n, n + 1, 2 * n + 1))
    if op["fmt"] == "json":
        got = [(r["side"], r["index"], r["m"], r["h"], r["r"]) for r in _json(out, op)["results"]]
    elif op["fmt"] == "tsv":
        got = [(c[0], *map(int, c[1:])) for c in (line.split("\t") for line in _lines(out))]
    else:
        pattern = re.compile(r" ?(left|right)  N=(\d+)  m=(\d+)  h=(\d+)  r=(\d+)")
        got = []
        for line in _lines(out):
            match = pattern.fullmatch(line)
            _require(match is not None, f"bad table1 line {line!r}")
            got.append((match.group(1), *map(int, match.groups()[1:])))
    _require(all(h * h == m * m + r for _, _, m, h, r in got), "h^2 != m^2 + r")
    _require(got == expected, "table1 rows differ from the closed forms")
    return got


def _diophantus(op, out) -> list:
    if op["fmt"] == "json":
        got = [(r["a"], r["b"], r["c"]) for r in _json(out, op)["results"]]
    elif op["fmt"] == "tsv":
        got = [tuple(map(int, line.split("\t"))) for line in _lines(out)]
    else:
        got = []
        for line in _lines(out):
            match = re.fullmatch(r"(\d+)\^2 = (\d+)\^2 \+ (\d+)\^2", line)
            _require(match is not None, f"bad diophantus line {line!r}")
            c, b, a = map(int, match.groups())
            got.append((a, b, c))
    _require(len(got) == op["params"]["count"], "wrong number of triples")
    for n, (a, b, c) in enumerate(got):
        _require(a * a + b * b == c * c and c == b + 1, f"({a}, {b}, {c}) is not a triple with c = b + 1")
        _require(a == 2 * n + 1, f"triple {n} has the wrong first cathetus")
    return got


def _grid(op, out) -> None:
    """Full harmonic grid, row by row, without materialising it."""
    size = op["params"]["size"]
    if op["fmt"] == "json":
        prefix = json.dumps({"command": "harmonic", "inputs": {
            "size": size, "doublets": False, "key": None}})[:-1] + ', "results": ['
        suffix = '], "errors": []}\n'
        _require(out.startswith(prefix) and out.endswith(suffix), "bad harmonic JSON frame")
        body = out[len(prefix):-len(suffix)]
        _require(body.startswith("[") and body.endswith("]"), "bad harmonic JSON rows")
        rows = body[1:-1].split("], [")
        sep = ", "
    else:
        rows = _lines(out)
        sep = "\t"
    _require(len(rows) == size, "wrong number of grid rows")
    for i, row in enumerate(rows):
        _require(row == sep.join(str(i * j) for j in range(size)), f"grid row {i} is not i*j")


def _harmonic(op, out) -> list:
    size, doublets, key = op["params"]["size"], op["params"]["doublets"], op["params"]["key"]
    if not doublets and key is None:
        _grid(op, out)
        return []
    expected = []
    if doublets:
        expected += [("d", k, k * (k + 1)) for k in range(size - 1)]
    if key is not None:
        expected += [("k", k, k * k + k) for k in range(key + 1)]
    got = []
    if op["fmt"] == "json":
        for r in _json(out, op)["results"]:
            if "q" in r:
                k = r["k"]
                _require((r["i1"], r["j1"], r["i2"], r["j2"], r["pair_low"], r["pair_high"])
                         == (k, k + 1, k + 1, k, k, k + 1), f"bad doublet record {r}")
                got.append(("d", k, r["q"]))
            else:
                _require(r["square_plus_side"] == r["product"], f"bad key record {r}")
                got.append(("k", r["k"], r["product"]))
    elif op["fmt"] == "tsv":
        for line in _lines(out):
            cells = list(map(int, line.split("\t")))
            if len(cells) == 8:
                k = cells[0]
                _require(cells[2:] == [k, k + 1, k + 1, k, k, k + 1], f"bad doublet row {line!r}")
                got.append(("d", k, cells[1]))
            else:
                _require(len(cells) == 3 and cells[1] == cells[2], f"bad key row {line!r}")
                got.append(("k", cells[0], cells[1]))
    else:
        for line in _lines(out):
            match = re.fullmatch(r"doublet q=(\d+) at \((\d+),(\d+)\)/\((\d+),(\d+)\) -> integer pair \((\d+), (\d+)\)", line)
            if match:
                q, k, *rest = map(int, match.groups())
                _require(rest == [k + 1, k + 1, k, k, k + 1], f"bad doublet line {line!r}")
                got.append(("d", k, q))
                continue
            match = re.fullmatch(r"\((\d+) x (\d+)\) \+ (\d+) = (\d+) = (\d+) x (\d+)", line)
            _require(match is not None, f"bad key line {line!r}")
            k, k2, k3, sp, k4, k5 = map(int, match.groups())
            _require(k == k2 == k3 == k4 and k5 == k + 1, f"bad key line {line!r}")
            got.append(("k", k, sp))
    _require(got == expected, "harmonic doublets/key rows differ from q = k(k+1)")
    return got


# -- entry point ------------------------------------------------------------------

def expected_error(op: dict) -> str | None:
    """The domain error code an op must end with, decided from its parameters."""
    cmd, p = op["cmd"], op["params"]
    if cmd == "mmf" and p["n"] == 1 and p["sign"] == "minus" and p["p"] == 1:
        return "degenerate-identity"
    if cmd == "euler" and p["mode"] == "direct" and p["n"] % 2 == 0:
        if p["n"] * Fraction(p["x"]) - Fraction(p["a"]) < 0:
            return "no-real-root"
    return None


def float_rooted(op: dict) -> bool:
    return op["cmd"] in FLOAT_ROOTED or (op["cmd"] == "solve" and op["params"]["n"] != 2)


def check(op: dict, code: int | None, out: str, err: str, exc: str | None = None) -> Verdict:
    """Verdict on one op: its exit code, stdout, stderr and escaped exception name."""
    known: set = set()
    try:
        if exc is not None:
            defect = {"InvalidOperation": "decimal-context", "NoConvergence": "float-convergence"}.get(exc)
            _require(defect is not None and float_rooted(op), f"raised {exc}")
            return Verdict("known", defect, {})
        error = expected_error(op)
        if error is not None:
            _require(code == 2 and out == "", f"expected {error}, got exit {code}")
            _require(re.fullmatch(f"error: {error}: [^\n]*\n", err) is not None,
                     f"bad error line {err!r}")
            return Verdict("ok", "", {"error": error})
        _require(code == 0, f"exit code {code}: {err.strip()[-200:]}")
        _require(err == "", "unexpected stderr")
        cmd = op["cmd"]
        if cmd in ("table1", "diophantus", "harmonic"):
            rows = {"table1": _table1, "diophantus": _diophantus, "harmonic": _harmonic}[cmd](op, out)
            summary = {"rows": len(rows)}
        else:
            poly = polynomial(cmd, op["params"])
            if cmd == "metallic":
                summary = _metallic(op, out, poly, known)
            elif cmd == "stakhov":
                summary = _stakhov(op, out, poly, known)
            else:
                summary = _roots(op, out, poly, float_rooted(op), known)
    except Wrong as exc_wrong:
        return Verdict("wrong", str(exc_wrong), {})
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc_parse:
        return Verdict("wrong", f"malformed output: {type(exc_parse).__name__}: {exc_parse}", {})
    if known:
        return Verdict("known", ",".join(sorted(known)), summary)
    return Verdict("ok", "", summary)


def agree(summaries: list[dict]) -> str | None:
    """Formats of one invocation must print the same values; returns a mismatch or None."""
    for field in ("count", "decimals", "values", "surd", "surds", "cf", "rows", "error"):
        seen = [s[field] for s in summaries if field in s]
        if any(v != seen[0] for v in seen[1:]):
            return f"formats disagree on {field}"
    return None
