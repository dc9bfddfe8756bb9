"""Seeded argv corpora for the goldmean benchmark workloads.

Each workload is a list of ops.  An op is a dict with the ``argv`` the
program sees, the ``params`` the checker needs to verify the output without
calling goldmean, the output ``fmt``, a ``group`` shared by the same
invocation in the other formats, and the ``radicand`` under the square
root, where there is one, used to bucket scaling rows.

Sizes are drawn by Latin-hypercube sampling (one draw per stratum, strata
shuffled per dimension), so two seeds give different inputs with the same
spread of sizes.  That keeps medians comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import isqrt, log10

FORMATS = ("text", "json", "tsv")

#: one cheap invocation per subcommand, run before timing starts
WARMUP = {
    "solve": ["solve", "--n", "3", "--m", "2"],
    "mmf": ["mmf", "--n", "3", "--p", "2", "--sign", "minus", "--m", "2"],
    "stakhov": ["stakhov", "--n", "3", "--variant", "b"],
    "euler": ["euler", "--a", "0", "--n", "2", "--x", "1/2", "--mode", "constrained"],
    "metallic": ["metallic", "--p", "2", "--q", "1", "--cf-terms", "10"],
    "table1": ["table1", "--rows", "6"],
    "diophantus": ["diophantus", "--count", "7"],
    "harmonic": ["harmonic", "--size", "10", "--doublets", "--key", "9"],
}


def _strata(rng: random.Random, count: int, jitter: float = 1.0) -> list[float]:
    """``count`` values in [0, 1), one per stratum, in shuffled order.

    ``jitter`` < 1 keeps each draw near its stratum's centre.
    """
    order = list(range(count))
    rng.shuffle(order)
    return [(k + 0.5 + jitter * (rng.random() - 0.5)) / count for k in order]


def _log_int(u: float, lo: int, hi: int) -> int:
    """Integer log-uniform in [lo, hi] at quantile u."""
    return max(lo, min(hi, round(10 ** (log10(lo) + u * (log10(hi) - log10(lo))))))


def _shares(rng: random.Random, count: int, shares: list[tuple[str, int]]) -> list[str]:
    """Exactly ``count * weight / total`` labels of each kind, shuffled."""
    total = sum(w for _, w in shares)
    labels: list[str] = []
    for label, weight in shares:
        labels += [label] * (count * weight // total)
    labels += [shares[0][0]] * (count - len(labels))
    rng.shuffle(labels)
    return labels


def _fraction_text(value: Fraction) -> str:
    """``a/b`` as a user types it; negative values go in ``--opt=value`` form."""
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _op(argv: list[str], params: dict, radicand: int | None, digits: int | None,
        fmt: str, group: int, verify_only: bool = False) -> dict:
    full = list(argv) + ["--format", fmt]
    if digits is not None:
        full += ["--digits", str(digits)]
    return {"argv": full, "cmd": argv[0], "params": params, "fmt": fmt,
            "digits": 10 if digits is None else digits, "group": group, "radicand": radicand,
            "verify_only": verify_only}


def _expand(rng: random.Random, bases: list[tuple], every: int | None = None) -> list[dict]:
    """Ops for bases ``(argv, params, radicand, digits)``, shuffled.

    Without ``every`` each base is timed in all three formats.  With it, each
    base is timed in one format, and every ``every``-th base also runs once,
    untimed, in the other two, so the checker can compare the formats.
    """
    ops = []
    for group, base in enumerate(bases):
        if every is None:
            ops += [_op(*base, fmt, group) for fmt in FORMATS]
            continue
        fmt = FORMATS[group % 3]
        ops.append(_op(*base, fmt, group))
        if group % every == 0:
            ops += [_op(*base, other, group, True) for other in FORMATS if other != fmt]
    rng.shuffle(ops)
    return ops


# -- closed_form ------------------------------------------------------------

def _metallic_base(rng, radicand_target: int, digits: int | None, cf_u: float | None, rational: bool):
    p = 1 + rng.randrange(min(20, max(1, isqrt(radicand_target))))
    if rational:
        b = rng.randrange(2, 31)
        a = max(1, (radicand_target // b - p * p * b) // 4)
        q = Fraction(a, b)
    else:
        q = Fraction(max(0, (radicand_target - p * p) // 4))
    disc = p * p + 4 * q
    argv = ["metallic", "--p", str(p), "--q", _fraction_text(q)]
    cf_terms = None
    if cf_u is not None:
        cf_terms = _log_int(cf_u, 1, 200)
        argv += ["--cf-terms", str(cf_terms)]
    params = {"p": p, "q": q, "cf_terms": cf_terms}
    return argv, params, disc.numerator * disc.denominator, digits


def closed_form(seed: int, bases: int = 1200) -> list[dict]:
    rng = random.Random(f"closed_form:{seed}")
    radicand_u = _strata(rng, bases)
    digits_u = _strata(rng, bases)
    cf_u = _strata(rng, bases)
    kinds = _shares(rng, bases, [("metallic_int", 3), ("metallic_rat", 3),
                                 ("metallic_int_cf", 2), ("metallic_rat_cf", 2), ("solve", 4)])
    out = []
    for i in range(bases):
        target = _log_int(radicand_u[i], 1, 10 ** 9)
        digits = _log_int(digits_u[i], 1, 1000)
        kind = kinds[i]
        if kind == "solve":
            m = (target - 1) // 2
            out.append((["solve", "--n", "2", "--m", str(m)], {"n": 2, "m": m}, 2 * m + 1, digits))
        else:
            out.append(_metallic_base(rng, target, digits,
                                      cf_u[i] if kind.endswith("_cf") else None,
                                      "_rat" in kind))
    return _expand(rng, out, every=5)


# -- trinomial --------------------------------------------------------------

def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 12))


def trinomial(seed: int, bases: int = 900) -> list[dict]:
    rng = random.Random(f"trinomial:{seed}")
    degree_u = _strata(rng, bases)
    coeff_u = _strata(rng, bases)
    kinds = _shares(rng, bases, [("solve", 6), ("mmf", 6), ("euler", 5), ("stakhov", 3)])
    # a fixed minority asks for more digits than the float path can certify
    widths = _shares(rng, bases, [("default", 18), ("wide", 1), ("wider", 1)])
    out = []
    for i in range(bases):
        kind = kinds[i]
        if kind == "mmf":
            n = _log_int(degree_u[i], 1, 300)
            p = _log_int(coeff_u[i], 1, 100)
            sign = rng.choice(("plus", "minus"))
            m = rng.randint(0, 1000)
            argv = ["mmf", "--n", str(n), "--p", str(p), "--sign", sign, "--m", str(m)]
            params = {"n": n, "p": p, "sign": sign, "m": m}
        elif kind == "solve":
            n = _log_int(degree_u[i], 3, 300)
            m = _log_int(coeff_u[i], 1, 1001) - 1
            argv = ["solve", "--n", str(n), "--m", str(m)]
            params = {"n": n, "m": m}
        elif kind == "stakhov":
            n = _log_int(degree_u[i], 1, 300)
            variant = rng.choice("ab")
            argv = ["stakhov", "--n", str(n), "--variant", variant]
            params = {"n": n, "variant": variant}
        else:
            n = _log_int(degree_u[i], 1, 300)
            mode = rng.choice(("direct", "constrained"))
            a = _rational(rng, -50, 50)
            x = _rational(rng, 0 if mode == "constrained" else -50, 50)
            argv = ["euler", f"--a={_fraction_text(a)}", "--n", str(n),
                    f"--x={_fraction_text(x)}", "--mode", mode]
            params = {"a": a, "n": n, "x": x, "mode": mode}
        width = widths[i]
        digits = (None if width == "default" else
                  rng.randint(13, 28) if width == "wide" else rng.randint(29, 40))
        out.append((argv, params, None, digits))
    return _expand(rng, out, every=5)


# -- catalog ----------------------------------------------------------------

def catalog(seed: int) -> list[dict]:
    """Few, large invocations on a fixed log-spaced size grid with seeded jitter.

    The largest invocation of each kind runs once, in a fixed format, so that
    peak memory and pass time are comparable across seeds.  The grid keeps
    each other size near its place: with so few ops, a size that moves
    changes which op sits at a percentile.
    """
    rng = random.Random(f"catalog:{seed}")

    def sizes(count, lo, hi):
        return [_log_int(u, lo, hi) for u in sorted(_strata(rng, count, 0.1))]

    def table1(rows, side):
        return ["table1", "--rows", str(rows), "--side", side], {"rows": rows, "side": side}, None, None

    def diophantus(count):
        return ["diophantus", "--count", str(count)], {"count": count}, None, None

    def harmonic(size, doublets, key):
        argv = ["harmonic", "--size", str(size)]
        argv += ["--doublets"] if doublets else []
        argv += ["--key", str(key)] if key is not None else []
        return argv, {"size": size, "doublets": doublets, "key": key}, None, None

    # right-side rows cost a surd computation each, so they get the smaller sizes
    sides = ("right", "both", "right", "both", "left", "left")
    bases = [table1(rows, side) for rows, side in zip(sizes(6, 20, 800), sides)]
    bases += [diophantus(count) for count in sizes(4, 100, 5000)]
    bases += [harmonic(size, False, None) for size in sizes(4, 30, 600)]
    bases += [harmonic(size, True, None) for size in sizes(4, 100, 1000)]
    for (size, doublets), key in zip(zip(sizes(4, 100, 1000), (True, False) * 2), sizes(4, 10, 1000)):
        bases.append(harmonic(size, doublets, key))
    ops = _expand(rng, bases)
    largest = [(table1(2000, "both"), "text"), (diophantus(10000), "json"),
               (harmonic(1000, False, None), "tsv")]
    for group, (base, fmt) in enumerate(largest, start=len(bases)):
        ops.insert(rng.randrange(len(ops) + 1), _op(*base, fmt, group))
    return ops


# -- cold_start -------------------------------------------------------------

def cold_start(seed: int) -> list[dict]:
    """Four small invocations of each of the eight subcommands, one per process.

    Exactly one invocation asks for more digits than the float path can
    render; the others stay within 1..12 digits.
    """
    rng = random.Random(f"cold_start:{seed}")
    per_command = 4
    bases = []
    for cmd in WARMUP:
        for k, u in enumerate(_strata(rng, per_command)):
            if cmd == "solve":
                n, m = _log_int(u, 2, 20), rng.randint(0, 100)
                argv, params, radicand = ["solve", "--n", str(n), "--m", str(m)], {"n": n, "m": m}, None
            elif cmd == "mmf":
                n, p = _log_int(u, 1, 20), rng.randint(1, 9)
                sign, m = rng.choice(("plus", "minus")), rng.randint(0, 100)
                argv = ["mmf", "--n", str(n), "--p", str(p), "--sign", sign, "--m", str(m)]
                params, radicand = {"n": n, "p": p, "sign": sign, "m": m}, None
            elif cmd == "stakhov":
                n, variant = _log_int(u, 1, 20), rng.choice("ab")
                argv = ["stakhov", "--n", str(n), "--variant", variant]
                params, radicand = {"n": n, "variant": variant}, None
            elif cmd == "euler":
                n, mode = _log_int(u, 1, 10), rng.choice(("direct", "constrained"))
                a, x = _rational(rng, -9, 9), _rational(rng, 0 if mode == "constrained" else -9, 9)
                argv = ["euler", f"--a={_fraction_text(a)}", "--n", str(n),
                        f"--x={_fraction_text(x)}", "--mode", mode]
                params, radicand = {"a": a, "n": n, "x": x, "mode": mode}, None
            elif cmd == "metallic":
                argv, params, radicand, _ = _metallic_base(
                    rng, _log_int(u, 1, 10 ** 6), None, rng.random() if k % 2 else None, k % 3 == 0)
            elif cmd == "table1":
                rows, side = _log_int(u, 1, 50), rng.choice(("left", "right", "both"))
                argv, params, radicand = (["table1", "--rows", str(rows), "--side", side],
                                       {"rows": rows, "side": side}, None)
            elif cmd == "diophantus":
                count = _log_int(u, 1, 100)
                argv, params, radicand = ["diophantus", "--count", str(count)], {"count": count}, None
            else:
                size, doublets = _log_int(u, 1, 40), k % 2 == 1
                key = rng.randint(0, 40) if k % 3 else None
                argv = ["harmonic", "--size", str(size)] + (["--doublets"] if doublets else [])
                argv += ["--key", str(key)] if key is not None else []
                params, radicand = {"size": size, "doublets": doublets, "key": key}, None
            digits = _log_int(rng.random(), 1, 12) if rng.random() < 0.5 else None
            bases.append([argv, params, radicand, digits])
    wide = rng.choice([base for base in bases if base[0][0] == "stakhov"])
    wide[3] = rng.randint(29, 40)
    ops = [_op(*base, FORMATS[group % 3], group) for group, base in enumerate(bases)]
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "closed_form": closed_form,
    "trinomial": trinomial,
    "catalog": catalog,
    "cold_start": cold_start,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def digest(ops: list[dict]) -> str:
    """Fingerprint of exactly what the program is given."""
    blob = json.dumps([op["argv"] for op in ops], separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
