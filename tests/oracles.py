"""Independent oracles used by the tests.

Everything here is deliberately separate from the library code paths it
checks: plain bisection, full factorization by trial division up to the
square root, naive float continued fractions, exact continued fractions whose
period is found from a dict of every state, truncation via the decimal
module, numpy grid sign counting, exact polynomial gcd over Fractions for
multiple-root detection, mpmath's polynomial roots, or its bisection, at
250 digits, and a JSON parser as strict as RFC 8259.
"""

from __future__ import annotations

import json
from decimal import ROUND_DOWN, Decimal
from fractions import Fraction
from math import floor, isqrt, lcm

import mpmath
import numpy as np

GRID = np.linspace(-10.0, 10.0, 20001)  # step 1e-3
_GRID_POWERS = {k: GRID ** k for k in range(6)}


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Plain bisection on a sign-change interval."""
    f_lo = f(lo)
    assert f_lo * f(hi) < 0, "oracle bracket must change sign"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or hi - lo < tol:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def float_cf_terms(value: float, count: int) -> list[int]:
    """Naive float continued-fraction expansion."""
    out = []
    x = value
    for _ in range(count):
        a = floor(x)
        out.append(a)
        x = 1.0 / (x - a)
    return out


def truncate_float(value: float, digits: int) -> str:
    """Decimal rendering truncated toward zero (independent of the library)."""
    quantum = Decimal(1).scaleb(-digits)
    return str(Decimal(value).quantize(quantum, rounding=ROUND_DOWN))


def split_square_reference(n: int) -> tuple[int, int]:
    """``(root, free)`` with ``n == root**2 * free``, free square-free, from a full
    factorization by trial division up to sqrt(n); (0, 1) for n = 0.
    """
    if n == 0:
        return 0, 1
    exponents: dict[int, int] = {}
    rest, p = n, 2
    while p * p <= rest:
        while rest % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            rest //= p
        p += 1
    if rest > 1:
        exponents[rest] = exponents.get(rest, 0) + 1
    root = free = 1
    for p, k in exponents.items():
        root *= p ** (k // 2)
        free *= p ** (k % 2)
    return root, free


def surd_parts_reference(rat, coeff, radicand: int) -> tuple[int, int, int, int]:
    """``(p, q, den, d)`` of ``rat + coeff*sqrt(radicand)`` by Fraction arithmetic: the
    square part of the radicand is moved into the coefficient, a rational root is added
    to the rational part, and p and q are written over the lcm of the two denominators.
    """
    a, b, d = Fraction(rat), Fraction(coeff), radicand
    if b == 0 or d == 0:
        b, d = Fraction(0), 0
    else:
        root, d = split_square_reference(d)
        b *= root
        if d == 1:
            a += b
            b, d = Fraction(0), 0
    den = lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den, d


def continued_fraction_reference(p: int, q: int, den: int, d: int, max_terms: int):
    """``(initial, period, truncated)`` of the positive irrational ``(p + q*sqrt(d))/den``
    (q != 0, d square-free and >= 2) by the ``(P + sqrt(N))/Q`` recurrence, finding the
    period by keeping every ``(P, Q)`` state past the integer part in a dict.
    """
    s = 1 if q > 0 else -1
    big_p, big_q, big_n = s * p, s * den, q * q * d
    if (big_n - big_p * big_p) % big_q != 0:
        big_p *= abs(big_q)
        big_n *= big_q * big_q
        big_q *= abs(big_q)
    t = isqrt(big_n)
    terms: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    while len(terms) < max_terms:
        k = len(terms)
        if k >= 1:
            state = (big_p, big_q)
            if state in seen:
                start = seen[state]
                return tuple(terms[:start]), tuple(terms[start:]), False
            seen[state] = k
        if big_q > 0:
            term = (big_p + t) // big_q
        else:
            term = -((big_p + t) // -big_q + 1)
        terms.append(term)
        big_p = term * big_q - big_p
        big_q = (big_n - big_p * big_p) // big_q
    return tuple(terms), (), True


def solve_quadratic_reference(p: int, q: Fraction, sign: int):
    """``(x1, x2, discriminant)`` of ``x**2 + sign*p*x - q = 0`` by the textbook formula:
    the discriminant as ``p^2 + 4q`` in Fraction arithmetic, the roots
    ``-sign*p/2 ± sqrt(disc)/2`` with the rational part from the public constructor.
    Raises the library's ``NoRealRoots`` with its message for a negative discriminant.
    """
    from goldmean import NoRealRoots, QuadraticSurd

    disc = Fraction(p * p) + 4 * q
    if disc < 0:
        raise NoRealRoots(f"discriminant p^2 + 4q = {disc} is negative")
    half_root = QuadraticSurd.sqrt(disc) * Fraction(1, 2)
    base = QuadraticSurd(Fraction(-sign * p, 2))
    return base + half_root, base - half_root, disc


def sqrt_decimal_string(whole: int, radicand: int, digits: int) -> str:
    """Truncated decimal string of ``whole + sqrt(radicand)`` via isqrt."""
    scale = 10 ** digits
    scaled = whole * scale + isqrt(radicand * scale * scale)
    return f"{scaled // scale}.{scaled % scale:0{digits}d}"


def grid_sign_changes(n: int, c: int, e: int, rhs: float) -> int:
    """Sign changes of x**n + c*x**e - rhs sampled on [-10, 10] at step 1e-3."""
    values = _GRID_POWERS[n] + c * _GRID_POWERS[e] - rhs
    signs = np.sign(values)
    nonzero = signs[signs != 0]
    return int(np.count_nonzero(nonzero[1:] != nonzero[:-1]))


def _trim(poly: list[Fraction]) -> list[Fraction]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = _trim(list(a))
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, coefficient in enumerate(b):
            a[i + shift] -= factor * coefficient
        _trim(a)
        if not a:
            break
    return a


def has_multiple_root(n: int, c: int, e: int, rhs: Fraction) -> bool:
    """Whether x**n + c*x**e - rhs has a repeated root (exact gcd test).

    For these trinomial families any root shared with the derivative is
    real, so a non-constant gcd(f, f') means a repeated real root.
    """
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] += 1
    coeffs[e] += c
    coeffs[0] -= rhs
    f = _trim(coeffs)
    fp = _trim([i * coefficient for i, coefficient in enumerate(f)][1:])
    a, b = f, fp
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) > 1


#: working precision of the mpmath oracles, in decimal digits
MP_DIGITS = 250


def mp_real_roots(n: int, c, e: int, rhs) -> list:
    """Real roots of x**n + c*x**e - rhs, descending, from mpmath.polyroots.

    Only for polynomials without repeated roots (see has_multiple_root).
    """
    with mpmath.workdps(MP_DIGITS):
        coeffs = [mpmath.mpf(0)] * (n + 1)  # highest degree first
        coeffs[0] += 1
        coeffs[n - e] += mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
        coeffs[n] -= mpmath.mpf(Fraction(rhs).numerator) / Fraction(rhs).denominator
        if n == 1:
            return [-coeffs[1] / coeffs[0]]
        roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=2 * MP_DIGITS)
        tiny = mpmath.mpf(10) ** (-MP_DIGITS // 2)
        return sorted((mpmath.re(r) for r in roots if abs(mpmath.im(r)) < tiny), reverse=True)


def mp_root_in(n: int, c, e: int, rhs, lo, hi, dps: int = MP_DIGITS):
    """The root of x**n + c*x**e - rhs in [lo, hi], where f changes sign, by plain
    bisection in mpmath at ``dps`` digits; for degrees where polyroots takes too long."""
    with mpmath.workdps(dps):
        c, rhs = (mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in (c, rhs))
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        f = lambda x: x ** n + c * x ** e - rhs  # noqa: E731
        s_lo = mpmath.sign(f(lo))
        assert s_lo * f(hi) < 0, "oracle bracket must change sign"
        while hi - lo > mpmath.mpf(10) ** (20 - dps):
            mid = (lo + hi) / 2
            if mpmath.sign(f(mid)) == s_lo:
                lo = mid
            else:
                hi = mid
        return lo


def truncate_mpf(x, digits: int, dps: int = MP_DIGITS) -> str:
    """``x`` truncated toward zero to ``digits`` places, worked at ``dps`` digits.

    A value within 1e-40 grid steps of a grid point is taken to be on it, so
    exact roots that polyroots returns with a last-digit error truncate right.
    """
    with mpmath.workdps(dps):
        scaled = abs(x) * mpmath.mpf(10) ** digits
        nearest = mpmath.nint(scaled)
        on_grid = abs(scaled - nearest) < mpmath.mpf(10) ** -40
        whole = int(nearest) if on_grid else int(mpmath.floor(scaled))
        text = f"{whole // 10 ** digits}.{whole % 10 ** digits:0{digits}d}"
        return f"-{text}" if x < 0 and not (on_grid and whole == 0) else text


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def strict_json(text: str):
    """``json.loads`` refusing ``Infinity``, ``-Infinity`` and ``NaN``, as strict parsers do."""
    return json.loads(text, parse_constant=_no_constant)
