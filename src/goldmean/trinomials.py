"""Certified real-root finding for the trinomial families x**n ± p*x**e = m/2.

The derivative of ``f(x) = x**n + s*p*x**e - m/2`` (e = 1 or n-1) is a
binomial, so its real zeros are known in closed form.  Between consecutive
critical points f is strictly monotone; each sign change there brackets
exactly one root, and every real root is either such a sign change or an
exact zero at a critical point.  Signs of f there are certain.

One float evaluator, :meth:`_Poly._float`, gives f in doubles with a proven
bound on its rounding error.  Brackets are refined with it to binary64
diagnostics by bisection with a safeguarded Newton step; printed digits come
from :meth:`RootSet.truncate`, which decides them by sign tests on the decimal
grid.  Each sign is that of one integer, decided in three tiers: f in doubles
where it exceeds its error bound first (the cheapest tier of Shewchuk's
adaptive predicates), then, where the integer is wide, bounds on its two
powers (Ziv's strategy), and the integer itself only where both leave the
sign open.  Exact closed forms live in :mod:`goldmean.quadratics`.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

# TOLERANCE and RootRecord, at home in _exact, stay importable from here as well
from ._exact import (TOLERANCE, RootRecord, Sign, _as_fraction, _check_digits, _decimal_text,
                     _sgn, sign_value)
from .errors import DegenerateIdentity, InputTooLarge, NoConvergence, NoRealRoot


class TrinomialSpec(namedtuple("TrinomialSpec", "n p p_sign m lower_exponent")):
    """The equation ``x**n + s*p*x**e = m/2``.

    ``lower_exponent`` selects e: ``"one"`` for the linear term family,
    ``"n_minus_one"`` for the x**(n-1) family.
    """

    __slots__ = ()

    def __new__(cls, n: int, p: int = 1, p_sign: Sign = "plus", m: int = 0,
                lower_exponent: str = "one"):
        if n < 1:
            raise ValueError("n must be >= 1")
        if p < 1:
            raise ValueError("p must be >= 1")
        if m < 0:
            raise ValueError("m must be >= 0")
        sign_value(p_sign)
        if lower_exponent not in ("one", "n_minus_one"):
            raise ValueError(
                f"lower_exponent must be 'one' or 'n_minus_one', got {lower_exponent!r}"
            )
        return super().__new__(cls, n, p, p_sign, m, lower_exponent)

    @property
    def signed_p(self) -> int:
        return sign_value(self.p_sign) * self.p

    @property
    def exponent(self) -> int:
        return 1 if self.lower_exponent == "one" else self.n - 1

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.m, 2)


#: float refinement steps per bracket before :class:`NoConvergence`: the halvings that
#: close any bracket of finite floats, from 2**1025 across to the least spacing 2**-1074
_MAX_ITERATIONS = 1025 + 1074
#: geometric factor of the outward bracket search
_BRACKET_GROWTH = 2.0
#: largest degree n; at n = 1000, printing 1000 exact digits takes about 0.15 s in a fresh process
MAX_DEGREE = 1000


#: size n * bitlen(p or q) above which the sign of f(p/q) is first decided by bounds: about
#: where an exact and a bounded evaluation cost the same (25 µs, CPython 3.11 on a Xeon vCPU)
_EXACT_BITS = 8000

#: the least normal and the greatest finite double, between which the relative rounding
#: bounds of :meth:`_Poly._float` hold; U is the unit roundoff 2**-53
_NORMAL, _HUGE, _U = sys.float_info.min, sys.float_info.max, 2.0 ** -53


def _round(lo: int, hi: int, s: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, s) cut to ``bits`` bits of hi: lo rounded down, hi up, s raised to match."""
    t = hi.bit_length() - bits
    return (lo >> t, -(-hi >> t), s + t) if t > 0 else (lo, hi, s)


def _power(b: int, k: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo * 2**s <= b**k <= hi * 2**s for b, k >= 0, by square-and-multiply."""
    z = (b & -b).bit_length() - 1 if b else 0  # powers of two are shifts
    b >>= z
    if b.bit_length() * k <= bits:
        return b ** k, b ** k, z * k
    b_lo, b_hi, b_s = _round(b, b, 0, bits)
    lo, hi, s = 1, 1, 0
    for bit in bin(k)[2:]:
        lo, hi, s = _round(lo * lo, hi * hi, 2 * s, bits)
        if bit == "1":
            lo, hi, s = _round(lo * b_lo, hi * b_hi, s + b_s, bits)
    return lo, hi, s + z * k


def _sum(bits: int, *terms: tuple[int, tuple[int, int, int]]) -> tuple[int, int, int]:
    """(lo, hi, s) bounding the sum of coefficient * [lo, hi] * 2**s over ``terms``, at the
    scale that keeps ``bits`` bits of the largest term."""
    top = max((s + (abs(coefficient) * x_hi).bit_length()
               for coefficient, (_, x_hi, s) in terms if coefficient), default=bits) - bits
    lo = hi = 0
    for coefficient, (x_lo, x_hi, s) in terms:
        if coefficient < 0:
            x_lo, x_hi = x_hi, x_lo
        if s < top:
            lo += coefficient * x_lo >> top - s
            hi -= -coefficient * x_hi >> top - s
        else:
            lo += coefficient * x_lo << s - top
            hi += coefficient * x_hi << s - top
    return lo, hi, top


class _Poly:
    """f(x) = x**n + c*x**e - rhs with float and exact evaluation.

    Exact signs at x = p/q, q > 0, are those of v = f(p/q) * den * q**n, with den the
    denominator of rhs; :meth:`_terms` alone writes v.  A c or rhs past the float range
    raises ``OverflowError`` here."""

    __slots__ = ("n", "c", "e", "rhs", "_rhs_f", "_c_f", "_bits", "_gammas", "_rhs_err",
                 "_slopes")

    def __init__(self, n: int, c: int, e: int, rhs: Fraction):
        if n > MAX_DEGREE:
            raise InputTooLarge(f"degree {n} exceeds the bound {MAX_DEGREE}")
        self.n = n
        self.c = c
        self.e = e
        self.rhs = rhs
        self._rhs_f = float(rhs)
        self._c_f = float(c)
        # the square-and-multiply steps of :meth:`_float`'s one power, x**(n-1) or x**n
        self._bits = bin(e if e > 1 else n)[3:]
        # the rounding bounds of :meth:`_float` on x**n and c*x**e, for x a double and for x
        # rounded to one, and on rhs plus what rounds below the normal range
        self._gammas = (((n + 2) * _U, (e + 4) * _U), ((2 * n + 2) * _U, (2 * e + 4) * _U))
        self._rhs_err = 3 * _U * abs(self._rhs_f) + 2.0 ** -1073
        # n and e times 2**-11: x*f' = n*x**n + e*c*x**e scaled so is finite wherever both
        # terms are, as e <= n <= MAX_DEGREE < 2**10
        self._slopes = n * 2.0 ** -11, e * 2.0 ** -11

    def _terms(self, p: int, q: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
        """Exact (j, (alpha, beta), (d_alpha, d_beta)) with v = alpha * |p|**j + beta * q**(n-1)
        and dv/dp = d_alpha * |p|**j + d_beta * q**(n-1).  The terms of f that cancel where no
        root is near share a coefficient, so bounds on the two powers keep them exact."""
        n, e, c = self.n, self.e, self.c
        den, num = self.rhs.denominator, self.rhs.numerator
        j = n - 2 if e > 1 else n - 1
        sp = -1 if p < 0 and j % 2 else 1  # p**j = sp * |p|**j
        if e > 1:  # e = n-1: den * p**(n-2) * p * (p + c*q) - num * q * q**(n-1)
            alpha, d_alpha = den * sp * p * (p + c * q), den * sp * (n * p + c * (n - 1) * q)
            return j, (alpha, -num * q), (d_alpha, 0)
        # e = 1 or 0: den * p * p**(n-1) + (den * c * p**e * q**(1-e) - num * q) * q**(n-1)
        return j, (den * sp * p, den * c * (p if e else q) - num * q), (den * sp * n, den * c * e)

    def exact(self, p: int, q: int) -> int:
        """v at p/q, from :meth:`_terms`; powers of a float's denominator are shifts."""
        j, (alpha, beta), _ = self._terms(p, q)
        n, s = self.n, q.bit_length() - 1
        q_power = 1 << s * (n - 1) if q == 1 << s else q ** (n - 1)
        return alpha * abs(p) ** j + beta * q_power

    def bounds(self, p: int, q: int, bits: int) -> tuple[int, int, int, int]:
        """(lo, hi, value, slope): lo <= v/2**s <= hi at some scale s, from the powers of
        :meth:`_terms` kept to ``bits`` bits, so where lo and hi have one sign it is v's;
        value/slope approximates v over dv/dp."""
        j, v, dv = self._terms(p, q)
        powers = _power(abs(p), j, bits), _power(q, self.n - 1, bits)
        lo, hi, s = _sum(bits, *zip(v, powers))
        _, d_hi, ds = _sum(bits, *zip(dv, powers))
        return lo, hi, hi << max(s - ds, 0), d_hi << max(ds - s, 0)

    def _float(self, x: float, rounded: bool) -> tuple[float, float, float, float]:
        """(f, err, x**n, dx) in doubles at the double x, where f is within err of f at the
        point x stands for, so f decides that sign where |f| > err; err is inf where the
        bound does not hold.  dx = -f/f' is the Newton step, from x*f' scaled by 2**-11 so
        that it is lost only where x**n or c*x**e overflows; it is inf or nan where there
        is none.

        The point is x itself, or, where ``rounded``, one that x is the nearest double to.
        The one power is x**(n-1) (e = n-1) or x**n by square-and-multiply, within k - 1
        roundings of x**k: a square doubles the relative error it is given, where libm's
        ``pow`` has no such bound.  Each term of f carries factors 1 + delta, |delta| <= U
        (Higham's gamma_k, §3.1): x**n has n from a rounded x, n - 1 from its power and 2
        from the two sums; c*x**e has e, e - 1, one from float(c), one from the product and
        2; rhs one from float(rhs) and one from the last sum.  Each bound counts one factor
        more, for gamma_k's 1/(1 - k*U), the terms' computed magnitudes and the rounding of
        the bound itself.  They hold where x**n is normal, so that x, both powers and the
        product (|c| >= 1) are, and nothing overflowed, so f is finite.  Below the normal
        range, with e <= 1 and x normal, the computed and the true x**n are both below
        2**-1021 (a computed power that stays normal while the true one is at least
        2**-1021 is within its relative bound), so 2**-1020 more bounds that term.
        """
        y = x
        for bit in self._bits:
            y *= y
            if bit == "1":
                y *= x
        e = self.e
        xn, xe = (y * x, y) if e > 1 else (y, x if e else 1.0)
        t = self._c_f * xe
        fx = xn + t - self._rhs_f
        g_n, g_e = self._gammas[rounded]
        err = g_n * abs(xn) + g_e * abs(t) + self._rhs_err
        if not abs(fx) <= _HUGE:
            err = math.inf
        elif abs(xn) < _NORMAL:
            err = err + 2.0 ** -1020 if e <= 1 and abs(x) >= _NORMAL else math.inf
        n_s, e_s = self._slopes
        xdf = n_s * xn + e_s * t  # x*f' * 2**-11
        return fx, err, xn, -fx / xdf * (x * 2.0 ** -11) if xdf else math.inf

    def sign(self, x) -> int:
        """Exact sign of f(x) for an int, float or Fraction x, in three tiers: :meth:`_float`
        where its error bound decides it; where v would be wide, :meth:`bounds` at a few more
        bits than n has; and v itself only where both leave it open.  Raises
        ``OverflowError`` for an infinite x."""
        try:
            fx, err = self._float(float(x), type(x) is not float)[:2]
        except OverflowError:  # x is past the float range
            fx, err = 0.0, math.inf
        if abs(fx) > err:
            return _sgn(fx)
        p, q = x.as_integer_ratio()
        n = self.n
        if n * max(p.bit_length(), q.bit_length()) > _EXACT_BITS:
            lo, hi = self.bounds(p, q, 2 * n.bit_length() + 64)[:2]
            if _sgn(lo) == _sgn(hi):
                return _sgn(lo)
        return _sgn(self.exact(p, q))

    def truncate(self, guess: float, lo: float, hi: float, digits: int) -> tuple[str, int]:
        """The root x in [lo, hi] truncated toward zero to ``digits`` places, and its sign.

        f must be monotone on [lo, hi] with x its only root there.  k =
        floor(x*N), N = 10**digits, is decided by the signs of v at grid points
        k/N: Newton steps from ``guess`` under the safeguard of :func:`_refine`.
        Each sign comes from the first tier that decides it.  :meth:`_float` at the
        double nearest k/N decides wherever k/N is farther from x than f's rounding
        error in doubles, and its f and f' give the step.  Where v is wide, :meth:`bounds`
        kept to about 4 bits a digit give the sign and step, so the cost grows with
        digits rather than with n * digits; where they straddle 0, :meth:`sign` at the
        reduced k/N decides and the step bisects.
        """
        _check_digits(digits)
        scale = 10 ** digits
        n = self.n
        bits = 4 * digits + 2 * n.bit_length() + 64 if n * scale.bit_length() > _EXACT_BITS else 0
        q_power = 0 if bits else scale ** (n - 1)  # N**(n-1), for the exact v alone

        def at(k: int) -> tuple[float, int | None]:
            """A value of v's sign at k/N, 0 only where v is, and the Newton estimate of
            floor(x*N) - k, or None for a bisection step."""
            x = k / scale  # the nearest double; k/N is inside the bracket's finite range
            fx, err, _, dx = self._float(x, True)
            if abs(fx) > err:
                if abs(dx) <= _HUGE:
                    p, q = dx.as_integer_ratio()  # q is a power of 2: floor(dx*N) is a shift
                    return fx, p * scale >> q.bit_length() - 1
                return fx, None
            if bits:
                lo, hi, value, slope = self.bounds(k, scale, bits)
                if _sgn(lo) != _sgn(hi):  # v may be 0 here
                    return self.sign(Fraction(k, scale)), None
            else:
                j, (alpha, beta), (d_alpha, d_beta) = self._terms(k, scale)
                k_power = abs(k) ** j
                value, slope = alpha * k_power + beta * q_power, d_alpha * k_power + d_beta * q_power
            return value, (-value) // slope if slope else None

        # a/N < lo <= x < b/N, so every k strictly between lies in [lo, hi]
        lo_p, lo_q = lo.as_integer_ratio()
        hi_p, hi_q = hi.as_integer_ratio()
        g_p, g_q = guess.as_integer_ratio()
        a, b = (lo_p * scale - 1) // lo_q, hi_p * scale // hi_q + 1
        k, hit = g_p * scale // g_q, False
        # +1 where f rises through x, from an end where f is not 0
        orient = self.sign(hi) or -self.sign(lo)
        step = older = b - a
        while b - a > 1:
            if not a < k < b:
                k = (a + b) // 2
            value, newton = at(k)
            value *= orient
            if value == 0:
                a, b, hit = k, k + 1, True
                break
            if value < 0:
                a = k
            else:
                b = k
            # aim just past the Newton estimate, onto the other side of x; a step the wrong
            # way, as from a slope of the wrong sign, leaves (a, b) and bisects
            nxt = a if newton is None else k + newton + (value < 0)
            if not (a < nxt < b and 2 * abs(nxt - k) <= older):
                nxt = (a + b) // 2
            older, step, k = step, abs(nxt - k), nxt
        if a >= 0:
            return _decimal_text(False, a, digits), 1 if a or not hit else 0
        return _decimal_text(True, -a if hit else -a - 1, digits), -1


class RootSet(namedtuple("RootSet", "roots")):
    """All real roots of ``poly``, ascending.

    A record of its roots alone: ``poly`` is kept for :meth:`truncate` but is
    not a field, so it takes no part in equality, hashing or the repr.
    """

    def __new__(cls, roots: tuple[RootRecord, ...], poly: _Poly):
        self = super().__new__(cls, roots)
        self.poly = poly
        return self

    def __getnewargs__(self):
        return self.roots, self.poly

    @property
    def values(self) -> list[float]:
        return [r.value for r in self.roots]

    def truncate(self, record: RootRecord, digits: int) -> tuple[str, int]:
        """``record``'s root truncated toward zero to ``digits`` exact places, and its sign."""
        if record.exact is not None:  # a Fraction: floored by integer division
            _check_digits(digits)
            p, q = record.exact.as_integer_ratio()
            return _decimal_text(p < 0, abs(p) * 10 ** digits // q, digits), _sgn(p)
        return self.poly.truncate(record.value, *record.bracket, digits)


def _critical_signs(poly: _Poly) -> list[tuple[float, Fraction | None, int]]:
    """Real zeros of f', ascending, as (float, exact value or None, exact sign of f there).

    The exact value is given whenever f is 0 there.  f'(x) = n*x**(n-1) +
    c*e*x**(e-1) has at most two real zeros for these families, so f has at
    most three monotone pieces.
    """
    n, c, e, rhs = poly.n, poly.c, poly.e, poly.rhs
    if e == n - 1 and n >= 3:
        # f' = x**(n-2) * (n*x + c*(n-1))
        stars = sorted((Fraction(-c * (n - 1), n), Fraction(0)))
        return [(float(x), x, poly.sign(x)) for x in stars]
    k = n - 1  # e = 1: x**k = -c/n
    if k % 2 == 0 and c >= 0:
        return []
    r = (abs(c) / n) ** (1.0 / k)
    points = []
    for side in (-1, 1) if k % 2 == 0 else (-_sgn(c) or 1,):
        # there f(x) = c*(n-1)/n * x - rhs; same-sign terms compare as k-th powers
        lead = side * _sgn(c)
        if lead != _sgn(rhs):
            s = lead or -_sgn(rhs)
        else:
            s = lead * _sgn((abs(c) * k * rhs.denominator) ** k * abs(c)
                            - abs(rhs.numerator) ** k * n ** n)
        exact = (rhs * n / (c * k) if c else Fraction(0)) if s == 0 else None
        points.append((side * r, exact, s))
    return points


def _expand(poly: _Poly, anchor: float, direction: int, inner_sign: int) -> float:
    """Walk outward geometrically from the anchor until the exact sign of f changes (or f
    is 0).  f is monotone beyond the anchor, so where it keeps its sign at an x on the
    walk's side of 0 with |x|**n >= 2**1025, the root lies farther out, where x**n in
    doubles is inf and f in doubles is not finite: the walk raises ``OverflowError``
    there.  A step that reaches inf ends in the ``OverflowError`` of :meth:`_Poly.sign`."""
    step, x = 1.0, None
    while True:
        last, x = x, anchor + direction * step
        step *= _BRACKET_GROWTH
        if x == last:  # anchor + step rounds to the last point, whose sign is known
            continue
        if poly.sign(x) != inner_sign:
            return x
        if direction * x > 0 and poly.n * (math.frexp(x)[1] - 1) > 1024:
            raise OverflowError("x**n overflows in doubles before f changes sign")


def _pull_off(poly: _Poly, lo: float, hi: float, s_lo: int) -> float:
    """Point strictly inside (lo, hi) where f keeps its sign ``s_lo`` at lo, by exact sign tests."""
    width = hi - lo
    shrink = 0.5
    for _ in range(60):
        x = lo + width * shrink
        if poly.sign(x) == s_lo:
            return x
        shrink *= 0.5
    return lo


def _seeds(poly: _Poly) -> tuple[list[Fraction], list[tuple[float, float, int]]]:
    """Complete root isolation: (exact roots, brackets (lo, hi, exact sign of f left of root))."""
    n, c, e, rhs = poly.n, poly.c, poly.e, poly.rhs
    if n == 1:
        if e == 1:
            coefficient = 1 + c
            if coefficient == 0:
                if rhs == 0:
                    raise DegenerateIdentity("0 = 0: every x solves the equation")
                raise DegenerateIdentity(f"0 = {rhs}: no x solves the equation")
            return [Fraction(rhs, coefficient)], []
        return [rhs - c], []

    # with no critical points f is strictly increasing (n odd, c >= 0, e = 1): walk from 0
    points = _critical_signs(poly) or [(0.0, Fraction(0), poly.sign(0))]
    exact_roots = [exact for _, exact, s in points if s == 0]
    marks = [(fval, s) for fval, _, s in points]
    brackets: list[tuple[float, float, int]] = []
    left_infinity = 1 if n % 2 == 0 else -1
    first_x, first_s = marks[0]
    if first_s not in (0, left_infinity):
        brackets.append((_expand(poly, first_x, -1, first_s), first_x, -first_s))
    for (xa, sa), (xb, sb) in zip(marks, marks[1:]):
        if sa != 0 and sb != 0 and sa != sb:
            brackets.append((xa, xb, sa))
    last_x, last_s = marks[-1]
    if last_s not in (0, 1):
        brackets.append((last_x, _expand(poly, last_x, +1, last_s), last_s))

    # roots are interior, so shared endpoints (critical points) can be pulled apart
    for i in range(1, len(brackets)):
        lo, hi, s_lo = brackets[i]
        if lo == brackets[i - 1][1]:
            brackets[i] = (_pull_off(poly, lo, hi, s_lo), hi, s_lo)
    return exact_roots, brackets


def _refine(poly: _Poly, lo: float, hi: float, s_lo: int,
            tolerance: float) -> tuple[float, float, int]:
    """Bisection with a safeguarded Newton step inside a sign-change bracket.

    Each step evaluates :meth:`_Poly._float` once.  It stops once the scaled residual
    |f|/(1 + |x|**n) and f's error bound, scaled alike, are within ``tolerance``, or the
    bracket is two adjacent floats, where no float lies closer to the root.  Where the
    bound cannot decide f's sign, the exact sign picks the bracket end that moves.  A
    Newton step is taken only when it lands inside the bracket and is at most half the
    step before the previous one (the rule of Numerical Recipes' ``rtsafe``), so a steep
    convex piece is bisected rather than walked down in steps of about x/n.  Where x**n
    overflows, err is inf, so the exact sign goes on bisecting there.  Raises
    ``OverflowError`` where f in doubles is not finite at the point it returns.
    """
    for end in (lo, hi):
        if poly.sign(end) == 0:
            return end, 0.0, 0
    x = 0.5 * (lo + hi)
    step = older = hi - lo
    for iteration in range(1, _MAX_ITERATIONS + 1):
        fx, err, xn, dx = poly._float(x, False)
        scale = tolerance * (1.0 + abs(xn))
        # x is an end of the bracket only once lo and hi are adjacent floats
        if abs(fx) <= scale and err <= min(scale, _HUGE) or not lo < x < hi:
            break
        side = fx if abs(fx) > err else poly.sign(x)
        if side == 0:
            break
        if (side < 0) == (s_lo < 0):
            lo = x
        else:
            hi = x
        nxt = x + dx
        if not (lo < nxt < hi and 2.0 * abs(nxt - x) <= older):
            nxt = 0.5 * (lo + hi)
        older, step, x = step, abs(nxt - x), nxt
    else:
        raise NoConvergence(
            f"no root to tolerance {tolerance} within {_MAX_ITERATIONS} iterations"
        )
    if not abs(fx) <= _HUGE:
        raise OverflowError("f in doubles is not finite at the root's float")
    return x, abs(fx), iteration


def _solve(n: int, c: int, e: int, rhs: Fraction, tolerance: float = TOLERANCE) -> RootSet:
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    try:
        poly = _Poly(n, c, e, rhs)
        exact_roots, brackets = _seeds(poly)
        records = []
        for root in exact_roots:
            fv = float(root)
            p, q = fv.as_integer_ratio()  # |f(fv)|, rounded once
            residual = abs(poly.exact(p, q)) / (poly.rhs.denominator * q ** n)
            records.append(RootRecord(fv, (fv, fv), residual, 0, root))
        for lo, hi, s_lo in brackets:
            value, residual, iterations = _refine(poly, lo, hi, s_lo, tolerance)
            records.append(RootRecord(value, (lo, hi), residual, iterations))
    except OverflowError as exc:
        raise InputTooLarge("values of the equation exceed the float range (about 1.8e308) "
                            "of the first refinement stage") from exc
    records.sort(key=lambda record: record.value)
    return RootSet(tuple(records), poly)


def isolate_real_roots(spec: TrinomialSpec) -> list[tuple[float, float]]:
    """Disjoint brackets, one per real root, covering every real root.

    Exactly-known roots (at critical points, or from the linear cases)
    appear as degenerate (value, value) brackets.
    """
    return [record.bracket for record in solve_trinomial(spec).roots]


def solve_trinomial(spec: TrinomialSpec, *, tolerance: float = TOLERANCE) -> RootSet:
    """Every real root of ``x**n + s*p*x**e = m/2``, certified.

    ``tolerance`` bounds each float root's scaled residual (see :data:`TOLERANCE`);
    one that is not positive (or NaN) raises ``ValueError``.

    Raises :class:`DegenerateIdentity` when the x terms cancel (n = 1,
    minus sign, p = 1), since silence there would mask a modeling mistake,
    and :class:`InputTooLarge` when n exceeds :data:`MAX_DEGREE` or the
    float stage overflows.
    """
    return _solve(spec.n, spec.signed_p, spec.exponent, spec.rhs, tolerance)


def solve_gm_general(n: int, m: int, *, tolerance: float = TOLERANCE) -> RootSet:
    """Every real root of the generalized golden-mean equation ``x**n + x = m/2``."""
    return solve_trinomial(TrinomialSpec(n=n, p=1, p_sign="plus", m=m), tolerance=tolerance)


def _stakhov_spec(n: int, variant: str) -> TrinomialSpec:
    """``x**n + x = 1`` (variant a) or ``x**n + x**(n-1) = 1`` (variant b)."""
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    return TrinomialSpec(n=n, m=2, lower_exponent="one" if variant == "a" else "n_minus_one")


def solve_stakhov(n: int, variant: str = "a") -> float:
    """Unique non-negative root of ``x**n + x = 1`` (a) or ``x**n + x**(n-1) = 1`` (b).

    Both left sides are strictly increasing for x >= 0, so the root is
    unique; variant b at n = 1 degenerates to x + 1 = 1 with root 0.
    """
    value = solve_trinomial(_stakhov_spec(n, variant)).roots[-1].value
    if value < 0:
        raise NoConvergence("expected a non-negative root")
    return value


def stakhov_decimal(n: int, variant: str, value: float, digits: int) -> str:
    """The root ``value`` of :func:`solve_stakhov`, truncated to ``digits`` exact places.

    The root lies in [0, 1], where both left sides increase: that is its bracket.
    """
    spec = _stakhov_spec(n, variant)
    poly = _Poly(spec.n, spec.signed_p, spec.exponent, spec.rhs)
    return poly.truncate(value, 0.0, 1.0, digits)[0]


def solve_euler(a, n: int, x, mode: str = "constrained") -> RootSet:
    """Solve ``(a + b**n)/n = x`` for b.

    direct mode: all real b with ``b**n = n*x - a`` (one or two values by
    parity; raises :class:`NoRealRoot` for an even n and negative target),
    solved as the trinomial ``b**n + 0*b = n*x - a``.

    constrained mode: sets a = b and solves ``b**n + b = n*x`` with the
    trinomial machinery; at n = 2, x = 1/2 this is exactly the golden-mean
    equation ``b**2 + b = 1``.
    """
    a = _as_fraction(a)
    x = _as_fraction(x)
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "constrained":
        return _solve(n, 1, 1, n * x)
    if mode != "direct":
        raise ValueError(f"mode must be 'direct' or 'constrained', got {mode!r}")
    target = n * x - a
    if n % 2 == 0 and target < 0:
        raise NoRealRoot(f"b**{n} = {target} has no real solution")
    return _solve(n, 0, 1, target)
