"""Certified real-root finding for the trinomial families x**n ± p*x**e = m/2.

The derivative of ``f(x) = x**n + s*p*x**e - m/2`` (e = 1 or n-1) is a
binomial, so its real zeros are known in closed form.  Between consecutive
critical points and 0 f is strictly monotone; each sign change there brackets
exactly one root, and every other real root is an exact zero at a critical
point or at 0.  Each bracket end, and f's sign there, is decided once.

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
from ._exact import (TOLERANCE, RootRecord, Sign, _as_fraction, _check_digits, _check_tolerance,
                     _decimal_text, _sgn, sign_value)
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
#: largest degree n; at n = 1000, printing 1000 exact digits takes about 0.15 s in a fresh process
MAX_DEGREE = 1000
#: the scale of x*f' in :meth:`_Poly._float`: n and e times it are at most 1/2, so
#: x*f' = n*x**n + e*c*x**e scaled by it is finite wherever both terms are
_SLOPE_SCALE = 2.0 ** -(MAX_DEGREE.bit_length() + 1)


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

    rhs, an int or Fraction, is kept as its numerator ``num`` and denominator ``den``, so
    no step compares or converts a Fraction.  Exact signs at x = p/q, q > 0, are those of
    v = f(p/q) * den * q**n; :meth:`_terms` alone writes v.  A c or rhs past the float range
    raises ``OverflowError`` here."""

    __slots__ = ("n", "c", "e", "num", "den", "_rhs_f", "_c_f", "_bits", "_gammas",
                 "_rhs_err", "_slopes")

    def __init__(self, n: int, c: int, e: int, rhs):
        if n > MAX_DEGREE:
            raise InputTooLarge(f"degree {n} exceeds the bound {MAX_DEGREE}")
        self.n = n
        self.c = c
        self.e = e
        self.num, self.den = rhs.numerator, rhs.denominator
        self._rhs_f = self.num / self.den  # correctly rounded, as float(rhs) is
        self._c_f = float(c)
        # the square-and-multiply steps of :meth:`_float`'s one power, x**(n-1) or x**n
        self._bits = bin(e if e > 1 else n)[3:]
        # the rounding bounds of :meth:`_float` on x**n and c*x**e, for x a double and for x
        # rounded to one, and on rhs plus what rounds below the normal range
        self._gammas = (((n + 2) * _U, (e + 4) * _U), ((2 * n + 2) * _U, (2 * e + 4) * _U))
        self._rhs_err = 3 * _U * abs(self._rhs_f) + 2.0 ** -1073
        # n and e times _SLOPE_SCALE, as e <= n <= MAX_DEGREE
        self._slopes = n * _SLOPE_SCALE, e * _SLOPE_SCALE

    def _terms(self, p: int, q: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
        """Exact (j, (alpha, beta), (d_alpha, d_beta)) with v = alpha * |p|**j + beta * q**(n-1)
        and dv/dp = d_alpha * |p|**j + d_beta * q**(n-1).  The terms of f that cancel where no
        root is near share a coefficient, so bounds on the two powers keep them exact."""
        n, e, c, den, num = self.n, self.e, self.c, self.den, self.num
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

    def bounds(self, p: int, q: int, bits: int,
               q_power: tuple[int, int, int] | None = None) -> tuple[int, int, int, int]:
        """(lo, hi, value, slope): lo <= v/2**s <= hi at some scale s, from the powers of
        :meth:`_terms` kept to ``bits`` bits, so where lo and hi have one sign it is v's;
        value/slope approximates v over dv/dp.  ``q_power``, if given, is
        ``_power(q, n - 1, bits)``, made once by a caller with many p over one q."""
        j, v, dv = self._terms(p, q)
        powers = _power(abs(p), j, bits), q_power or _power(q, self.n - 1, bits)
        lo, hi, s = _sum(bits, *zip(v, powers))
        _, d_hi, ds = _sum(bits, *zip(dv, powers))
        return lo, hi, hi << max(s - ds, 0), d_hi << max(ds - s, 0)

    def _float(self, x: float, rounded: bool) -> tuple[float, float, float, float]:
        """(f, err, x**n, dx) in doubles at the double x, where f is within err of f at the
        point x stands for, so f decides that sign where |f| > err; err is inf where the
        bound does not hold.  dx = -f/f' is the Newton step, from x*f' scaled by
        :data:`_SLOPE_SCALE` so that it is lost only where x**n or c*x**e overflows; it is
        inf or nan where there is none.

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
        xdf = n_s * xn + e_s * t  # x*f' * _SLOPE_SCALE
        return fx, err, xn, -fx / xdf * (x * _SLOPE_SCALE) if xdf else math.inf

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

    def truncate(self, guess: float, lo, hi, orient: int, digits: int) -> tuple[str, int]:
        """The root x in [lo, hi] truncated toward zero to ``digits`` places, and its sign.

        x is the only root in [lo, hi] (ints, floats or Fractions), oriented by ``orient``:
        +1 where f rises through x, so is negative at lo, and -1 where it falls.  k =
        floor(x*N), N = 10**digits, is decided by the signs of v at grid points
        k/N: Newton steps from ``guess`` under the safeguard of :func:`_refine`.
        Each sign comes from the first tier that decides it.  :meth:`_float` at the
        double nearest k/N decides wherever k/N is farther from x than f's rounding
        error in doubles, and its f and f' give the step.  Where v is wide, :meth:`bounds`
        kept to about 4 bits a digit give the sign and step, so the cost grows with
        digits rather than with n * digits; where they straddle 0, only the exact v at the
        reduced k/N (:meth:`exact`) decides, and the step bisects.
        """
        _check_digits(digits)
        scale = 10 ** digits
        n = self.n
        bits = 4 * digits + 2 * n.bit_length() + 64 if n * scale.bit_length() > _EXACT_BITS else 0
        # N**(n-1), exact or bounded to ``bits``, made by the first point the float tier leaves
        q_power = None

        def at(k: int) -> tuple[float, int | None]:
            """A value of v's sign at k/N, 0 only where v is, and the Newton estimate of
            floor(x*N) - k, or None for a bisection step."""
            nonlocal q_power
            x = k / scale  # the nearest double; k/N is inside the bracket's finite range
            fx, err, _, dx = self._float(x, True)
            if abs(fx) > err:
                if abs(dx) <= _HUGE:
                    p, q = dx.as_integer_ratio()  # q is a power of 2: floor(dx*N) is a shift
                    return fx, p * scale >> q.bit_length() - 1
                return fx, None
            if q_power is None:
                q_power = _power(scale, n - 1, bits) if bits else scale ** (n - 1)
            if bits:
                lo, hi, value, slope = self.bounds(k, scale, bits, q_power)
                if _sgn(lo) != _sgn(hi):  # v may be 0 here
                    return _sgn(self.exact(*Fraction(k, scale).as_integer_ratio())), None
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

    A record of its roots alone: ``poly`` and, parallel to ``roots``, their exact ends
    (lo, hi, s_lo) from :func:`_seeds` are kept for :meth:`truncate` but are not fields, so
    they take no part in equality, hashing or the repr.
    """

    def __new__(cls, roots: tuple[RootRecord, ...], poly: _Poly, ends: tuple):
        self = super().__new__(cls, roots)
        self.poly, self._ends = poly, ends
        return self

    def __getnewargs__(self):
        return self.roots, self.poly, self._ends

    @property
    def values(self) -> list[float]:
        return [r.value for r in self.roots]

    def truncate(self, record: RootRecord, digits: int) -> tuple[str, int]:
        """``record``'s root truncated toward zero to ``digits`` exact places, and its sign."""
        if record.exact is not None:  # a Fraction: floored by integer division
            _check_digits(digits)
            p, q = record.exact.as_integer_ratio()
            return _decimal_text(p < 0, abs(p) * 10 ** digits // q, digits), _sgn(p)
        lo, hi, s_lo = self._ends[self.roots.index(record)]
        return self.poly.truncate(record.value, lo, hi, -s_lo, digits)


def _critical_signs(poly: _Poly) -> list[tuple]:
    """Real zeros x* != 0 of f', ascending, as marks (lo, hi, s), s the exact sign of f at x*.

    lo = hi = x* where s = 0 (an exact root) or x* is a double (for e = 1, only one that a
    root lies within an ulp of).  Otherwise lo < hi lie about x*, f has sign s at both and no
    root lies between either and x*: the double computed for x* and the next one up, or,
    where a root lies within one ulp of x*, dyadics halved toward x*.  A root that one of
    those ends hits exactly follows or precedes its mark as the mark (z, z, 0) of a root, in
    order.  f' is a binomial with at most two real zeros besides 0, which :func:`_seeds`
    marks, so f has at most four monotone pieces between them.
    """
    n, c, e, num, den = poly.n, poly.c, poly.e, poly.num, poly.den
    if e == n - 1 and n >= 3:
        # f' = x**(n-2) * (n*x + c*(n-1))
        star = Fraction(-c * (n - 1), n)
        return _ends(poly, star, float(star), poly.sign(star), lambda t: (t > star) - (t < star))
    k = n - 1  # e = 1: x**k = -c/n
    if c == 0 or k % 2 == 0 and c > 0:
        return []
    r = (abs(c) / n) ** (1.0 / k)
    points = []
    for side in (-1, 1) if k % 2 == 0 else (-_sgn(c),):
        # there f(x) = c*(n-1)/n * x - rhs; same-sign terms compare as k-th powers
        lead = side * _sgn(c)
        s = lead if lead != _sgn(num) else lead * _sgn(
            (abs(c) * k * den) ** k * abs(c) - abs(num) ** k * n ** n)
        def versus(t, side=side) -> int:  # the sign of t - x*, x* = side * (|c|/n)**(1/k)
            p, q = t.as_integer_ratio()
            return -side if side * p <= 0 else side * _sgn(abs(p) ** k * n - abs(c) * q ** k)
        star = Fraction(num * n, den * c * k) if s == 0 else None
        points += _ends(poly, star, side * r, s, versus)
    return points


def _ends(poly: _Poly, star: Fraction | None, near: float, s: int, versus) -> list[tuple]:
    """The marks of :func:`_critical_signs` for x* at about the double ``near``: ``star`` is
    x*, or None for e = 1 where s != 0, and ``versus(t)`` is the exact sign of t - x*.  An
    end where f is 0 is a root z, on one side of x*, whose mark (z, z, 0) is kept; f is
    monotone on either side, so there are at most two.  Roots nearer x* than 2**-2099 ulp
    raise NoConvergence."""
    if s == 0 or near == star:
        return [(star, star, s)]
    lo, hi, width = near, math.nextafter(near, math.inf), math.ulp(near)
    zeros = []
    for _ in range(_MAX_ITERATIONS):
        signs = poly.sign(lo), poly.sign(hi)
        if signs == (s, s):
            break
        zeros += [t for t, sign in zip((lo, hi), signs) if sign == 0 and t not in zeros]
        at = versus(lo), versus(hi)
        if 0 in at:  # x* is an end, so a double: its mark is exact
            lo = hi = lo if at[0] == 0 else hi
            break
        # a root within an ulp of x*: widen (lo, hi) by doubles to hold x*, then halve it
        if at == (-1, 1):
            mid = (Fraction(lo) + Fraction(hi)) / 2
            lo, hi = (mid, hi) if versus(mid) < 0 else (lo, mid)
        else:
            lo, hi, width = lo - width, hi + width, 2 * width
    else:
        raise NoConvergence(f"no ends of sign {s} about x* within {_MAX_ITERATIONS} steps")
    return ([(z, z, 0) for z in zeros if z < lo] + [(lo, hi, s)]
            + [(z, z, 0) for z in zeros if z > hi])


def _least(a: int, b: int, d: int, strict: bool):
    """The least int t with 2**(t*d) * a > b (``strict``) or >= b, for a, d >= 1, or -inf where
    b <= 0: bit lengths leave the least k = t*d one of two, one exact comparison picks it."""
    if b <= 0:
        return -math.inf
    k = b.bit_length() - a.bit_length()
    v = (a << k) - b if k >= 0 else a - (b << -k)  # of the sign of 2**k * a - b
    return -(-(k + (v < strict)) // d)


def _outer(poly: _Poly, side: int) -> tuple:
    """The mark (U, U, s), U = side * 2**t past every critical point, s the sign of U**n and
    of f there by the inequality below (Fujiwara's bound); t is the least it allows, >= -1074.
    A U past the float range raises OverflowError, as the root's x**n is past it too."""
    n, c, e, num, den = poly.n, poly.c, poly.e, poly.num, poly.den
    if c * side ** (n - e) >= 0:  # x**n and c*x**e share a sign on this side of 0
        # |U**n| >= |rhs| where c != 0 (> where c = 0), or |c*U**e| > |rhs|
        r = abs(num)
        t = min(_least(den, r, n, not c), _least(abs(c) * den, r, e, True) if c else math.inf)
    else:
        # |U|**n >= 2*|c*U**e| and |U|**n > 2*|rhs|: |c*U**e| + |rhs| < |U**n|
        t = max(_least(1, 2 * abs(c), n - e, False), _least(den, 2 * abs(num), n, True))
    u = math.ldexp(side, max(t, -1074))
    return u, u, 1 if side > 0 or n % 2 == 0 else -1


def _seeds(poly: _Poly) -> list[tuple]:
    """Complete root isolation, ascending: (x, x, 0) for an exact root x, and (lo, hi, s_lo)
    for a bracket of one root, f of exact sign s_lo at lo and -s_lo at hi."""
    n, c, e, num, den = poly.n, poly.c, poly.e, poly.num, poly.den
    if n == 1:  # (1 + c)*x = rhs, or x + c = rhs
        if e == 1 and c == -1:
            raise DegenerateIdentity("0 = 0: every x solves the equation" if num == 0 else
                                     f"0 = {Fraction(num, den)}: no x solves the equation")
        root = Fraction(num, den * (1 + c)) if e else Fraction(num - c * den, den)
        return [(root, root, 0)]

    # f(0) = -rhs (e >= 1) is read off: a mark at 0 keeps brackets off 0, and a root there exact
    marks = _critical_signs(poly)
    if not any(lo <= 0 <= hi for lo, hi, _ in marks):
        marks = sorted(marks + [(0, 0, -_sgn(num))])
    if marks[0][2] not in (0, 1 if n % 2 == 0 else -1):  # f has the sign of (-1)**n far left
        marks.insert(0, _outer(poly, -1))
    if marks[-1][2] not in (0, 1):
        marks.append(_outer(poly, +1))
    # a root at each mark where f is 0, and one between marks where f changes sign
    return [(lo, hi, 0) if s == 0 else (hi, next_lo, s)
            for (lo, hi, s), (next_lo, _, next_s) in zip(marks, marks[1:] + [(0, 0, 0)])
            if s == 0 or s * next_s < 0]


def _first_point(poly: _Poly, lo: float, hi: float) -> float:
    """Three fixed-point steps of x**n + c*x**e = rhs from the midpoint, by the map that
    contracts by 4 there: y <- root_n(rhs - c*y**e), of relative slope e*|c*y**e| /
    (n*|rhs - c*y**e|), or y <- root_e((rhs - y**n)/c), of n*|y**n| / (e*|rhs - y**n|).  A y
    on lo or hi moves one ulp inside; with neither map, or y outside, it is the midpoint."""
    n, e, c, rhs = poly.n, poly.e, poly._c_f, poly._rhs_f
    y = mid = 0.5 * (lo + hi)
    try:
        t, xn = c * y ** e, y ** n
        k = (n if 4 * e * abs(t) <= n * abs(rhs - t) else
             e if 4 * n * abs(xn) <= e * abs(rhs - xn) else 0)
        for _ in range(3 if k else 0):
            v = rhs - c * y ** e if k == n else (rhs - y ** n) / c
            if v < 0 and k % 2 == 0:
                break
            y = math.copysign(abs(v) ** (1.0 / k), v if k % 2 else y)
    except OverflowError:  # y**n is past the float range
        return mid
    return y if lo < y < hi else math.nextafter(y, mid) if y in (lo, hi) else mid


def _refine(poly: _Poly, lo: float, hi: float, s_lo: int,
            tolerance: float) -> tuple[float, float, int, Fraction | None]:
    """Bisection with a safeguarded Newton step inside a sign-change bracket: (x, |f(x)|,
    iterations, and the Fraction x where x is the exact root, or None).

    Each step evaluates :meth:`_Poly._float` once.  It stops once the scaled residual
    |f|/(1 + |x|**n) and f's error bound, scaled alike, are within ``tolerance``, or the
    bracket is two adjacent floats, where no float lies closer to the root.  Where the
    bound cannot decide f's sign, the exact sign picks the bracket end that moves.

    The step comes from the ``xn`` and ``fx`` of :meth:`_Poly._float`, with w = xn - fx =
    rhs - c*x**e, so that f = x**n - w.  Where x**n and w are nonzero and share a sign and
    the x**n term dominates x*f', |b| < n with b = e*(rhs - w)/w, it is Newton's step on
    ln(x**n) - ln(w), dx = -ln(x**n/w) * x / (n + b), which is nearly linear where f is
    nearly a pure power, as near 1 at high degree, where a step on f overshoots and the
    bracket is bisected instead.  Where |b| >= n, w is near its own zero and its logarithm
    is not nearly linear, so there, and elsewhere, the step is Newton's on f.  A step is
    taken only when it lands inside the bracket and is at most half the step before the
    previous one (the rule of Numerical Recipes' ``rtsafe``), and the bracket is bisected
    otherwise.  Where x**n overflows, err is inf, so the exact sign goes on bisecting there.
    Raises ``OverflowError`` where f in doubles is not finite at the point it returns.
    """
    n, e, rhs = poly.n, poly.e, poly._rhs_f
    x = _first_point(poly, lo, hi)
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
        w = xn - fx
        ratio = xn / w if w else 0.0
        if 0.0 < ratio <= _HUGE:  # and so is not nan: x**n and w share a sign
            b = e * (rhs - w) / w
            if abs(b) < n:  # and so n + b > 0
                dx = -math.log(ratio) * x / (n + b)
        nxt = x + dx
        if not (lo < nxt < hi and 2.0 * abs(nxt - x) <= older):
            nxt = 0.5 * (lo + hi)
        older, step, x = step, abs(nxt - x), nxt
    else:
        raise NoConvergence(f"no root to tolerance {tolerance} within {_MAX_ITERATIONS} "
                            "iterations")
    if not abs(fx) <= _HUGE:
        raise OverflowError("f in doubles is not finite at the root's float")
    z = x + dx if abs(dx) <= _HUGE else x  # a rational root p/q has q | den: test such a z
    p, q = z.as_integer_ratio()
    if lo < z < hi and poly.den % q == 0 and poly.exact(p, q) == 0:
        return z, 0.0, iteration, Fraction(p, q)
    return x, abs(fx), iteration, None


def _solve(n: int, c: int, e: int, rhs: Fraction, tolerance: float = TOLERANCE) -> RootSet:
    _check_tolerance(tolerance)
    try:
        poly = _Poly(n, c, e, rhs)
        seeds = _seeds(poly)
        records = []
        for lo, hi, s_lo in seeds:
            if s_lo == 0:  # an exact root
                fv = float(lo)
                p, q = fv.as_integer_ratio()  # |f(fv)|, rounded once
                residual = abs(poly.exact(p, q)) / (poly.den * q ** n)
                records.append(RootRecord(fv, (fv, fv), residual, 0, Fraction(lo)))
            else:
                bracket = float(lo), float(hi)
                value, residual, iterations, exact = _refine(poly, *bracket, s_lo, tolerance)
                records.append(RootRecord(value, bracket, residual, iterations, exact))
    except OverflowError as exc:
        raise InputTooLarge("values of the equation exceed the float range (about 1.8e308) "
                            "of the first refinement stage") from exc
    return RootSet(tuple(records), poly, tuple(seeds))


def isolate_real_roots(spec: TrinomialSpec) -> list[tuple[float, float]]:
    """Brackets of doubles, one per real root, covering every real root: disjoint but for
    roots closer than one ulp, whose brackets may share an end.  Roots exact before refinement
    (at critical points, at 0, or from the linear cases) have brackets (value, value).
    """
    return [record.bracket for record in solve_trinomial(spec).roots]


def solve_trinomial(spec: TrinomialSpec, *, tolerance: float = TOLERANCE) -> RootSet:
    """Every real root of ``x**n + s*p*x**e = m/2``, certified.

    ``tolerance`` bounds each float root's scaled residual (see :data:`TOLERANCE`);
    one that is not positive and finite (NaN, 0 or inf) raises ``ValueError``.

    Raises :class:`DegenerateIdentity` when the x terms cancel (n = 1,
    minus sign, p = 1), since silence there would mask a modeling mistake,
    and :class:`InputTooLarge` when n exceeds :data:`MAX_DEGREE` or the
    float stage overflows.
    """
    return _solve(spec.n, spec.signed_p, spec.exponent, spec.rhs, tolerance)


def solve_gm_general(n: int, m: int, *, tolerance: float = TOLERANCE) -> RootSet:
    """Every real root of the generalized golden-mean equation ``x**n + x = m/2``."""
    return solve_trinomial(TrinomialSpec(n=n, p=1, p_sign="plus", m=m), tolerance=tolerance)


def _stakhov_poly(n: int, variant: str) -> _Poly:
    """f of ``x**n + x = 1`` (variant a) or ``x**n + x**(n-1) = 1`` (variant b)."""
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _Poly(n, 1, 1 if variant == "a" else n - 1, 1)


def solve_stakhov(n: int, variant: str = "a") -> float:
    """Unique non-negative root of ``x**n + x = 1`` (a) or ``x**n + x**(n-1) = 1`` (b).

    Both left sides are strictly increasing for x >= 0, from 0 at x = 0 to 2 at x = 1, so
    the root is unique and lies in [0, 1], where f rises from -1 to 1: that bracket is
    refined alone, with no isolation of the other real roots.  Variant b at n = 1
    degenerates to x + 1 = 1, with the exact root 0.
    """
    poly = _stakhov_poly(n, variant)
    return _refine(poly, 0.0, 1.0, -1, TOLERANCE)[0] if poly.e else 0.0


def stakhov_decimal(n: int, variant: str, value: float, digits: int) -> str:
    """The root ``value`` of :func:`solve_stakhov`, truncated to ``digits`` exact places.

    The root lies in [0, 1], where both left sides increase: that is its bracket.
    """
    return _stakhov_poly(n, variant).truncate(value, 0.0, 1.0, 1, digits)[0]


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
