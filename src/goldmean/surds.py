"""Exact arithmetic on rationals and quadratic surds.

A :class:`QuadraticSurd` is the value ``rat + coeff*sqrt(radicand)`` with
rational ``rat``/``coeff`` and a square-free integer radicand, held as the
integers of ``(p + q*sqrt(d))/den``.  Every closed-form root in this library
lives in such a field, so sums, products and comparisons are decided by
integer arithmetic alone, never by floating point.  The module also
provides digit-exact decimal rendering and the periodic continued-fraction
expansion of quadratic irrationals.

Values are immutable; every operation returns a new value.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, compress, cycle
from math import gcd, isqrt, ldexp, prod

# MAX_DIGITS is not used here; it stays importable as goldmean.surds.MAX_DIGITS
from ._exact import MAX_DIGITS, _as_fraction, _check_digits, _decimal_text, _sgn  # noqa: F401
from .errors import InputTooLarge, MixedRadicands, NonPositive

#: The exact scalar used throughout the library.
Rational = Fraction

#: Largest integer :func:`_root_parts` splits; its worst case, the prime 10**18 - 11, takes
#: 0.03-0.05 s, nearly all in the wheel up to its cube root (CPython 3.11, shared 2-vCPU Xeon).
MAX_RADICAND = 10 ** 18
#: Most terms :func:`continued_fraction_of` expands; it keeps one state to find the
#: period, so memory grows only with the terms: 10**4 take about 0.03 s, 10**5 about 0.2 s.
MAX_CF_TERMS = 10 ** 4


def _primorial(bound: int) -> int:
    """The product of the primes below ``bound``, by a sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    for f in range(2, isqrt(bound - 1) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, bound, f)))
    return prod(compress(range(bound), sieve))


#: the product of the primes below 2**10, whose part of n :func:`_split_square` takes by gcds
_SMALL_PRIMES = _primorial(1 << 10)


def _split_square(n: int) -> tuple[int, int]:
    """Return ``(root, free)`` with ``n == root**2 * free`` and ``free`` square-free.

    The primes below 2**10 go by gcds with their product P (Bernstein, "How to find
    smooth parts of integers", 2004): s_1 = gcd(n, P), and s_(i+1) = gcd(rest, s_i) once
    rest is divided by s_1 ... s_i, is the product of the small primes whose exponent is at
    least i.  So ``free`` takes s_1/s_2 * s_3/s_4 * ... and ``root`` s_2 * s_4 * ....
    Trial division goes on over a mod-30 wheel (1027, 1031, 1033, ..., the 8 in every 30
    prime to 30, from 1027 = 7 mod 30) while f**3 <= rest, so the cost is O(n**(1/3)).
    The cofactor left then has at most two prime factors, all above f, so it is 1, p, p*q
    or p**2, and it is a square exactly when ``isqrt(rest)**2 == rest``.  A radicand
    below 4*10**9 takes about 3 µs; the prime 10**18 - 11, nearly all wheel, 0.03-0.05 s
    (CPython 3.11, shared 2-vCPU Xeon).
    """
    if n == 0:  # gcd(0, P) is P, which would never leave rest
        return 0, 1
    root = free = 1
    rest, s = n, gcd(n, _SMALL_PRIMES)
    while s > 1:
        rest //= s
        t = gcd(rest, s)  # the primes of s that divide rest once more
        free *= s // t
        root *= t
        rest //= t
        s = gcd(rest, t)
    if rest >> 30:  # rest >= 1024**3 may have three prime factors above 2**10
        for f in accumulate(cycle((4, 2, 4, 2, 4, 6, 2, 6)), initial=1027):
            if f * f * f > rest:
                break
            if rest % f == 0:
                k = 0
                while rest % f == 0:
                    rest //= f
                    k += 1
                root *= f ** (k >> 1)
                if k & 1:
                    free *= f
    r = isqrt(rest)
    if r * r == rest:
        return root * r, free
    return root, free * rest


def _too_large(d: int) -> InputTooLarge:
    # str() refuses integers of more than 4300 digits, so a long one is named by its size
    shown = d if d.bit_length() <= 1000 else f"of about {int(d.bit_length() * 0.30103) + 1} digits"
    return InputTooLarge(f"radicand {shown} exceeds the bound {MAX_RADICAND} of square-free splitting")


def _root_parts(num: int, den: int) -> tuple[int, int, int]:
    """``(a, c, d)`` with ``sqrt(num/den) == a/c * sqrt(d)`` for coprime ``num >= 0`` and
    ``den >= 1``; d is square-free, and 1 when the root is rational.

    The numerator and the denominator are split separately: for ``num = a**2*s`` and
    ``den = b**2*t``, ``sqrt(num/den) = a/(b*t) * sqrt(s*t)``, and ``s*t`` is
    square-free.  Raises :class:`InputTooLarge` when either exceeds :data:`MAX_RADICAND`.
    """
    if num > MAX_RADICAND or den > MAX_RADICAND:
        raise _too_large(max(num, den))
    a, s = _split_square(num)
    if den == 1:
        return a, 1, s
    b, t = _split_square(den)
    return a, b * t, s * t


def _sign_pair(a: int, b: int, d: int) -> int:
    """Exact sign of ``a + b*sqrt(d)`` for square-free d (or d == 0)."""
    if b == 0 or d == 0:
        return _sgn(a)
    sa, sb = _sgn(a), _sgn(b)
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # opposite signs: the larger square wins
    diff = a * a - b * b * d
    if diff > 0:
        return sa
    if diff < 0:
        return sb
    return 0  # only reachable when d is a perfect square


class QuadraticSurd:
    """Immutable exact value ``rat + coeff*sqrt(radicand)``.

    It is stored as four integers ``(p, q, den, d)`` meaning
    ``(p + q*sqrt(d))/den``, with ``gcd(p, q, den) == 1``, ``den > 0`` and
    ``q == 0`` exactly when ``d == 0``; the rationals ``rat = p/den`` and
    ``coeff = q/den`` are built only when they are read.

    Every value is built by :meth:`_canonical`, the one normalizer: it
    cancels the gcd, makes ``den`` positive, folds a rational root
    (``d == 1``) into the rational part and stores zero with ``d == 0``, so
    equality is component-wise.  Square factors are split only by
    :func:`_root_parts`, from the public constructor's radicand and from the
    numerator and denominator of :meth:`sqrt`'s argument; above
    :data:`MAX_RADICAND` it raises :class:`InputTooLarge`.  The constructor's
    radicand must be an integer: a float, Fraction or str raises
    :class:`TypeError`, as a ``rat`` or ``coeff`` that is not a
    :class:`numbers.Rational` (a float, str or Decimal) does.  Field
    operations keep their operands' radicand and split nothing.

    Arithmetic stays inside one quadratic field; combining two irrational
    values with different radicands raises :class:`MixedRadicands`.
    Comparisons, however, are defined across fields (sign analysis by
    repeated squaring).
    """

    __slots__ = ("_p", "_q", "_den", "_d")

    def __init__(self, rat=0, coeff=0, radicand: int = 0):
        a, b = _as_fraction(rat), _as_fraction(coeff)
        d = operator.index(radicand)
        if d < 0:
            raise ValueError("radicand must be non-negative")
        root = 0  # a zero coefficient or radicand leaves q == 0, which _canonical folds
        if b and d:
            root, _, d = _root_parts(d, 1)
        # rat + coeff*root*sqrt(d) over the product of the two denominators
        m, n = a.denominator, b.denominator
        v = QuadraticSurd._canonical(a.numerator * n, b.numerator * root * m, m * n, d)
        self._p, self._q, self._den, self._d = v._p, v._q, v._den, v._d

    @classmethod
    def _canonical(cls, p: int, q: int, den: int, d: int) -> "QuadraticSurd":
        """``(p + q*sqrt(d))/den`` for den != 0 and a square-free d, or 0; the one normalizer.

        One gcd is cancelled and the sign of den fixed; d == 1 is folded into
        the rational part and a zero ``q`` into d == 0.  d is not split again.
        """
        self = object.__new__(cls)
        if d == 1:
            p, q = p + q, 0
        if q == 0:
            d = 0
        g = gcd(p, q, den)
        if den < 0:
            g = -g
        self._p, self._q, self._den, self._d = p // g, q // g, den // g, d
        return self

    @classmethod
    def sqrt(cls, value) -> "QuadraticSurd":
        """Exact square root of a non-negative rational.

        Raises :class:`InputTooLarge` when the numerator or the denominator
        exceeds :data:`MAX_RADICAND` (see :func:`_root_parts`).
        """
        q = _as_fraction(value)
        if q < 0:
            raise ValueError("square root of a negative rational is not real")
        a, c, d = _root_parts(q.numerator, q.denominator)
        return cls._canonical(0, a, c, d)

    @property
    def rat(self) -> Fraction:
        return Fraction(self._p, self._den)

    @property
    def coeff(self) -> Fraction:
        return Fraction(self._q, self._den)

    @property
    def radicand(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def conjugate(self) -> "QuadraticSurd":
        return QuadraticSurd._canonical(self._p, -self._q, self._den, self._d)

    def sign(self) -> int:
        """-1, 0 or +1, decided exactly."""
        return _sign_pair(self._p, self._q, self._d)

    # -- field arithmetic ------------------------------------------------

    def _joint_radicand(self, other: "QuadraticSurd") -> int:
        if self._d == 0:
            return other._d
        if other._d in (0, self._d):
            return self._d
        raise MixedRadicands(f"cannot combine sqrt({self._d}) with sqrt({other._d})")

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = self._joint_radicand(other)
        m, n = self._den, other._den
        return QuadraticSurd._canonical(self._p * n + other._p * m,
                                        self._q * n + other._q * m, m * n, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._canonical(-self._p, -self._q, self._den, self._d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = self._joint_radicand(other)
        a, b, c, e = self._p, self._q, other._p, other._q
        return QuadraticSurd._canonical(a * c + b * e * d, a * e + b * c,
                                        self._den * other._den, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = self._joint_radicand(other)
        a, b, c, e = self._p, self._q, other._p, other._q
        # multiply by the conjugate; the norm c^2 - e^2 d is zero only for zero
        norm = c * c - e * e * d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        n = other._den
        return QuadraticSurd._canonical((a * c - b * e * d) * n, (b * c - a * e) * n,
                                        self._den * norm, d)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (1 / self) ** (-exponent)
        if exponent == 0:
            return _coerce(1)
        # left to right from the highest bit: one square per later bit and one product
        # per later set bit, so x ** 2 is a single product
        out = self
        for bit in bin(exponent)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # canonical form makes equality component-wise, even across fields
        return (self._p, self._q, self._den, self._d) == (other._p, other._q, other._den, other._d)

    def __hash__(self):
        if self._q == 0:
            return hash(self.rat)  # equal to the hash of the equal int or Fraction
        return hash((self._p, self._q, self._den, self._d))

    def __lt__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _compare(self, other) < 0

    def __le__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _compare(self, other) <= 0

    def __gt__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _compare(self, other) > 0

    def __ge__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _compare(self, other) >= 0

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        """The double nearest the value (see :meth:`_doubles`)."""
        return self._doubles()[1]

    def _doubles(self) -> tuple[float, float, float]:
        """``(lo, nearest, hi)``: the double nearest the value v, ``float(v)``, and for an
        irrational v the adjacent doubles ``lo < v < hi``; a rational v gives its double thrice.

        One floor decides all three: ``a = floor(|v| * 2**shift)`` in [2**53, 2**54) counts
        half-ulps and |v| lies strictly inside (a, a + 1), so ``a >> 1`` ulps is the double
        below |v| and ``(a + 1) >> 1`` the nearest, with no tie.  Below 2**-1022 the grid stays
        that of the least subnormal; past the float range ``ldexp`` raises ``OverflowError``.
        """
        if self._q == 0:
            x = self._p / self._den  # int / int is correctly rounded
            return x, x, x
        # the larger of |p| and |q|*sqrt(d) has about `top` bits, so a starts with 55 to 58 bits
        # (more when |v| >= 2**56) unless they cancel; then a pass refines by the bits a lacks
        top = max(self._p.bit_length(), self._q.bit_length() + (self._d.bit_length() + 1) // 2)
        shift = max(56 + self._den.bit_length() - top, 0)
        while True:
            a = _floor_scaled(self, 1 << shift)
            negative = a < 0
            if negative:  # v is irrational: floor(|v| * 2**shift) == -a - 1
                a = ~a
            extra = a.bit_length() - 54
            if extra >= 0 or shift >= 1075:
                break
            shift = min(shift - extra, 1075)
        drop = max(extra, shift - 1075)  # floor(floor(x) / 2**drop) == floor(x / 2**drop)
        a, shift = a >> drop, shift - drop
        lo, hi = ldexp(a >> 1, 1 - shift), ldexp((a >> 1) + 1, 1 - shift)
        nearest = hi if a & 1 else lo
        return (-hi, -nearest, -lo) if negative else (lo, nearest, hi)

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.rat!r}, {self.coeff!r}, {self._d})"

    def __str__(self) -> str:
        p, q, den = self._p, self._q, self._den
        if q == 0:
            return str(p) if den == 1 else f"{p}/{den}"
        mag = "" if abs(q) == 1 else str(abs(q))
        surd_txt = f"{mag}√{self._d}"
        if p == 0:
            body = surd_txt if q > 0 else f"-{surd_txt}"
        else:
            op = "+" if q > 0 else "-"
            body = f"{p} {op} {surd_txt}"
        return body if den == 1 else f"({body})/{den}"


def _coerce(value) -> QuadraticSurd | None:
    if isinstance(value, QuadraticSurd):
        return value
    if isinstance(value, (int, Fraction)):
        return QuadraticSurd._canonical(value.numerator, 0, value.denominator, 0)
    return None


def _require_surd(value) -> QuadraticSurd:
    v = _coerce(value)
    if v is None:
        raise TypeError(f"expected QuadraticSurd, Fraction or int, got {type(value).__name__}")
    return v


def surd_compare(lhs, rhs) -> int:
    """Exact three-way comparison: -1, 0 or +1 as ``lhs <, ==, > rhs``.

    Works across different radicands; the mixed-field case is decided by
    comparing signs and then squared magnitudes, so no value ever leaves
    integer arithmetic.
    """
    return _compare(_require_surd(lhs), _require_surd(rhs))


def _compare(x: QuadraticSurd, y: QuadraticSurd) -> int:
    # the sign of x - y is that of den_x*den_y*(x - y) = a + b*sqrt(d) - c*sqrt(e)
    a = x._p * y._den - y._p * x._den
    b, d = x._q * y._den, x._d
    c, e = y._q * x._den, y._d
    if d == e or d == 0 or e == 0:
        return _sign_pair(a, b - c, d or e)
    s_left = _sign_pair(a, b, d)
    s_right = _sgn(c)
    if s_left != s_right:
        return 1 if s_left > s_right else -1
    # both sides share a nonzero sign: square both and compare again
    s_sq = _sign_pair(a * a + b * b * d - c * c * e, 2 * a * b, d)
    return s_sq if s_left > 0 else -s_sq


# -- decimal rendering ---------------------------------------------------


def _floor_scaled(v: QuadraticSurd, scale: int) -> int:
    """``floor(v * scale)`` for an integer ``scale`` >= 1, exact via integer square root:
    :func:`to_decimal` passes ``10**digits``, :meth:`QuadraticSurd._doubles` a power of two."""
    whole, radical, den = v._p * scale, v._q * scale, v._den
    big = radical * radical * v._d
    t = isqrt(big)
    if radical >= 0:
        # sqrt(big) lies in [t, t+1) and no integer sits strictly inside
        return (whole + t) // den
    # radical != 0 means d is square-free and >= 2, so big is no square: sqrt(big) is in (t, t+1)
    return (whole - t - 1) // den


def to_decimal(value, digits: int) -> str:
    """Decimal expansion truncated (not rounded) to ``digits`` fractional digits.

    Every emitted digit is exact: ``value * 10**digits`` is floored with an
    integer square root.  Negative values are truncated toward zero, so
    ``(-1-sqrt(5))/2`` at 7 digits renders as ``-1.6180339``.
    """
    _check_digits(digits)
    v = _require_surd(value)
    negative = v.sign() < 0
    if negative:
        v = -v
    return _decimal_text(negative, _floor_scaled(v, 10 ** digits), digits)


# -- continued fractions ---------------------------------------------------


class ContinuedFraction(namedtuple("ContinuedFraction", "initial period truncated")):
    """Simple continued fraction with an optional periodic tail.

    ``initial`` always holds at least the integer part; ``period`` is the
    repeating block (empty for rationals).  ``truncated`` is set when the
    expansion was cut off before terminating or closing a period.
    """

    __slots__ = ()

    def __new__(cls, initial: tuple[int, ...], period: tuple[int, ...] = (),
                truncated: bool = False):
        if not initial:
            raise ValueError("a continued fraction needs at least its integer part")
        tail = initial[1:] + period
        if tail and min(tail) < 1:
            raise ValueError("all terms after the first must be >= 1")
        return super().__new__(cls, initial, period, truncated)

    def terms(self, count: int) -> list[int]:
        """First ``count`` terms, unrolling the periodic part as needed."""
        if count < 0:
            raise ValueError("count must be non-negative")
        out = list(self.initial[:count])
        while self.period and len(out) < count:
            out.extend(self.period[: count - len(out)])
        return out

    def __str__(self) -> str:
        head = str(self.initial[0])
        rest = ", ".join(map(str, self.initial[1:]))
        if self.period:
            period = f"({', '.join(map(str, self.period))})"
            rest = f"{rest}, {period}" if rest else period
        body = f"{head}; {rest}" if rest else head
        suffix = ", ..." if self.truncated else ""
        return f"[{body}{suffix}]"


def continued_fraction_of(value, max_terms: int) -> ContinuedFraction:
    """Simple continued fraction of a positive rational or quadratic surd.

    For irrational values one pass of the standard ``(P + sqrt(N))/Q`` recurrence makes
    each term.  The period starts at the first reduced ``(P, Q)`` state after the integer
    part (Galois: a complete quotient is purely periodic exactly when it is reduced) and
    ends when that state comes back.  The integer part always stays in ``initial``, so the
    golden mean comes out as ``[1; (1)]`` rather than the purely periodic ``[(1)]``.  A
    ``max_terms`` that is not an integer raises :class:`TypeError`.
    """
    max_terms = operator.index(max_terms)
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if max_terms > MAX_CF_TERMS:
        raise InputTooLarge(f"{max_terms} continued-fraction terms exceed the bound {MAX_CF_TERMS}")
    v = _require_surd(value)
    if v.sign() <= 0:
        raise NonPositive("continued fraction expansion requires a positive value")

    if v.is_rational:
        terms: list[int] = []
        num, den = v._p, v._den
        while True:
            whole, rest = divmod(num, den)
            terms.append(whole)
            if rest == 0:
                return ContinuedFraction(tuple(terms), (), False)
            if len(terms) >= max_terms:
                return ContinuedFraction(tuple(terms), (), True)
            num, den = den, rest

    # write v = (P + sqrt(N)) / Q with Q | (N - P^2)
    s = _sgn(v._q)
    big_p, big_q, big_n = s * v._p, s * v._den, v._q * v._q * v._d
    if (big_n - big_p * big_p) % big_q != 0:
        big_p *= abs(big_q)
        big_n *= big_q * big_q
        big_q *= abs(big_q)

    t = isqrt(big_n)  # big_n is never a perfect square here
    terms = []
    start = None
    while len(terms) < max_terms:
        if big_q > 0:
            term = (big_p + t) // big_q
        else:
            term = -((big_p + t) // -big_q + 1)  # -ceil((P + sqrt(N))/-Q), never an integer
        terms.append(term)
        big_p = term * big_q - big_p
        big_q = (big_n - big_p * big_p) // big_q
        # past the integer part a complete quotient exceeds 1, so it is reduced (its conjugate
        # (P - sqrt(N))/Q in (-1, 0)) exactly when P < sqrt(N) < P + Q; a period that closes
        # with the last term allowed is reported truncated
        if start is None:
            if big_p <= t < big_p + big_q:
                start, first_p, first_q = len(terms), big_p, big_q
        elif big_p == first_p and big_q == first_q and len(terms) < max_terms:
            return ContinuedFraction(tuple(terms[:start]), tuple(terms[start:]), False)
    return ContinuedFraction(tuple(terms), (), True)
