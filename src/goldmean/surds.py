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

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt

from .errors import InputTooLarge, MixedRadicands, NonPositive

#: The exact scalar used throughout the library.
Rational = Fraction

#: Largest radicand the public constructor normalizes (about 0.1 s of trial division).
MAX_RADICAND = 10 ** 18
#: Most fractional digits a decimal rendering may ask for.
MAX_DIGITS = 1000


def _split_square(n: int) -> tuple[int, int]:
    """Return ``(root, free)`` with ``n == root**2 * free`` and ``free`` square-free.

    Trial division only while f**3 <= rest, so the cost is O(n**(1/3)).  The
    cofactor left then has at most two prime factors, all above f, so it is
    1, p, p*q or p**2, and it is a square exactly when ``isqrt(rest)**2 == rest``.
    """
    root = free = 1
    rest, f = n, 2
    while f * f * f <= rest:
        if rest % f == 0:
            k = 0
            while rest % f == 0:
                rest //= f
                k += 1
            root *= f ** (k >> 1)
            if k & 1:
                free *= f
        f += 1 if f == 2 else 2
    r = isqrt(rest)
    if r * r == rest:
        return root * r, free
    return root, free * rest


def _too_large(d: int) -> InputTooLarge:
    # str() refuses integers of more than 4300 digits, so a long one is named by its size
    shown = d if d.bit_length() <= 1000 else f"of about {int(d.bit_length() * 0.30103) + 1} digits"
    return InputTooLarge(f"radicand {shown} exceeds the bound {MAX_RADICAND} of square-free splitting")


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("exact types only: pass Fraction or int, not float")
    return Fraction(value)


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

    The public constructor and :meth:`sqrt` normalize: square factors of the
    radicand are pulled into the coefficient, a perfect-square radicand is
    folded into the rational part, and zero is always stored with ``d == 0``.
    They raise :class:`InputTooLarge` for a radicand (for :meth:`sqrt`, a
    numerator or denominator) above :data:`MAX_RADICAND`.  After
    normalization the form is canonical, so equality is component-wise.
    Field operations keep the square-free radicand of their operands, so
    their results only cancel one gcd and are built without another split.

    Arithmetic stays inside one quadratic field; combining two irrational
    values with different radicands raises :class:`MixedRadicands`.
    Comparisons, however, are defined across fields (sign analysis by
    repeated squaring).
    """

    __slots__ = ("_p", "_q", "_den", "_d")

    def __init__(self, rat=0, coeff=0, radicand: int = 0):
        a = _as_fraction(rat)
        b = _as_fraction(coeff)
        d = int(radicand)
        if d < 0:
            raise ValueError("radicand must be non-negative")
        if b == 0 or d == 0:
            b, d = 0, 0
        elif d > MAX_RADICAND:
            raise _too_large(d)
        else:
            root, free = _split_square(d)
            b *= root
            d = free
            if d == 1:
                a += b
                b, d = 0, 0
        # a and b are in lowest terms, so over their lcm p, q and den share no factor
        den = lcm(a.denominator, b.denominator)
        self._p = a.numerator * (den // a.denominator)
        self._q = b.numerator * (den // b.denominator)
        self._den, self._d = den, d

    @classmethod
    def _canonical(cls, p: int, q: int, den: int, d: int) -> "QuadraticSurd":
        """``(p + q*sqrt(d))/den`` for den != 0 and a square-free d other than 1, or 0.

        One gcd is cancelled and a zero ``q`` is folded; d is not split again.
        """
        self = object.__new__(cls)
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

        The numerator and the denominator are split separately: for coprime
        ``n = a**2*s`` and ``d = b**2*t``, ``sqrt(n/d) = a/(b*t) * sqrt(s*t)``,
        and ``s*t`` is square-free.  Raises :class:`InputTooLarge` when the
        numerator or the denominator exceeds :data:`MAX_RADICAND`.
        """
        q = _as_fraction(value)
        if q < 0:
            raise ValueError("square root of a negative rational is not real")
        if max(q.numerator, q.denominator) > MAX_RADICAND:
            raise _too_large(max(q.numerator, q.denominator))
        a, s = _split_square(q.numerator)
        b, t = _split_square(q.denominator) if q.denominator > 1 else (1, 1)
        if s * t == 1:
            return cls._canonical(a, 0, b, 0)
        return cls._canonical(0, a, b * t, s * t)

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
        out, base = _coerce(1), self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
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
        c = _compare_or_none(self, other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = _compare_or_none(self, other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = _compare_or_none(self, other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = _compare_or_none(self, other)
        return NotImplemented if c is None else c >= 0

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        # int / int is correctly rounded, as float(rat) and float(coeff) are
        return self._p / self._den + self._q / self._den * sqrt(self._d)

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


def _compare_or_none(lhs, rhs) -> int | None:
    rhs = _coerce(rhs)
    if rhs is None:
        return None
    return surd_compare(lhs, rhs)


def surd_compare(lhs, rhs) -> int:
    """Exact three-way comparison: -1, 0 or +1 as ``lhs <, ==, > rhs``.

    Works across different radicands; the mixed-field case is decided by
    comparing signs and then squared magnitudes, so no value ever leaves
    integer arithmetic.
    """
    x = _require_surd(lhs)
    y = _require_surd(rhs)
    # the sign of lhs - rhs is that of den_x*den_y*(lhs - rhs) = a + b*sqrt(d) - c*sqrt(e)
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


def _floor_scaled(v: QuadraticSurd, k: int) -> int:
    """``floor(v * 10**k)`` for v >= 0, exact via integer square root."""
    scale = 10 ** k
    whole, radical, den = v._p * scale, v._q * scale, v._den
    big = radical * radical * v._d
    t = isqrt(big)
    if radical >= 0:
        # sqrt(big) lies in [t, t+1) and no integer sits strictly inside
        return (whole + t) // den
    if t * t == big:
        return (whole - t) // den
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
    return _decimal_text(negative, _floor_scaled(v, digits), digits)


def _check_digits(digits) -> None:
    if not isinstance(digits, int) or not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be an integer in 1..{MAX_DIGITS}")


def _decimal_text(negative: bool, scaled: int, digits: int) -> str:
    """``[-]whole.frac`` of ``scaled / 10**digits``; a negative value may print as ``-0.000...``."""
    whole, frac = divmod(scaled, 10 ** digits)
    text = f"{whole}.{frac:0{digits}d}"
    return f"-{text}" if negative else text


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
        if any(t < 1 for t in tail):
            raise ValueError("all terms after the first must be >= 1")
        return super().__new__(cls, initial, period, truncated)

    def terms(self, count: int) -> list[int]:
        """First ``count`` terms, unrolling the periodic part as needed."""
        out = list(self.initial[:count])
        while self.period and len(out) < count:
            out.extend(self.period[: count - len(out)])
        return out

    def __str__(self) -> str:
        head = str(self.initial[0])
        rest = ", ".join(str(t) for t in self.initial[1:])
        if self.period:
            cycle = f"({', '.join(str(t) for t in self.period)})"
            rest = f"{rest}, {cycle}" if rest else cycle
        body = f"{head}; {rest}" if rest else head
        suffix = ", ..." if self.truncated else ""
        return f"[{body}{suffix}]"


def continued_fraction_of(value, max_terms: int) -> ContinuedFraction:
    """Simple continued fraction of a positive rational or quadratic surd.

    For irrational values the period is detected by repetition of the
    ``(P, Q)`` state of the standard ``(P + sqrt(N))/Q`` recurrence.  The
    integer part always stays in ``initial``, so the golden mean comes out
    as ``[1; (1)]`` rather than the purely periodic ``[(1)]``.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
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
    seen: dict[tuple[int, int], int] = {}
    while len(terms) < max_terms:
        k = len(terms)
        if k >= 1:
            state = (big_p, big_q)
            if state in seen:
                start = seen[state]
                return ContinuedFraction(tuple(terms[:start]), tuple(terms[start:]), False)
            seen[state] = k
        if big_q > 0:
            term = (big_p + t) // big_q
        else:
            term = -((big_p + t) // -big_q + 1)
        terms.append(term)
        big_p = term * big_q - big_p
        big_q = (big_n - big_p * big_p) // big_q
    return ContinuedFraction(tuple(terms), (), True)
