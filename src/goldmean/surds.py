"""Exact arithmetic on rationals and quadratic surds.

A :class:`QuadraticSurd` is the value ``rat + coeff*sqrt(radicand)`` with
rational ``rat``/``coeff`` and a square-free integer radicand.  Every
closed-form root in this library lives in such a field, so sums, products
and comparisons can be decided by integer arithmetic alone, never by
floating point.  The module also provides digit-exact decimal rendering
and the periodic continued-fraction expansion of quadratic irrationals.

Values are immutable; every operation returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, sqrt

from .errors import InputTooLarge, MixedRadicands, NonPositive

#: The exact scalar used throughout the library.
Rational = Fraction

#: Largest radicand the public constructor normalizes (about 0.1 s of trial division).
MAX_RADICAND = 10 ** 18
#: Most fractional digits a decimal rendering may ask for.
MAX_DIGITS = 1000

_ZERO = Fraction(0)


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
    return InputTooLarge(f"radicand {d} exceeds the bound {MAX_RADICAND} of square-free splitting")


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("exact types only: pass Fraction or int, not float")
    return Fraction(value)


def _sign_pair(a: Fraction, b: Fraction, d: int) -> int:
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

    The public constructor and :meth:`sqrt` normalize: square factors of the
    radicand are pulled into the coefficient, a perfect-square radicand is
    folded into the rational part, and zero is always stored as ``(0, 0, 0)``.
    They raise :class:`InputTooLarge` for a radicand (for :meth:`sqrt`, a
    numerator or denominator) above :data:`MAX_RADICAND`.  After
    normalization the triple is canonical, so equality is component-wise.
    Field operations keep the square-free radicand of their operands, so
    their results are canonical already and are built without another split.

    Arithmetic stays inside one quadratic field; combining two irrational
    values with different radicands raises :class:`MixedRadicands`.
    Comparisons, however, are defined across fields (sign analysis by
    repeated squaring).
    """

    __slots__ = ("_rat", "_coeff", "_radicand")

    def __init__(self, rat=0, coeff=0, radicand: int = 0):
        a = _as_fraction(rat)
        b = _as_fraction(coeff)
        d = int(radicand)
        if d < 0:
            raise ValueError("radicand must be non-negative")
        if b == 0 or d == 0:
            b, d = _ZERO, 0
        elif d > MAX_RADICAND:
            raise _too_large(d)
        else:
            root, free = _split_square(d)
            b *= root
            d = free
            if d == 1:
                a += b
                b, d = _ZERO, 0
        self._rat = a
        self._coeff = b
        self._radicand = d

    @classmethod
    def _canonical(cls, rat: Fraction, coeff: Fraction, d: int) -> "QuadraticSurd":
        """The value ``rat + coeff*sqrt(d)`` for a square-free ``d`` other than 1, or 0.

        Only a zero ``coeff`` is folded; the radicand is not split again.
        """
        self = object.__new__(cls)
        if coeff == 0:
            coeff, d = _ZERO, 0
        self._rat, self._coeff, self._radicand = rat, coeff, d
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
            return cls._canonical(Fraction(a, b), _ZERO, 0)
        return cls._canonical(_ZERO, Fraction(a, b * t), s * t)

    @property
    def rat(self) -> Fraction:
        return self._rat

    @property
    def coeff(self) -> Fraction:
        return self._coeff

    @property
    def radicand(self) -> int:
        return self._radicand

    @property
    def is_rational(self) -> bool:
        return self._coeff == 0

    def conjugate(self) -> "QuadraticSurd":
        return QuadraticSurd._canonical(self._rat, -self._coeff, self._radicand)

    def sign(self) -> int:
        """-1, 0 or +1, decided exactly."""
        return _sign_pair(self._rat, self._coeff, self._radicand)

    # -- field arithmetic ------------------------------------------------

    def _joint_radicand(self, other: "QuadraticSurd") -> int:
        if self._radicand == 0:
            return other._radicand
        if other._radicand in (0, self._radicand):
            return self._radicand
        raise MixedRadicands(
            f"cannot combine sqrt({self._radicand}) with sqrt({other._radicand})"
        )

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = self._joint_radicand(other)
        return QuadraticSurd._canonical(self._rat + other._rat, self._coeff + other._coeff, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._canonical(-self._rat, -self._coeff, self._radicand)

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
        rat = self._rat * other._rat + self._coeff * other._coeff * d
        coeff = self._rat * other._coeff + self._coeff * other._rat
        return QuadraticSurd._canonical(rat, coeff, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.sign() == 0:
            raise ZeroDivisionError("division by zero surd")
        d = self._joint_radicand(other)
        # multiply by the conjugate; the norm a^2 - b^2 d is a nonzero rational
        norm = other._rat * other._rat - other._coeff * other._coeff * d
        num = self * other.conjugate()
        return QuadraticSurd._canonical(num._rat / norm, num._coeff / norm, num._radicand)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (QuadraticSurd(1) / self) ** (-exponent)
        out = QuadraticSurd(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # canonical form makes equality component-wise, even across fields
        return (
            self._rat == other._rat
            and self._coeff == other._coeff
            and self._radicand == other._radicand
        )

    def __hash__(self):
        if self._coeff == 0:
            return hash(self._rat)
        return hash((self._rat, self._coeff, self._radicand))

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
        return float(self._rat) + float(self._coeff) * sqrt(self._radicand)

    def __bool__(self) -> bool:
        return self.sign() != 0

    def __repr__(self) -> str:
        return f"QuadraticSurd({self._rat!r}, {self._coeff!r}, {self._radicand})"

    def __str__(self) -> str:
        if self._coeff == 0:
            return str(self._rat)
        den = lcm(self._rat.denominator, self._coeff.denominator)
        n_rat = int(self._rat * den)
        n_co = int(self._coeff * den)
        mag = "" if abs(n_co) == 1 else str(abs(n_co))
        surd_txt = f"{mag}√{self._radicand}"
        if n_rat == 0:
            body = surd_txt if n_co > 0 else f"-{surd_txt}"
        else:
            op = "+" if n_co > 0 else "-"
            body = f"{n_rat} {op} {surd_txt}"
        return body if den == 1 else f"({body})/{den}"


def _coerce(value) -> QuadraticSurd | None:
    if isinstance(value, QuadraticSurd):
        return value
    if isinstance(value, (int, Fraction)):
        return QuadraticSurd(value)
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
    if x._radicand == y._radicand or x._radicand == 0 or y._radicand == 0:
        d = x._radicand or y._radicand
        return _sign_pair(x._rat - y._rat, x._coeff - y._coeff, d)
    # sign of (A + B*sqrt(d)) - C*sqrt(e) with B, C != 0 and d != e
    a = x._rat - y._rat
    b, d = x._coeff, x._radicand
    c, e = y._coeff, y._radicand
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
    a, b, d = v.rat, v.coeff, v.radicand
    scale = 10 ** k
    den = a.denominator * b.denominator
    whole = a.numerator * scale * b.denominator
    radical = b.numerator * scale * a.denominator
    big = radical * radical * d
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


@dataclass(frozen=True)
class ContinuedFraction:
    """Simple continued fraction with an optional periodic tail.

    ``initial`` always holds at least the integer part; ``period`` is the
    repeating block (empty for rationals).  ``truncated`` is set when the
    expansion was cut off before terminating or closing a period.
    """

    initial: tuple[int, ...]
    period: tuple[int, ...] = ()
    truncated: bool = False

    def __post_init__(self):
        if not self.initial:
            raise ValueError("a continued fraction needs at least its integer part")
        tail = self.initial[1:] + self.period
        if any(t < 1 for t in tail):
            raise ValueError("all terms after the first must be >= 1")

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
        x = v.rat
        truncated = False
        while True:
            whole = x.numerator // x.denominator
            terms.append(whole)
            rest = x - whole
            if rest == 0:
                break
            if len(terms) >= max_terms:
                truncated = True
                break
            x = 1 / rest
        return ContinuedFraction(tuple(terms), (), truncated)

    # write v = (P + sqrt(N)) / Q with Q | (N - P^2)
    a, b, d = v.rat, v.coeff, v.radicand
    den = a.denominator * b.denominator
    u = a.numerator * b.denominator
    w = b.numerator * a.denominator
    big_n = w * w * d
    if w > 0:
        big_p, big_q = u, den
    else:
        big_p, big_q = -u, -den
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
