"""Signs, exact-type checks, digit strings, the root record and the integer metallic mean test,
shared by the surd, quadratic, trinomial and harmonic layers: taking them from here, trinomials
and harmonic doublets load no surd arithmetic, and ``solve`` at n = 2 no trinomial solver.
``fractions`` and ``numbers`` load on the first exact input, so a harmonic run skips them."""

from __future__ import annotations

from collections import namedtuple
from math import inf, isqrt

TYPE_CHECKING = False  # true for a type checker alone, so no run imports typing
if TYPE_CHECKING:
    from fractions import Fraction

#: Most fractional digits a decimal rendering may ask for.
MAX_DIGITS = 1000

#: default tolerance: a float root is accepted once its scaled residual
#: |f(x)| / (1 + |x|**n) and the proven bound on the rounding error of f(x) in
#: doubles, scaled alike, are at most this, or once its bracket is two adjacent floats
TOLERANCE = 1e-12

#: a sign's name, "plus" or "minus"
Sign = str

_SIGN_VALUES = {"plus": 1, "minus": -1}


def sign_value(p_sign: str) -> int:
    """Map 'plus'/'minus' to +1/-1."""
    try:
        return _SIGN_VALUES[p_sign]
    except KeyError:
        raise ValueError(f"p_sign must be 'plus' or 'minus', got {p_sign!r}") from None


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _as_fraction(value) -> Fraction:
    import fractions  # "from fractions import Fraction" here costs 0.6 µs more on 3.11
    if type(value) is fractions.Fraction:  # immutable, so it is returned with no copy
        return value
    import numbers
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"exact types only: pass Fraction or int, not {type(value).__name__}")
    return fractions.Fraction(value)


def _check_digits(digits) -> None:
    if not isinstance(digits, int) or not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be an integer in 1..{MAX_DIGITS}")


def _check_tolerance(tolerance) -> None:
    # an infinite tolerance would accept the first point of any bracket as its root
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    if tolerance == inf:
        raise ValueError("tolerance must be finite")


def _decimal_text(negative: bool, scaled: int, digits: int) -> str:
    """``[-]whole.frac`` of ``scaled / 10**digits`` for ``scaled >= 0`` and ``digits >= 1``,
    cut from one ``str(scaled)``; a negative value may print as ``-0.000...``."""
    try:
        s = str(scaled).zfill(digits + 1)
    except ValueError:  # past str()'s digit limit, where the whole part alone may still print
        whole, frac = divmod(scaled, 10 ** digits)
        s = f"{whole}{frac:0{digits}d}"
    text = s[:-digits] + "." + s[-digits:]
    return "-" + text if negative else text


class RootRecord(namedtuple("RootRecord", "value bracket residual iterations exact",
                            defaults=(None,))):
    """One certified root: value, enclosing bracket, |f(value)|, iterations.

    A root known exactly keeps its exact value in ``exact`` (a Fraction, or a
    :class:`~goldmean.surds.QuadraticSurd` for a surd root); ``value`` is then the
    double nearest it.  One known before refinement has zero iterations and the bracket
    (value, value), or a surd's two adjacent doubles; one refinement lands on keeps both.
    """

    __slots__ = ()


def integer_metallic(q: int) -> tuple[int, int] | None:
    """Detect an integer metallic mean.

    Returns ``(k, k+1)`` when ``q = k(k+1)`` -- the absolute values of the
    two roots of ``x**2 - x - q = 0`` -- and ``None`` otherwise.  The test
    is whether ``1 + 4q`` is a perfect (necessarily odd) square.
    """
    if q < 0:
        raise ValueError("q must be a non-negative integer")
    disc = 1 + 4 * q
    root = isqrt(disc)
    if root * root != disc:
        return None
    k = (root - 1) // 2
    return (k, k + 1)
