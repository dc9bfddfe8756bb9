"""Signs, exact-type checks, digit strings and the root record shared by the surd, quadratic
and trinomial layers; :mod:`goldmean.trinomials` takes them from here, so it loads no surd
arithmetic, and ``solve`` at n = 2 builds its records here, so it loads no trinomial solver.
``fractions`` and ``numbers`` load on the first exact input, so a harmonic run skips them."""

from __future__ import annotations

from collections import namedtuple

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
    import numbers
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"exact types only: pass Fraction or int, not {type(value).__name__}")
    return fractions.Fraction(value)


def _check_digits(digits) -> None:
    if not isinstance(digits, int) or not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be an integer in 1..{MAX_DIGITS}")


def _decimal_text(negative: bool, scaled: int, digits: int) -> str:
    """``[-]whole.frac`` of ``scaled / 10**digits``; a negative value may print as ``-0.000...``."""
    whole, frac = divmod(scaled, 10 ** digits)
    text = f"{whole}.{frac:0{digits}d}"
    return f"-{text}" if negative else text


class RootRecord(namedtuple("RootRecord", "value bracket residual iterations exact",
                            defaults=(None,))):
    """One certified root: value, enclosing bracket, |f(value)|, iterations.

    A root known exactly keeps its exact value in ``exact`` (a Fraction, or a
    :class:`~goldmean.surds.QuadraticSurd` for a surd root) and zero iterations;
    ``value`` is then the double nearest it.  A rational one carries the
    degenerate bracket (value, value), a surd the two adjacent doubles around it.
    """

    __slots__ = ()
