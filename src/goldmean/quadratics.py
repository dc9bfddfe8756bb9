"""Closed-form exact solutions of x**2 + s*p*x - q = 0.

Covers the golden-mean branch (``s = +1``, roots ``(-p ± sqrt(p^2+4q))/2``),
its generalization to ``q = m/2``, the metallic-means branch (``s = -1``),
and detection of the integer metallic means ``q = k(k+1)``.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from ._exact import Sign, _as_fraction, sign_value
from .errors import NoRealRoots
from .surds import QuadraticSurd, _root_parts


class QuadraticSpec(namedtuple("QuadraticSpec", "p q p_sign")):
    """The equation ``x**2 + s*p*x - q = 0`` with s = +1 ('plus') or -1 ('minus')."""

    __slots__ = ()

    def __new__(cls, p: int, q, p_sign: Sign = "plus"):
        if p < 1:
            raise ValueError("p must be a positive integer")
        q = _as_fraction(q)
        sign_value(p_sign)
        return super().__new__(cls, p, q, p_sign)

    @property
    def sign(self) -> int:
        return sign_value(self.p_sign)


class RootPair(namedtuple("RootPair", "x1 x2 discriminant")):
    """Both real roots, exact; ``x1`` is the algebraically larger one.

    ``discriminant`` is ``p^2 + 4q``.  For the generalized golden mean
    (p = 1, q = m/2) it equals the odd radicand 2m + 1 under the root.
    """

    __slots__ = ()


def solve_quadratic(spec: QuadraticSpec) -> RootPair:
    """Exact roots ``(-s*p ± sqrt(p^2 + 4q)) / 2``.

    Raises :class:`NoRealRoots` when the discriminant is negative; equal
    roots are returned twice when it is zero.
    """
    p, q = spec.p, spec.q
    num, den = p * p * q.denominator + 4 * q.numerator, q.denominator
    g = gcd(num, den)
    num, den = num // g, den // g
    if num < 0:
        raise NoRealRoots(f"discriminant p^2 + 4q = {Fraction(num, den)} is negative")
    # with sqrt(num/den) = a/c*sqrt(d) the roots are (-s*p*c ± a*sqrt(d)) / (2c)
    a, c, d = _root_parts(num, den)
    base = -spec.sign * p * c
    return RootPair(QuadraticSurd._canonical(base, a, 2 * c, d),
                    QuadraticSurd._canonical(base, -a, 2 * c, d), Fraction(num, den))


def generalized_gm(m: int) -> RootPair:
    """Roots of ``x**2 + x = m/2``, i.e. ``(-1 ± a*sqrt(d)) / 2`` with ``a*sqrt(d) = sqrt(2m+1)``.

    The pair's discriminant is exactly the odd integer ``2m + 1``.
    """
    if operator.index(m) < 0:  # an int only: a Fraction or float m raises TypeError
        raise ValueError("m must be a non-negative integer")
    a, _, d = _root_parts(2 * m + 1, 1)
    return RootPair(QuadraticSurd._canonical(-1, a, 2, d), QuadraticSurd._canonical(-1, -a, 2, d),
                    Fraction(2 * m + 1))


def metallic_mean(p: int, q) -> QuadraticSurd:
    """Positive root of ``x**2 - p*x - q = 0``: ``(p + sqrt(p^2 + 4q)) / 2``.

    p = q = 1 gives the golden mean, (2, 1) the silver mean, (3, 1) the
    bronze mean, (1, 2) the copper mean, (1, 3) the nickel mean.
    """
    q = _as_fraction(q)
    if q < 0:
        raise ValueError("the metallic family takes q >= 0")
    return solve_quadratic(QuadraticSpec(p, q, "minus")).x1


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
