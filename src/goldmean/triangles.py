"""Integer triangle catalog.

Generates the Pythagorean triples with odd first cathetus (the Diophantus
triangles), the two-sided table of integer and non-integer golden-mean
solutions, the ``m += 4k`` recurrence connecting them, and classification
of value triples against the Fibonacci and Lucas sequences.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from typing import Literal, NamedTuple, Optional

from .errors import CrossCheckFailed, InputTooLarge
from .quadratics import generalized_gm
from .surds import QuadraticSurd

Side = Literal["left", "right"]

#: Most rows :func:`table_one` builds (a right-side row costs about 0.010 ms, so
#: ``table1 --rows 10000 --side right`` takes about 0.2 s in any format).
MAX_ROWS = 10 ** 4
#: Most triples the ``diophantus`` command lists (about 3-4 µs each in any format).
MAX_TRIPLES = 10 ** 6


class PythagoreanTriple(namedtuple("PythagoreanTriple", "a b c")):
    """Right triangle with odd first cathetus ``a`` and hypotenuse ``c = b + 1``."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if a < 1 or a % 2 == 0:
            raise ValueError("first cathetus must be a positive odd integer")
        if b < 0:
            raise ValueError("second cathetus must be non-negative")
        if c != b + 1:
            raise ValueError("hypotenuse must exceed the second cathetus by one")
        if a * a + b * b != c * c:
            raise ValueError(f"{a}^2 + {b}^2 != {c}^2")
        return super().__new__(cls, a, b, c)


def diophantus_triple(index: int) -> PythagoreanTriple:
    """Triple ``(2N+1, 2N(N+1), 2N(N+1)+1)`` for N = index.

    The first few are (1, 0, 1), (3, 4, 5), (5, 12, 13), ..., (13, 84, 85).
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    b = 2 * index * (index + 1)
    return PythagoreanTriple(2 * index + 1, b, b + 1)


def four_k_sequence(count: int) -> list[int]:
    """The second-cathetus sequence 0, 4, 12, 24, 40, ...

    Built by the recurrence ``m_N = m_(N-1) + 4N`` and cross-checked
    against the closed form ``2N(N+1)`` term by term.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out = [0]
    for k in range(1, count):
        nxt = out[-1] + 4 * k
        if nxt != 2 * k * (k + 1):
            raise CrossCheckFailed(f"recurrence and closed form disagree at N = {k}")
        out.append(nxt)
    return out


class TableOneRow(namedtuple("TableOneRow", "side index m h r")):
    """One row of the two-sided solution table.

    left side:  m = 2N(N+1), h = m + 1, r = (2N+1)^2  (integer solutions)
    right side: m = N, h = N + 1, r = 2N + 1           (roots of x^2 + x = m/2)

    Both sides satisfy the triangle identity h^2 = m^2 + r, i.e.
    (sqrt(r), m, h) is a right triangle.
    """

    __slots__ = ()

    def __new__(cls, side: Side, index: int, m: int, h: int, r: int):
        if h * h != m * m + r:
            raise ValueError(f"h^2 != m^2 + r for row {index} ({side})")
        return super().__new__(cls, side, index, m, h, r)


def _left_row(index: int) -> TableOneRow:
    m = 2 * index * (index + 1)
    return TableOneRow("left", index, m, m + 1, (2 * index + 1) ** 2)


def _roots_give(x1: QuadraticSurd, x2: QuadraticSurd, h: int, r: int) -> bool:
    """Whether ``x1^2 + x2^2 == h`` and ``(|x1| + |x2|)^2 == r``, decided on the integers
    ``x = (p + q*sqrt(d))/n`` of the two roots.

    For a square-free d > 1, ``u + v*sqrt(d)`` is an integer k exactly when v == 0
    and u == k.  Distinct irrational radicands fail: ``(|x1| + |x2|)^2`` then keeps a
    multiple of ``sqrt(d1*d2)``.
    """
    p1, q1, n1, d1 = x1._p, x1._q, x1._den, x1._d
    p2, q2, n2, d2 = x2._p, x2._q, x2._den, x2._d
    if d1 and d2 and d1 != d2:
        return False
    d, m1, m2 = d1 or d2, n1 * n1, n2 * n2
    # (n1*n2)^2 * (x1^2 + x2^2) = u + 2*v*sqrt(d)
    u = m2 * (p1 * p1 + q1 * q1 * d) + m1 * (p2 * p2 + q2 * q2 * d)
    v = m2 * p1 * q1 + m1 * p2 * q2
    if v or u != h * m1 * m2:
        return False
    # n1*n2 * (|x1| + |x2|) = u + v*sqrt(d), whose square is u^2 + v^2*d + 2*u*v*sqrt(d)
    s1, s2 = x1.sign(), x2.sign()
    u, v = s1 * p1 * n2 + s2 * p2 * n1, s1 * q1 * n2 + s2 * q2 * n1
    return u * v == 0 and u * u + v * v * d == r * m1 * m2


def _right_row(index: int) -> TableOneRow:
    row = TableOneRow("right", index, index, index + 1, 2 * index + 1)
    # the roots of x^2 + x = m/2 must reproduce the h and r columns exactly
    pair = generalized_gm(index)
    if not _roots_give(pair.x1, pair.x2, row.h, row.r):
        raise CrossCheckFailed(f"x1^2 + x2^2 != h or (|x1| + |x2|)^2 != r at N = {index}")
    return row


def table_one(rows: int, side: str = "both") -> list[TableOneRow]:
    """Rows 0..rows-1 of the solution table for the requested side(s).

    With ``side="both"`` the left and right rows are interleaved per index,
    matching the side-by-side layout of the printed table.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if rows > MAX_ROWS:
        raise InputTooLarge(f"rows {rows} exceeds the bound {MAX_ROWS}")
    if side not in ("left", "right", "both"):
        raise ValueError(f"side must be 'left', 'right' or 'both', got {side!r}")
    out: list[TableOneRow] = []
    for index in range(rows):
        if side in ("left", "both"):
            out.append(_left_row(index))
        if side in ("right", "both"):
            out.append(_right_row(index))
    return out


def left_to_right_index(index: int) -> int:
    """Right-side row M = 2N(N+1) carrying the same triangle as left row N.

    Checked on the spot: the mapped right row agrees with the left row in
    (m, h) and in r, and the left r is the square of the right r at the
    *same* index N (left sqrt(r) ranges over odd integers' squares while
    the right one ranges over all odd integers).
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    mapped = 2 * index * (index + 1)
    left = _left_row(index)
    right_at = _right_row(mapped)
    if (right_at.m, right_at.h, right_at.r) != (left.m, left.h, left.r):
        raise CrossCheckFailed(f"4k mapping broke m, h or r at N = {index}")
    if left.r != _right_row(index).r ** 2:
        raise CrossCheckFailed(f"left r is not the squared right r at N = {index}")
    return mapped


class TripletClass(NamedTuple):
    """Whether a value triple is three consecutive Fibonacci or Lucas numbers.

    ``member_indices`` gives the starting positions in the matched sequence
    (F0 = 0, F1 = 1; L0 = 2, L1 = 1).  Triples matching both sequences
    classify as fibonacci.
    """

    tag: Literal["fibonacci", "lucas", "neither"]
    member_indices: Optional[tuple[int, int, int]] = None


def _sequence_up_to(first: int, second: int, cap: int) -> list[int]:
    out = [first, second]
    while out[-1] <= cap:
        out.append(out[-1] + out[-2])
    return out


def _find_window(triple: tuple[int, int, int], seq: list[int]) -> Optional[int]:
    for i in range(len(seq) - 2):
        if (seq[i], seq[i + 1], seq[i + 2]) == triple:
            return i
    return None


def classify_triplet(triple) -> TripletClass:
    """Classify a triple of non-negative integers (taken in the given order).

    A value that is not an integer raises :class:`TypeError`; it is not truncated.
    """
    t = tuple(operator.index(v) for v in triple)
    if len(t) != 3:
        raise ValueError("expected exactly three values")
    if any(v < 0 or v > 10 ** 18 for v in t):
        raise ValueError("values must be in 0..10^18")
    cap = max(t)
    at = _find_window(t, _sequence_up_to(0, 1, cap))
    if at is not None:
        return TripletClass("fibonacci", (at, at + 1, at + 2))
    at = _find_window(t, _sequence_up_to(2, 1, cap))
    if at is not None:
        return TripletClass("lucas", (at, at + 1, at + 2))
    return TripletClass("neither")
