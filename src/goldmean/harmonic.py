"""The harmonic multiplication table and its diagonal doublets.

The size x size grid of products i*j repeats each value q = k(k+1) at the
two cells (k, k+1) and (k+1, k) flanking the main diagonal.  Those q are
exactly the integer metallic means, which :func:`cross_check_integer_means`
verifies against the quadratic solver.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .errors import CrossCheckFailed, InputTooLarge

#: Largest grid :meth:`HarmonicTable.rows` yields (at the bound about 0.6 s to print in
#: text or TSV and 0.7 s in JSON, on a 2-vCPU machine with Python 3.11).
MAX_GRID_SIZE = 2000
#: Largest size the doublet scan and largest K the key rows take (O(size) records).
MAX_SIZE = 10 ** 5


class HarmonicTable(NamedTuple):
    """Multiplication grid of side ``size``.  ``cell(i, j) == i * j`` is computed
    when read; :meth:`rows` yields the grid one row at a time.
    """

    size: int

    def cell(self, i: int, j: int) -> int:
        return i * j

    def rows(self) -> Iterator[tuple[int, ...]]:
        """The grid's rows, each built when it is read; the bound is checked at the call."""
        if self.size > MAX_GRID_SIZE:
            raise InputTooLarge(f"grid size {self.size} exceeds the bound {MAX_GRID_SIZE}")
        size = self.size
        # range() refuses a step of 0, so row 0 is built on its own
        return (tuple(range(0, i * size, i)) if i else (0,) * size for i in range(size))


class DoubletReport(NamedTuple):
    """One diagonal doublet: value q = k(k+1) at (k, k+1) and (k+1, k)."""

    k: int
    q: int
    positions: tuple[tuple[int, int], tuple[int, int]]


def build_table(size: int) -> HarmonicTable:
    if size < 1:
        raise ValueError("size must be >= 1")
    return HarmonicTable(size)


def find_doublets(table: HarmonicTable) -> list[DoubletReport]:
    """All diagonal doublets, ascending in q (one per k in 0..size-2).

    For k = 0 the doublet is the diagonal-adjacent pair (0,1)/(1,0) only,
    even though zero fills the whole first row and column.  Reads only the
    2(size - 1) cells flanking the diagonal.
    """
    if table.size > MAX_SIZE:
        raise InputTooLarge(f"size {table.size} exceeds the doublet bound {MAX_SIZE}")
    out = []
    for k in range(table.size - 1):
        q = table.cell(k, k + 1)
        if not q == table.cell(k + 1, k) == k * (k + 1):
            raise CrossCheckFailed(f"grid is not i*j at ({k}, {k + 1})")
        out.append(DoubletReport(k, q, ((k, k + 1), (k + 1, k))))
    return out


def key_rows(k_max: int) -> list[tuple[int, int, int]]:
    """Rows (k, k^2 + k, k*(k+1)) with the two expressions computed independently."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if k_max > MAX_SIZE:
        raise InputTooLarge(f"key {k_max} exceeds the bound {MAX_SIZE}")
    out = []
    for k in range(k_max + 1):
        square_plus = k * k + k
        product = k * (k + 1)
        if square_plus != product:
            raise CrossCheckFailed(f"k^2 + k != k(k+1) at k = {k}")
        out.append((k, square_plus, product))
    return out


def cross_check_integer_means(table: HarmonicTable) -> list[tuple[int, tuple[int, int]]]:
    """Associate every doublet q with its integer metallic mean pair (k, k+1).

    Raises :class:`CrossCheckFailed` if the quadratic-side detection ever
    disagrees with the grid -- that would be an implementation bug, not a
    data condition.
    """
    from .quadratics import integer_metallic  # only doublets need the quadratic layer
    out = []
    for report in find_doublets(table):
        pair = integer_metallic(report.q)
        if pair != (report.k, report.k + 1):
            raise CrossCheckFailed(
                f"doublet q = {report.q} maps to {pair}, expected {(report.k, report.k + 1)}"
            )
        out.append((report.q, pair))
    return out
