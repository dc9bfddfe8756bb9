"""The harmonic multiplication table and its diagonal doublets.

The size x size grid of products i*j repeats each value q = k(k+1) at the
two cells (k, k+1) and (k+1, k) flanking the main diagonal.  Those q are
exactly the integer metallic means, which :func:`cross_check_integer_means`
verifies by the quadratics' perfect-square test, :func:`integer_metallic`.
"""

from __future__ import annotations

from collections import namedtuple

from ._exact import integer_metallic
from .errors import CrossCheckFailed, InputTooLarge

TYPE_CHECKING = False  # true for a type checker alone, so no run imports typing
if TYPE_CHECKING:
    from collections.abc import Iterator

#: Largest grid :meth:`HarmonicTable.rows` yields (at the bound about 0.6 s to print in
#: text or TSV and 0.7 s in JSON, on a 2-vCPU machine with Python 3.11).
MAX_GRID_SIZE = 2000
#: Largest size the doublets and largest K the key rows take; their rows stream, so only
#: the time to print them grows with it.
MAX_SIZE = 10 ** 5


class HarmonicTable(namedtuple("HarmonicTable", "size")):
    """Multiplication grid of side ``size``.  ``cell(i, j) == i * j`` is computed
    when read; :meth:`rows` yields the grid one row at a time.
    """

    __slots__ = ()

    def cell(self, i: int, j: int) -> int:
        return i * j

    def rows(self) -> Iterator[tuple[int, ...]]:
        """The grid's rows, each built when it is read; the bound is checked at the call."""
        if self.size > MAX_GRID_SIZE:
            raise InputTooLarge(f"grid size {self.size} exceeds the bound {MAX_GRID_SIZE}")
        size = self.size
        # range() refuses a step of 0, so row 0 is built on its own
        return (tuple(range(0, i * size, i)) if i else (0,) * size for i in range(size))


class DoubletReport(namedtuple("DoubletReport", "k q positions")):
    """One diagonal doublet: value q = k(k+1) at the ``positions`` (k, k+1) and (k+1, k)."""

    __slots__ = ()


def build_table(size: int) -> HarmonicTable:
    if size < 1:
        raise ValueError("size must be >= 1")
    return HarmonicTable(size)


def find_doublets(table: HarmonicTable) -> Iterator[DoubletReport]:
    """All diagonal doublets, ascending in q (one per k in 0..size-2), each made from
    q = k(k+1) when it is read; the bound is checked at the call.

    For k = 0 the doublet is the diagonal-adjacent pair (0,1)/(1,0) only,
    even though zero fills the whole first row and column.
    """
    if table.size > MAX_SIZE:
        raise InputTooLarge(f"size {table.size} exceeds the doublet bound {MAX_SIZE}")
    return (DoubletReport(k, k * (k + 1), ((k, k + 1), (k + 1, k))) for k in range(table.size - 1))


def key_rows(k_max: int) -> Iterator[tuple[int, int, int]]:
    """Rows (k, k^2 + k, k(k+1)) for k in 0..k_max, made when they are read.  Both sides
    are the one product q = k(k+1), so no row compares them.  The argument is checked at
    the call."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if k_max > MAX_SIZE:
        raise InputTooLarge(f"key {k_max} exceeds the bound {MAX_SIZE}")
    return ((k, q := k * (k + 1), q) for k in range(k_max + 1))


def cross_check_integer_means(table: HarmonicTable) -> Iterator[tuple[int, tuple[int, int]]]:
    """Every doublet q = k(k+1) with its integer metallic mean pair, made when it is read;
    the bound is checked at the call.  Raises :class:`CrossCheckFailed` where the stream
    reaches a q whose pair from :func:`integer_metallic` is not (k, k+1) -- that would be an
    implementation bug, not a data condition.
    """
    if table.size > MAX_SIZE:
        raise InputTooLarge(f"size {table.size} exceeds the doublet bound {MAX_SIZE}")

    def pairs() -> Iterator[tuple[int, tuple[int, int]]]:
        for k in range(table.size - 1):
            q = k * (k + 1)
            pair = integer_metallic(q)
            if pair != (k, k + 1):
                raise CrossCheckFailed(f"doublet q = {q} maps to {pair}, expected {(k, k + 1)}")
            yield q, pair

    return pairs()
