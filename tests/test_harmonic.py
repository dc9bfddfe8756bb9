"""Multiplication grid, diagonal doublets and the integer-mean cross-check."""

import json
import os
import tracemalloc
from collections import deque
from contextlib import redirect_stdout
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldmean.harmonic
import goldmean.quadratics
from goldmean import (CrossCheckFailed, DoubletReport, HarmonicTable, InputTooLarge, build_table,
                      cross_check_integer_means, find_doublets, key_rows)
from goldmean.cli import run
from goldmean.harmonic import MAX_GRID_SIZE, MAX_SIZE


class TestBuildTable:
    def test_sample_cells(self):
        cells = list(build_table(10).rows())
        assert cells[3][4] == 12
        assert cells[9][9] == 81

    def test_single_cell(self):
        assert list(build_table(1).rows()) == [(0,)]

    def test_symmetry_and_zero_row(self):
        cells = list(build_table(10).rows())
        for i in range(10):
            assert cells[0][i] == 0
            for j in range(10):
                assert cells[i][j] == cells[j][i]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_table(0)


def _grid_by_definition(n):
    return [tuple(i * j for j in range(n)) for i in range(n)]


class TestGridMatchesItsDefinition:
    """The grid's rows and every printed form of them equal ``i * j`` rendered cell by cell."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 400])
    def test_rows(self, n):
        assert list(build_table(n).rows()) == _grid_by_definition(n)

    @pytest.mark.parametrize("n, fmt", [
        (n, fmt) for n in (1, 2, 3, 17, 400) for fmt in ("text", "tsv", "json")
    ] + [(MAX_GRID_SIZE, "tsv")])
    def test_printed_grid(self, capsys, n, fmt):
        assert run(["harmonic", "--size", str(n), "--format", fmt]) == 0
        grid = _grid_by_definition(n)
        if fmt == "json":
            expected = json.dumps({"command": "harmonic",
                                   "inputs": {"size": n, "doublets": False, "key": None},
                                   "results": grid, "errors": []}) + "\n"
        else:
            expected = "".join("\t".join(map(str, row)) + "\n" for row in grid)
        assert capsys.readouterr().out == expected

    def test_bound_is_checked_at_the_call(self):
        table = build_table(MAX_GRID_SIZE + 1)
        with pytest.raises(InputTooLarge):
            table.rows()


class TestDoublets:
    def test_q_values_for_size_ten(self):
        reports = find_doublets(build_table(10))
        assert [r.q for r in reports] == [0, 2, 6, 12, 20, 30, 42, 56, 72]

    def test_positions_of_twelve(self):
        reports = {r.q: r for r in find_doublets(build_table(10))}
        assert reports[12].positions == ((3, 4), (4, 3))

    def test_size_two_single_doublet(self):
        reports = list(find_doublets(build_table(2)))
        assert len(reports) == 1 and reports[0].q == 0
        assert reports[0].positions == ((0, 1), (1, 0))

    def test_count_is_size_minus_one(self):
        for size in range(2, 13):
            assert len(list(find_doublets(build_table(size)))) == size - 1

    def test_discriminant_link(self):
        for report in find_doublets(build_table(12)):
            disc = 1 + 4 * report.q
            assert isqrt(disc) ** 2 == disc

    def test_deterministic_and_ordered(self):
        table = build_table(10)
        first = list(find_doublets(table))
        second = list(find_doublets(table))
        assert first == second
        assert [r.q for r in first] == sorted(r.q for r in first)


class TestKeyRows:
    def test_row_seven(self):
        assert list(key_rows(7))[7] == (7, 56, 56)

    def test_row_nine(self):
        assert list(key_rows(9))[9] == (9, 90, 90)

    def test_row_zero(self):
        assert list(key_rows(0)) == [(0, 0, 0)]

    def test_equality_for_all_k(self):
        for k, square_plus, product in key_rows(500):
            assert square_plus == product == k * (k + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            key_rows(-1)


def _reference(size):
    """Doublets, cross-checked pairs and key rows for ``size``, the doublets read from the
    grid's two cells beside the diagonal and each identity compared spelling by spelling."""
    table = build_table(size)
    doublets, pairs, keys = [], [], []
    for k in range(size - 1):
        q = table.cell(k, k + 1)
        assert q == table.cell(k + 1, k) == k * (k + 1) == k * k + k
        root = isqrt(1 + 4 * q)
        assert root * root == 1 + 4 * q
        doublets.append(DoubletReport(k, q, ((k, k + 1), (k + 1, k))))
        pairs.append((q, ((root - 1) // 2, (root + 1) // 2)))
    for k in range(size):
        assert k * k + k == k * (k + 1)
        keys.append((k, k * k + k, k * (k + 1)))
    return doublets, pairs, keys


def _streams(size):
    table = build_table(size)
    return (list(find_doublets(table)), list(cross_check_integer_means(table)),
            list(key_rows(size - 1)))


class TestStreamsFromTheClosedForm:
    """The three catalogs are iterators whose rows equal the grid's cells and both spellings
    of k(k+1), checked at the call and O(1) in memory however many rows are read."""

    @pytest.mark.parametrize("size", [1, 2, 10, 1000])
    def test_rows_equal_the_grid_and_both_spellings(self, size):
        assert _streams(size) == _reference(size)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3000))
    def test_rows_equal_the_grid_over_a_range(self, size):
        assert _streams(size) == _reference(size)

    @pytest.mark.parametrize("call, error", [
        (lambda: find_doublets(HarmonicTable(MAX_SIZE + 1)), InputTooLarge),
        (lambda: cross_check_integer_means(HarmonicTable(MAX_SIZE + 1)), InputTooLarge),
        (lambda: key_rows(MAX_SIZE + 1), InputTooLarge),
        (lambda: key_rows(-1), ValueError),
    ])
    def test_arguments_are_checked_at_the_call(self, call, error):
        with pytest.raises(error):
            call()  # not iterated: the call itself raises

    def test_bounds_are_accepted(self):
        table = HarmonicTable(MAX_SIZE)
        assert next(find_doublets(table)) == (0, 0, ((0, 1), (1, 0)))
        assert next(cross_check_integer_means(table)) == (0, (0, 1))
        assert next(key_rows(MAX_SIZE)) == (0, 0, 0)

    def test_the_quadratic_layer_keeps_the_same_test(self):
        assert goldmean.quadratics.integer_metallic is goldmean.harmonic.integer_metallic

    def test_a_wrong_pair_raises_where_the_stream_reaches_it(self, monkeypatch):
        right = goldmean.harmonic.integer_metallic
        monkeypatch.setattr(goldmean.harmonic, "integer_metallic",
                            lambda q: (3, 5) if q == 12 else right(q))
        pairs = cross_check_integer_means(build_table(10))
        assert [next(pairs) for _ in range(3)] == [(0, (0, 1)), (2, (1, 2)), (6, (2, 3))]
        with pytest.raises(CrossCheckFailed, match="q = 12"):
            next(pairs)

    @pytest.mark.parametrize("consume", [
        lambda: find_doublets(HarmonicTable(MAX_SIZE)),
        lambda: cross_check_integer_means(HarmonicTable(MAX_SIZE)),
        lambda: key_rows(MAX_SIZE),
    ])
    def test_read_at_the_bound_in_constant_memory(self, consume):
        assert peak_bytes(lambda: deque(consume(), maxlen=0)) < 2 * 1024 * 1024


class TestCrossCheck:
    def test_pairs_for_size_ten(self):
        pairs = list(cross_check_integer_means(build_table(10)))
        assert pairs == [(k * (k + 1), (k, k + 1)) for k in range(9)]

    def test_examples(self):
        lookup = dict(cross_check_integer_means(build_table(10)))
        assert lookup[20] == (4, 5)
        assert lookup[2] == (1, 2)
        assert lookup[0] == (0, 1)


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOnlyThePrintedGridIsBuilt:
    """Doublets and key rows read O(size) cells, and a printed grid or triangle list is
    written one record at a time; a whole 1000 x 1000 grid would take about 40 MB."""

    LIMIT = 2 * 1024 * 1024

    def test_cross_check_reads_only_flanking_cells(self):
        pairs = cross_check_integer_means(build_table(1000))
        assert peak_bytes(lambda: deque(pairs, maxlen=0)) < self.LIMIT

    def test_cli_doublets_and_key(self, capsys):
        argv = ["harmonic", "--size", "1000", "--doublets", "--key", "5"]
        assert peak_bytes(lambda: run(argv)) < self.LIMIT
        assert len(capsys.readouterr().out.splitlines()) == 999 + 6

    @pytest.mark.parametrize("argv", [
        ["harmonic", "--size", "1000", "--format", "tsv"],
        ["diophantus", "--count", "100000", "--format", "text"],
        ["diophantus", "--count", "100000", "--format", "tsv"],
        ["diophantus", "--count", "100000", "--format", "json"],
        ["harmonic", "--size", "1000", "--format", "json"],
    ])
    def test_text_and_tsv_are_written_as_they_are_made(self, argv):
        # capsys would hold the whole output in memory, so it goes to the null device
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            assert peak_bytes(lambda: run(argv)) < self.LIMIT
