"""Triangle catalog: triples, the two-sided table, 4k mapping, triplet classes."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldmean import (
    CrossCheckFailed,
    InputTooLarge,
    PythagoreanTriple,
    QuadraticSurd,
    RootPair,
    TableOneRow,
    classify_triplet,
    diophantus_triple,
    four_k_sequence,
    generalized_gm,
    left_to_right_index,
    table_one,
)
from goldmean import triangles
from goldmean.cli import run

BOX_TRIPLES = [(1, 0, 1), (3, 4, 5), (5, 12, 13), (7, 24, 25),
               (9, 40, 41), (11, 60, 61), (13, 84, 85)]


class TestDiophantusTriples:
    def test_printed_triples(self):
        for index, expected in enumerate(BOX_TRIPLES):
            t = diophantus_triple(index)
            assert (t.a, t.b, t.c) == expected

    def test_exact_identity_sweep(self):
        for index in range(0, 10001):
            t = diophantus_triple(index)
            assert t.a * t.a + t.b * t.b == t.c * t.c
            assert t.c == t.b + 1
            assert t.a == 2 * index + 1

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            PythagoreanTriple(3, 4, 6)
        with pytest.raises(ValueError):
            PythagoreanTriple(4, 3, 4)
        with pytest.raises(ValueError):
            diophantus_triple(-1)


def _printed_triples(count: int) -> list[tuple[int, int, int]]:
    """The triples ``diophantus --count`` prints, read back from its JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["diophantus", "--count", str(count), "--format", "json"]) == 0
    return [(t["a"], t["b"], t["c"]) for t in json.loads(out.getvalue())["results"]]


class TestStreamedTriples:
    """``diophantus_triples`` builds its rows by the 4k recurrence and checks none of them
    again, so each must be the triple ``diophantus_triple`` builds and checks."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_the_indexed_triples(self, count):
        expected = [diophantus_triple(index) for index in range(count)]
        assert list(triangles.diophantus_triples(count)) == expected
        assert list(triangles.diophantus_triples(count, hypotenuse_first=True)) == [
            t[::-1] for t in expected]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5000))
    def test_every_streamed_triple_is_right(self, count):
        triples = list(triangles.diophantus_triples(count))
        assert triples == [diophantus_triple(index) for index in range(count)]
        assert all(a * a + b * b == c * c and c == b + 1 for a, b, c in triples)

    @pytest.mark.parametrize("count", [1, 2, 3001])
    def test_the_printed_triples(self, count):
        assert _printed_triples(count) == [diophantus_triple(index) for index in range(count)]

    def test_the_bound_is_checked_at_the_call(self):
        with pytest.raises(InputTooLarge):
            triangles.diophantus_triples(triangles.MAX_TRIPLES + 1)
        with pytest.raises(ValueError):
            triangles.diophantus_triples(-1)


class TestFourKSequence:
    def test_first_five(self):
        assert four_k_sequence(5) == [0, 4, 12, 24, 40]

    def test_sixth_term(self):
        assert four_k_sequence(6)[-1] == 60

    def test_single(self):
        assert four_k_sequence(1) == [0]

    def test_matches_closed_form(self):
        seq = four_k_sequence(200)
        assert seq == [2 * k * (k + 1) for k in range(200)]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            four_k_sequence(0)


class TestTableOne:
    def test_left_row_two(self):
        row = table_one(3, "left")[2]
        assert (row.m, row.h, row.r) == (12, 13, 25)

    def test_right_row_two(self):
        row = table_one(3, "right")[2]
        assert (row.m, row.h, row.r) == (2, 3, 5)

    def test_both_sides_row_zero_coincide(self):
        rows = table_one(1, "both")
        assert len(rows) == 2
        assert {(r.m, r.h, r.r) for r in rows} == {(0, 1, 1)}
        assert {r.side for r in rows} == {"left", "right"}

    def test_first_six_rows(self):
        left = table_one(6, "left")
        right = table_one(6, "right")
        assert [r.m for r in left] == [0, 4, 12, 24, 40, 60]
        assert [r.h for r in left] == [1, 5, 13, 25, 41, 61]
        assert [r.r for r in left] == [1, 9, 25, 49, 81, 121]
        assert [r.m for r in right] == [0, 1, 2, 3, 4, 5]
        assert [r.h for r in right] == [1, 2, 3, 4, 5, 6]
        assert [r.r for r in right] == [1, 3, 5, 7, 9, 11]

    def test_triangle_identity_on_both_sides(self):
        for row in table_one(40, "both"):
            assert row.h * row.h == row.m * row.m + row.r

    def test_left_h_matches_box_hypotenuses(self):
        left = table_one(7, "left")
        assert [r.h for r in left] == [t[2] for t in BOX_TRIPLES]

    @pytest.mark.parametrize("rows", [1, 2, 2000])
    @pytest.mark.parametrize("side", ["left", "right", "both"])
    def test_rows_equal_the_checked_rows(self, side, rows):
        # table_one skips TableOneRow's check of h^2 = m^2 + r, which its closed forms
        # satisfy identically; the checking constructor must accept every row it makes
        expected = []
        for index in range(rows):
            m = 2 * index * (index + 1)
            if side != "right":
                expected.append(TableOneRow("left", index, m, m + 1, (2 * index + 1) ** 2))
            if side != "left":
                expected.append(TableOneRow("right", index, index, index + 1, 2 * index + 1))
        made = table_one(rows, side)
        assert made == expected
        assert {type(row) for row in made} == {TableOneRow}

    def test_the_checking_constructor_still_checks(self):
        with pytest.raises(ValueError, match=r"h\^2 != m\^2 \+ r for row 1 \(left\)"):
            TableOneRow("left", 1, 4, 5, 10)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            table_one(3, "middle")
        with pytest.raises(ValueError):
            table_one(0, "left")


class TestLeftToRightMapping:
    def test_printed_correspondences(self):
        assert left_to_right_index(0) == 0
        assert left_to_right_index(1) == 4
        assert left_to_right_index(3) == 24

    def test_guarantee_up_to_100(self):
        # left_to_right_index re-derives the mapped right row internally;
        # here the right side is checked against its closed form instead of
        # materializing tables of ~2N^2 rows.
        for index in range(101):
            mapped = left_to_right_index(index)
            left = table_one(index + 1, "left")[index]
            assert (mapped, mapped + 1) == (left.m, left.h)  # right row M: m = M, h = M+1
            assert 2 * mapped + 1 == left.r                  # right row M: r = 2M+1
            right_same = table_one(index + 1, "right")[index]
            assert left.r == right_same.r ** 2


class TestInvariantsRaise:
    """A broken invariant raises CrossCheckFailed, which ``python -O`` keeps."""

    @pytest.fixture
    def wrong_roots(self, monkeypatch):
        wrong = RootPair(QuadraticSurd(1), QuadraticSurd(1), Fraction(0))
        monkeypatch.setattr(triangles, "generalized_gm", lambda m: wrong)

    def test_table_one_right_side(self, wrong_roots):
        with pytest.raises(CrossCheckFailed):
            table_one(2, "right")

    def test_left_to_right_index(self, wrong_roots):
        with pytest.raises(CrossCheckFailed):
            left_to_right_index(1)

    # (index, x1, x2, x1^2 + x2^2 == h, (|x1| + |x2|)^2 == r) at h = index + 1, r = 2*index + 1;
    # each of the first four misses one integer of one identity and keeps the rest
    IRRATIONAL_WRONG_PAIRS = [
        (4, QuadraticSurd(Fraction(5, 3), Fraction(1, 3), 2),
         QuadraticSurd(Fraction(4, 3), Fraction(-1, 3), 2), False, True),  # h: 5 + 2√2/9
        (13, QuadraticSurd(0, 1, 3), QuadraticSurd(0, 2, 3), False, True),  # h: 15
        (0, QuadraticSurd(0, Fraction(1, 2), 3), QuadraticSurd(Fraction(1, 2)),
         True, False),  # r: 1 + √3/2
        (3, QuadraticSurd(0, 1, 2), QuadraticSurd(0, 1, 2), True, False),  # r: 8
        (2, QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5),
         QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5), False, False),  # (x1, x1): h 3 - √5
    ]

    @pytest.mark.parametrize("index, x1, x2, h_holds, r_holds", IRRATIONAL_WRONG_PAIRS,
                             ids=["h sqrt part", "h rational part", "r sqrt part",
                                  "r rational part", "x1 twice"])
    def test_irrational_wrong_pair(self, monkeypatch, index, x1, x2, h_holds, r_holds):
        assert (x1 ** 2 + x2 ** 2 == index + 1) is h_holds
        assert ((abs(x1) + abs(x2)) ** 2 == 2 * index + 1) is r_holds
        monkeypatch.setattr(triangles, "generalized_gm", lambda m: RootPair(
            x1, x2, Fraction(2 * m + 1)) if m == index else generalized_gm(m))
        with pytest.raises(CrossCheckFailed, match=f"at N = {index}$"):
            table_one(index + 1, "right")

    def test_roots_of_two_radicands(self, monkeypatch):
        # the true x1 at N = 2 with x2 = (-1 - sqrt3)/2, whose integers are those of the
        # true x2 = (-1 - sqrt5)/2 but for the radicand
        wrong = RootPair(generalized_gm(2).x1, QuadraticSurd(Fraction(-1, 2), Fraction(-1, 2), 3),
                         Fraction(5))
        monkeypatch.setattr(triangles, "generalized_gm",
                            lambda m: wrong if m == 2 else generalized_gm(m))
        with pytest.raises(CrossCheckFailed, match="at N = 2$"):
            table_one(3, "right")


class TestTripletClassification:
    def test_fibonacci_triple(self):
        result = classify_triplet((2, 3, 5))
        assert result.tag == "fibonacci"

    def test_lucas_triple(self):
        result = classify_triplet((3, 4, 7))
        assert result.tag == "lucas"
        assert result.member_indices is not None

    def test_neither(self):
        result = classify_triplet((4, 5, 9))
        assert result.tag == "neither" and result.member_indices is None

    def test_fibonacci_wins_ties(self):
        # (1, 2, 3) is consecutive in both sequences; fibonacci takes priority
        assert classify_triplet((1, 2, 3)).tag == "fibonacci"

    def test_right_rows_classify_like_the_table(self):
        rows = table_one(8, "right")
        triples = [(r.m, r.h, r.r) for r in rows]
        tags = [classify_triplet(t).tag for t in triples]
        assert tags[:3] == ["fibonacci", "fibonacci", "fibonacci"]
        assert tags[3] == "lucas"
        for a, b in zip(triples, triples[1:]):
            assert tuple(y - x for x, y in zip(a, b)) == (1, 1, 2)

    def test_order_matters(self):
        assert classify_triplet((5, 3, 2)).tag == "neither"

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_triplet((1, 2))
        with pytest.raises(ValueError):
            classify_triplet((-1, 2, 3))
        with pytest.raises(ValueError):
            classify_triplet((1, 2, 10 ** 19))

    @pytest.mark.parametrize("triple", [(1.9, 2, 3), (1, 2, Fraction(3)), ("1", 2, 3)], ids=repr)
    def test_a_non_integer_value_is_refused(self, triple):
        with pytest.raises(TypeError):
            classify_triplet(triple)
