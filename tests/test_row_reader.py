"""The block row reader against the two readers it replaced.

``polytope._row_matrix`` reads every entry's numerator and denominator
into int64 one block of rows at a time, through the ``Fraction`` slots for a
block whose entries are all exactly ``Fraction``s, takes the lcm and gcd
one column at a time, and sorts the rows on one int64 key, or by
``np.lexsort`` for a small matrix or a key past int64; it falls back to
Python ints past int64.  The
references are the object-array reader (``oracles.reference_row_matrix``),
which reads both through the public properties, and the one-pass int64
reader (``oracles.attrgetter_row_matrix``).  On every input here all three
must give the same matrix, values, dtype and shape; with ``lead`` the reader
must match the object-array reader on the rows with a leading 1 written out.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import attrgetter

import numpy as np
import pytest

from oracles import attrgetter_row_matrix, random_rational_points, reference_row_matrix
from paulitope import polytope
from paulitope.plethysm import inner_points
from paulitope.polytope import Polytope, cone_dual, hull
from test_cone_scan import _mixed_lattice_points

INT64_MAX = 2**63 - 1


class Ratio(Fraction):
    """A Fraction subclass, which the reader must read through the public properties."""


def assert_same_matrix(rows, width, lead=False):
    got = polytope._row_matrix(rows, width, lead=lead)
    # the integer-key sort, which only larger matrices take, on every input
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polytope, "_KEY_SORT_ROWS", 1)
        keyed = polytope._row_matrix(rows, width, lead=lead)
    written = [(1, *row) for row in rows] if lead else rows
    want = reference_row_matrix(list(itertools.chain.from_iterable(written)), width + lead)
    for ref in (want, attrgetter_row_matrix(rows, width, lead), keyed):
        assert got.dtype == ref.dtype
        assert got.shape == ref.shape
        assert got.tolist() == ref.tolist()
    if got.dtype == object:
        assert all(type(x) is int for x in got.flat)
    return got


def random_rows(rng, count, width, denom=6, size=9):
    return [
        tuple(Fraction(int(rng.integers(-size, size + 1)), int(rng.integers(1, denom + 1))) for _ in range(width))
        for _ in range(count)
    ]


# ---------------------------------------------------------------- values


@pytest.mark.parametrize("width", range(1, 9))
@pytest.mark.parametrize("lead", [False, True], ids=["rows", "points"])
def test_random_rational_matrices(width, lead):
    rng = np.random.default_rng(700 + width)
    rows = random_rows(rng, 60, width)
    # repeats, multiples and zero rows, which the reader drops or merges
    rows += rows[:5] + [tuple(3 * x for x in rows[5])] + [(0,) * width, (Fraction(0, 5),) * width]
    assert assert_same_matrix(rows, width, lead).dtype == np.int64


def test_random_point_clouds():
    for dim, seed in itertools.product((2, 3, 5), range(3)):
        pts = random_rational_points(np.random.default_rng(10 * dim + seed), 25, dim)
        assert_same_matrix(pts, dim, lead=True)


MIXES = {
    "int-fraction": [(1, Fraction(-2, 3), 4), (Fraction(5, 2), 0, -7)],
    "bool": [(True, False, Fraction(1, 2)), (False, True, 3)],
    "numpy-int": [(np.int64(3), np.int32(-4), 5), (np.int8(1), Fraction(np.int64(6), 4), np.uint16(9))],
    "float": [(0.5, -0.375, 2.0), (1, Fraction(1, 8), 0.25)],
    "string": [("1/3", "-2/7", "5"), ("0.5", 1, Fraction(2, 3))],
    "subclass": [(Ratio(1, 3), Ratio(-4, 6), Ratio(5)), (Ratio(7, 2), Fraction(1, 2), 3)],
    "all-subclass": [(Ratio(1, 3), Ratio(-4, 6), Ratio(5)), (Ratio(7, 2), Ratio(1, 2), Ratio(3))],
    "everything": [(True, np.int64(-2), 0.75), ("3/4", Ratio(5, 9), Fraction(np.int64(4), 6))],
}


@pytest.mark.parametrize("name", sorted(MIXES))
@pytest.mark.parametrize("lead", [False, True], ids=["rows", "points"])
def test_entry_type_mixes(name, lead):
    assert_same_matrix(MIXES[name], 3, lead)


@pytest.mark.parametrize(
    "rows",
    [
        [(INT64_MAX, 1), (1, 2)],
        [(-INT64_MAX, 1), (0, 1)],
        [(-(2**63), 1), (1, 0)],
        [(-(2**63), 0)],
        [(Fraction(INT64_MAX, 2), 1)],
        [(2**63, 1)],
        [(Fraction(1, 2**63), 1)],
        [(Fraction(1, INT64_MAX), Fraction(1, 2))],
        # key digits 2^62 * 2 + 1 would wrap past int64 without the column minimum taken off
        [(2**62 + 1, 2), (2**62, 1), (2**62 - 1, 1)],
    ],
    ids=["max", "minus-max", "min", "min-alone", "max-half", "past-max", "den-past-max", "den-max", "key-offset"],
)
def test_numerators_at_the_int64_edges(rows):
    assert_same_matrix(rows, 2)


@pytest.mark.parametrize("limit", [0, 1, 11, 12, 13, 29, 30, 31])
@pytest.mark.parametrize("lead", [False, True], ids=["rows", "points"])
def test_dtype_straddles_a_patched_limit(monkeypatch, limit, lead):
    # the bound max|numerator| * lcm(denominators) is 5 * lcm(2, 3) = 30 for
    # all four rows, and 4 * 3 = 12 for the middle two
    monkeypatch.setattr("paulitope.plethysm._INT64_LIMIT", limit)
    rows = [(Fraction(5, 2), 1, 0), (Fraction(-1, 3), 2, 4), (0, 0, 0), (Fraction(5, 2), 1, 0)]
    assert_same_matrix(rows, 3, lead)
    assert_same_matrix(rows[1:3], 3, lead)


def test_zero_rows_repeats_and_empty_input():
    for width in (1, 3):
        assert assert_same_matrix([], width).shape == (0, width)
        assert assert_same_matrix([(0,) * width] * 4, width).shape == (0, width)
    assert assert_same_matrix([(0, 0), (0, 0)], 2, lead=True).tolist() == [[1, 0, 0]]
    assert assert_same_matrix([(2, 4), (1, 2), (Fraction(-1), -2), (1, 2)], 2).tolist() == [[-1, -2], [1, 2]]


def test_hull_of_the_zero_dimensional_point():
    assert assert_same_matrix([()], 0, lead=True).tolist() == [[1]]
    assert hull([()]) == Polytope(dim=0, equations=(), facets=(), vertices=((),))


# ---------------------------------------------------------- real inputs


def _pipeline_points(nu, r, rank_bound, m_cap, **caps):
    points = inner_points(nu, r, rank_bound, m_cap, **caps)
    return [lam + mu if rank_bound > 1 else lam for lam, mu in points]


@lru_cache(maxsize=None)
def _hull_mixed_sorted():
    return tuple(_mixed_lattice_points(16))


@pytest.mark.parametrize(
    "name",
    ["hull-mixed", "c4", "c6", "mixed-r4-m8"],
)
def test_benchmark_and_pipeline_points(name):
    if name == "hull-mixed":
        pts = list(_hull_mixed_sorted())
        assert len(pts) == 24526
    elif name == "c4":
        pts = _pipeline_points((1, 1, 1), 6, 1, 4)
    elif name == "c6":
        pts = _pipeline_points((2, 1), 4, 2, 12, degree_cap=36)
    else:
        pts = _pipeline_points((2, 1), 4, 2, 8, degree_cap=36)
    assert all(type(x) is Fraction for x in itertools.chain.from_iterable(pts))
    assert_same_matrix(pts, len(pts[0]), lead=True)


@pytest.mark.parametrize("seed", range(5))
def test_hull_mixed_points_in_benchmark_order(seed):
    # the benchmark shuffles the sorted points with random.Random(seed), and
    # the order is what the sort sees
    pts = list(_hull_mixed_sorted())
    random.Random(seed).shuffle(pts)
    assert assert_same_matrix(pts, 6, lead=True).shape == (24526, 7)


# ------------------------------------------------------------ blocks


def test_a_past_int64_numerator_in_the_last_block_reads_every_block_again(monkeypatch):
    monkeypatch.setattr(polytope, "_READ_BLOCK", 16)
    rows = random_rows(np.random.default_rng(81), 50, 3)
    assert_same_matrix(rows, 3)
    rows[-1] = (Fraction(2**64, 3), 1, 0)
    assert assert_same_matrix(rows, 3).dtype == object


@pytest.mark.parametrize("block", [None, 16], ids=["read-block", "patched-16"])
@pytest.mark.parametrize("last", [7, Ratio(7, 2), 0.5, "2/9"], ids=["int", "subclass", "float", "string"])
def test_a_non_fraction_entry_only_in_the_last_block(monkeypatch, block, last):
    if block:
        monkeypatch.setattr(polytope, "_READ_BLOCK", block)
    n = 2 * polytope._READ_BLOCK + 1
    rows = random_rows(np.random.default_rng(82), n, 3, denom=12, size=50)
    rows[-1] = (Fraction(1, 3), last, Fraction(-5, 4))
    assert_same_matrix(rows, 3)
    assert_same_matrix(rows, 3, lead=True)


# -------------------------------------------------------------- the order


def _lexsort_calls(monkeypatch, rows, width, lead=False):
    """The matrix ``_row_matrix`` gives, and how often it called ``np.lexsort``."""
    calls = []
    real = np.lexsort

    def recording(keys, *args, **kwargs):
        calls.append(len(keys))
        return real(keys, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "lexsort", recording)
        got = polytope._row_matrix(rows, width, lead)
    return got, len(calls)


@pytest.mark.parametrize("lead", [False, True], ids=["rows", "points"])
def test_a_small_matrix_or_a_key_past_int64_takes_lexsort(monkeypatch, lead):
    # no zero rows, so the column spans of the output are those of the key
    rows = [row for row in random_rows(np.random.default_rng(83), 200, 4) if any(row)]
    got, calls = _lexsort_calls(monkeypatch, rows, 4, lead)
    assert calls == 0
    assert _lexsort_calls(monkeypatch, rows[: polytope._KEY_SORT_ROWS - 1], 4, lead)[1] == 1
    spans = prod(int(c.max()) - int(c.min()) + 1 for c in got.T)
    for limit, want_calls, dtype in ((spans, 0, np.int64), (spans - 1, 1, np.int64), (0, 1, object)):
        monkeypatch.setattr("paulitope.plethysm._INT64_LIMIT", limit)
        fell_back, calls = _lexsort_calls(monkeypatch, rows, 4, lead)
        assert calls == want_calls
        assert fell_back.dtype == dtype and fell_back.tolist() == got.tolist()
        assert_same_matrix(rows, 4, lead)


@pytest.mark.parametrize("lead", [False, True], ids=["rows", "points"])
def test_one_patched_limit_moves_both_the_dtype_and_the_sort(monkeypatch, lead):
    # the matrix dtype and the one-key sort each read plethysm's int64 limit:
    # the dtype's bound max|numerator| * lcm(denominators) is far below the key's
    rows = [row for row in random_rows(np.random.default_rng(85), 200, 3) if any(row)]
    entries = [x for row in rows for x in row]
    bound = max(abs(x.numerator) for x in entries) * lcm(*(x.denominator for x in entries))
    got, _ = _lexsort_calls(monkeypatch, rows, 3, lead)
    spans = prod(int(c.max()) - int(c.min()) + 1 for c in got.T)
    assert bound < spans
    for limit, want_calls, dtype in (
        (spans, 0, np.int64),
        (spans - 1, 1, np.int64),
        (bound, 1, np.int64),
        (bound - 1, 1, object),
    ):
        monkeypatch.setattr("paulitope.plethysm._INT64_LIMIT", limit)
        matrix, calls = _lexsort_calls(monkeypatch, rows, 3, lead)
        assert (matrix.dtype, calls) == (dtype, want_calls)
        assert matrix.tolist() == got.tolist()


def test_python_int_matrices_are_sorted_by_lexsort(monkeypatch):
    monkeypatch.setattr(polytope, "_READ_BLOCK", 16)
    rng = np.random.default_rng(84)
    rows = [
        tuple(Fraction(int(n) * 2**62, int(d)) for n, d in zip(rng.integers(-9, 10, 3), rng.integers(1, 7, 3)))
        for _ in range(60)
    ]
    rows += rows[:4] + [(0, 0, 0), (Fraction(3, 2), Ratio(1, 5), 2**70)]
    got, calls = _lexsort_calls(monkeypatch, rows, 3)
    assert got.dtype == object and calls == 1
    assert assert_same_matrix(rows, 3).tolist() == got.tolist()
    assert assert_same_matrix(rows, 3, lead=True).dtype == object


# ------------------------------------------------------ the slot read


def test_fraction_slots_equal_the_public_properties():
    # the reader reads these slots when every entry is a Fraction; a Python
    # whose Fraction lacks them must fail here, not misread
    rng = np.random.default_rng(71)
    fracs = [Fraction(int(n), int(d)) for n, d in zip(rng.integers(-(2**40), 2**40, 500), rng.integers(1, 2**20, 500))]
    fracs += [Fraction(0), Fraction(-7), Fraction(2**70, 3), Fraction(np.int64(6), 4)]
    for slot, prop in (("_numerator", "numerator"), ("_denominator", "denominator")):
        assert list(map(attrgetter(slot), fracs)) == list(map(attrgetter(prop), fracs))


class Skewed(Fraction):
    """A Fraction subclass whose public numerator and denominator are not its slots."""

    @property
    def numerator(self):
        return self._numerator + 1

    @property
    def denominator(self):
        return 2 * self._denominator


def test_a_fraction_subclass_is_read_through_its_properties():
    # only entries that are exactly Fractions may be read through the slots
    skewed = [(Skewed(1, 3), Skewed(-2, 5), Skewed(4)), (Skewed(7, 2), Skewed(0), Skewed(-1, 6))]
    mixed = [(Skewed(1, 3), Fraction(1, 3), Fraction(-2, 5)), (Fraction(7, 2), Fraction(5, 9), Skewed(2, 9))]
    for rows, lead in itertools.product((skewed, mixed), (False, True)):
        through = [tuple(Fraction(x.numerator, x.denominator) for x in row) for row in rows]
        assert polytope._row_matrix(rows, 3, lead).tolist() == polytope._row_matrix(through, 3, lead).tolist()
        assert_same_matrix(rows, 3, lead)
    # the properties are what is read: (1 + 1) / 6 and (-2 + 1) / 10 and (4 + 1) / 2
    assert polytope._row_matrix(skewed[:1], 3).tolist() == [[10, -3, 75]]
    # a point row of reduced entries is primitive, so the reader skips the
    # gcd; mixed with a float, Skewed stays unreduced after _exact: 2/6, 2/10
    # and 1 scale to (30, 10, 6, 30), whose gcd is 2, and 3/6, 1/2 and 3/4
    # to (12, 6, 6, 9), whose gcd is 3
    with_float = [(Skewed(1, 3), Skewed(1, 5), 1.0), (Skewed(2, 3), 0.5, Fraction(3, 4))]
    assert assert_same_matrix(with_float, 3, lead=True).tolist() == [[4, 2, 2, 3], [15, 5, 3, 15]]
    # Fraction(np.int64(x), q) is exactly a Fraction, reduced, with an int64 numerator
    numpy_ints = [(Fraction(np.int64(4), 6), Fraction(np.int64(-3), 9)), (Fraction(np.int64(10), 4), Fraction(0))]
    assert type(numpy_ints[0][0]._numerator) is np.int64
    assert assert_same_matrix(numpy_ints, 2, lead=True).tolist() == [[2, 5, 0], [3, 2, -1]]


# ------------------------------------------------ numpy-int numerators


def test_numpy_int_numerators_do_not_wrap():
    # Fraction(np.int64(x), q) keeps an int64 numerator; past int64 the
    # matrix must hold Python ints, or the products wrap
    rows = [(Fraction(np.int64(2**62), 3), Fraction(np.int64(-(2**62 - 1)), 5)), (0, 1)]
    assert type(rows[0][0].numerator) is np.int64
    matrix = polytope._row_matrix(rows, 2)
    assert matrix.dtype == object
    assert all(type(x) is int for x in matrix.flat)
    rays, lin = cone_dual([], rows, 2)
    assert (rays, lin) == ([(1, 0), (13835058055282163709, 23058430092136939520)], [])
    assert all(type(x) is int for x in rays[1])
