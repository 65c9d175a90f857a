from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import brute_kostka, brute_skew_standard_count, brute_ssyt, peel_schur
from oracles import bialternant_schur, brute_monomial_product, fraction_weyl_dimension
from oracles import diagram_from_indices, weyl_dimension
from paulitope.tableaux import (
    FramedDiagram,
    contains,
    content_vector,
    count_skew_standard,
    enumerate_ssyt,
    is_semistandard,
    kostka,
    littlewood_richardson,
    normalize,
    partitions_in_box,
    reading_word,
    shuffle_vertical_sequence,
    size,
    transpose,
)


def test_normalize_strips_trailing_zeros():
    assert normalize([3, 2, 1, 0, 0]) == (3, 2, 1)
    assert normalize([]) == ()
    assert normalize((5,)) == (5,)


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize([2, -1])
    with pytest.raises(ValueError):
        normalize([1, 2])


def test_size_height_transpose():
    assert size((3, 2, 1)) == 6
    assert transpose((3, 2, 1)) == (3, 2, 1)
    assert transpose((4, 1)) == (2, 1, 1, 1)
    assert transpose(transpose((5, 3, 3, 1))) == (5, 3, 3, 1)
    assert transpose(()) == ()


def test_contains():
    assert contains((3, 2), (2, 2))
    assert contains((3, 2), ())
    assert not contains((3, 2), (2, 2, 1))
    assert not contains((3, 2), (4,))


def test_partitions_in_box_matches_binomial_count():
    # partitions inside a p x q box are counted by C(p + q, p)
    for rows, cols in [(2, 3), (3, 3), (1, 5), (4, 2)]:
        got = list(partitions_in_box(rows, cols))
        assert len(got) == len(set(got))
        import math

        assert len(got) == math.comb(rows + cols, rows)
        assert all(len(p) <= rows and (not p or p[0] <= cols) for p in got)


def test_partitions_in_box_fixed_total():
    got = set(partitions_in_box(2, 3, total=3))
    assert got == {(3,), (2, 1)}


@pytest.mark.parametrize(
    "shape,max_entry",
    [((2, 1), 3), ((3,), 2), ((2, 2), 3), ((1, 1, 1), 4), ((3, 1), 3), ((2, 2, 1), 3)]
    # max_entry equal to the row count, columns of unequal length: each cell's
    # cap comes from its own column
    + [((2, 1), 2), ((3, 1, 1), 3)]
    + [((1,) * k, k) for k in range(1, 6)],
)
def test_enumerate_ssyt_matches_brute_filter(shape, max_entry):
    got = sorted(enumerate_ssyt(shape, max_entry))
    want = sorted(brute_ssyt(shape, max_entry))
    assert got == want
    assert all(is_semistandard(t, shape) for t in got)


def test_enumerate_ssyt_full_column_is_one_tableau():
    # too large for the brute filter (14^14 raw fillings)
    assert enumerate_ssyt((1,) * 14, 14) == [tuple((k,) for k in range(1, 15))]


def test_enumerate_ssyt_count_matches_weyl_dimension():
    for shape in [(2, 1), (3, 2), (2, 2, 1), (4,), (1, 1, 1)]:
        for r in (3, 4):
            assert len(enumerate_ssyt(shape, r)) == weyl_dimension(shape, r)


def test_weyl_dimension_too_tall_is_zero():
    assert weyl_dimension((1, 1, 1), 2) == 0


def test_weyl_dimension_matches_fraction_product_in_a_box():
    shapes = list(partitions_in_box(7, 6))
    assert len(shapes) == 1716
    for shape in shapes:
        for r in range(1, 10):
            assert weyl_dimension(shape, r) == fraction_weyl_dimension(shape, r), (shape, r)


def test_reading_word_and_content():
    tab = ((1, 1, 2), (2, 3))
    assert reading_word(tab) == (1, 1, 2, 2, 3)
    assert content_vector(tab, 4) == (2, 2, 1, 0)


def test_is_semistandard_rejects_bad_fillings():
    assert not is_semistandard(((1, 2), (1, 3)), (2, 2))
    assert not is_semistandard(((2, 1),), (2,))
    assert is_semistandard(((1, 1), (2, 2)), (2, 2))


@pytest.mark.parametrize(
    "outer,inner",
    [
        ((3, 2), ()),
        ((3, 2), (1,)),
        ((4, 2, 1), (2, 1)),
        ((3, 3), (2,)),
        ((2, 2, 2), (1, 1)),
        ((5, 1), (1,)),
    ],
)
def test_count_skew_standard_matches_linear_extensions(outer, inner):
    assert count_skew_standard(outer, inner) == brute_skew_standard_count(outer, inner)


def test_count_skew_standard_degenerate():
    assert count_skew_standard((2, 1), (2, 1)) == 1
    assert count_skew_standard((1,), (2,)) == 0


def test_kostka_matches_brute():
    cases = [
        ((2, 1), (1, 1, 1)),
        ((3, 1), (2, 1, 1)),
        ((2, 2), (1, 1, 1, 1)),
        ((3, 2, 1), (2, 2, 1, 1)),
        ((2, 1, 1), (1, 1, 1, 1)),
    ]
    for shape, content in cases:
        assert kostka(shape, content) == brute_kostka(shape, content)


def test_kostka_triangularity():
    assert kostka((2, 2), (2, 2)) == 1
    assert kostka((2, 2), (3, 1)) == 0


def _lr_by_schur_product(mu, pi, nu, p):
    prod = brute_monomial_product(bialternant_schur(mu, p), bialternant_schur(pi, p))
    return peel_schur(prod, p).get(normalize(nu), 0)


def test_littlewood_richardson_matches_schur_products():
    small = [(), (1,), (2,), (1, 1), (2, 1), (3,)]
    for mu, pi in itertools.product(small, repeat=2):
        total = size(mu) + size(pi)
        p = max(3, len(mu) + len(pi))
        expanded = {}
        prod = brute_monomial_product(
            bialternant_schur(mu, p), bialternant_schur(pi, p)
        )
        expanded = peel_schur(prod, p)
        for nu in partitions_in_box(p, total, total=total):
            got = littlewood_richardson(mu, pi, nu)
            assert got == expanded.get(nu, 0), (mu, pi, nu)


def test_littlewood_richardson_is_symmetric():
    for mu, pi in [((2, 1), (1, 1)), ((3,), (2, 1)), ((2, 2), (2, 1))]:
        total = size(mu) + size(pi)
        for nu in partitions_in_box(4, total, total=total):
            assert littlewood_richardson(mu, pi, nu) == littlewood_richardson(
                pi, mu, nu
            )


def test_littlewood_richardson_pieri_row():
    # multiplying by a single row adds a horizontal strip with coefficient one
    for nu in partitions_in_box(3, 4, total=4):
        c = littlewood_richardson((2, 1), (1,), nu)
        assert c == (1 if contains(nu, (2, 1)) else 0), nu


def test_framed_diagram_validation():
    FramedDiagram((2, 1), 2, 2).validate()
    with pytest.raises(ValueError):
        FramedDiagram((3,), 2, 2).validate()
    with pytest.raises(ValueError):
        FramedDiagram((1, 1, 1), 2, 2).validate()


def test_shuffle_vertical_sequence_round_trip():
    for rows, cols in [(2, 3), (3, 3), (3, 4)]:
        for diagram in partitions_in_box(rows, cols):
            framed = FramedDiagram(diagram, rows, cols)
            idx = shuffle_vertical_sequence(framed)
            assert len(idx) == rows
            assert all(1 <= i <= rows + cols for i in idx)
            assert diagram_from_indices(idx, rows, cols).diagram == diagram


def test_normalize_refuses_fractional_parts():
    with pytest.raises(ValueError, match="partition part must be an integer"):
        normalize((2.5, 1))


def test_kostka_refuses_a_fractional_content():
    with pytest.raises(ValueError, match="content entry must be an integer"):
        kostka((2,), (1.5, 0.5))
    assert kostka((2,), (np.int64(1), Fraction(1))) == 1
