from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_rational_points
from paulitope.errors import ResourceLimitError
from paulitope.polytope import (
    Polytope,
    _scale_to_int,
    canonical_inequality,
    cone_dual,
    facet_match,
    hull,
    pipeline,
    polytope_from_h,
    polytopes_equal,
)


def test_cone_dual_orthant():
    rays, lin = cone_dual([], [(1, 0), (0, 1)], 2)
    assert lin == []
    assert sorted(rays) == [(0, 1), (1, 0)]


def test_cone_dual_halfplane_keeps_lineality():
    rays, lin = cone_dual([], [(1, 0)], 2)
    assert len(lin) == 1
    assert rays == [(1, 0)]


def test_cone_dual_equation_cuts_dimension():
    rays, lin = cone_dual([(1, 1)], [(1, 0)], 2)
    assert lin == []
    assert rays == [(1, -1)]


def test_cone_dual_ray_cap():
    # a 4-dimensional hypercube H description produces 16 dual rays
    ineqs = []
    for i in range(4):
        for s in (1, -1):
            row = [1, 0, 0, 0, 0]
            row[i + 1] = s
            ineqs.append(tuple(row))
    rays, _ = cone_dual([], ineqs, 5)
    assert len(rays) == 16
    with pytest.raises(ResourceLimitError):
        cone_dual([], ineqs, 5, ray_cap=8)


def test_hull_unit_square():
    poly = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert poly.equations == ()
    assert len(poly.facets) == 4
    assert set(poly.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert poly.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not poly.contains((2, 0))


def test_hull_ignores_interior_points():
    poly = hull([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
    assert set(poly.vertices) == {(0, 0), (2, 0), (0, 2)}
    assert len(poly.facets) == 3


def test_hull_of_segment_has_equation():
    poly = hull([(0, 0), (2, 2)])
    assert len(poly.equations) == 1
    a, b = poly.equations[0]
    assert sum(c * x for c, x in zip(a, (0, 0))) == b
    assert sum(c * x for c, x in zip(a, (2, 2))) == b
    assert len(poly.vertices) == 2
    assert poly.contains((1, 1))
    assert not poly.contains((1, 0))


def test_hull_of_single_point():
    poly = hull([(3, 4, 5)])
    assert poly.vertices == ((3, 4, 5),)
    assert len(poly.equations) == 3
    assert poly.contains((3, 4, 5))
    assert not poly.contains((3, 4, 6))


def test_hull_accepts_fractions():
    poly = hull([(Fraction(1, 2), 0), (0, Fraction(1, 3)), (0, 0)])
    assert (Fraction(1, 2), Fraction(0)) in poly.vertices


def test_contains_arity_check():
    poly = hull([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        poly.contains((1, 2, 3))


def test_polytope_from_h_round_trip():
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    rebuilt = polytope_from_h(2, square.equations, square.facets)
    assert set(rebuilt.vertices) == set(square.vertices)
    assert polytopes_equal(square, rebuilt)


def test_polytope_from_h_keeps_a_fractional_bound():
    poly = polytope_from_h(1, [], [((1,), Fraction(1, 2)), ((-1,), 0)])
    assert poly.vertices == ((Fraction(0),), (Fraction(1, 2),))
    assert poly.facets == (((1,), Fraction(1, 2)), ((-1,), 0))
    assert poly.contains((Fraction(1, 4),))
    assert not poly.contains((Fraction(3, 4),))


def test_polytope_from_h_keeps_a_fractional_equation_value():
    poly = polytope_from_h(2, [((1, 1), Fraction(1, 2))], [((-1, 0), 0), ((0, -1), 0)])
    assert poly.equations == (((1, 1), Fraction(1, 2)),)
    assert poly.vertices == ((0, Fraction(1, 2)), (Fraction(1, 2), 0))
    assert not poly.contains((Fraction(1, 4), Fraction(1, 2)))


def test_polytope_from_h_stores_integral_bounds_as_ints():
    poly = polytope_from_h(1, [], [((1,), Fraction(4, 2)), ((-1,), 0.0)])
    assert [type(b) for _, b in poly.facets] == [int, int]
    assert poly.vertices == ((0,), (2,))


def test_polytope_from_h_detects_unbounded():
    with pytest.raises(ValueError):
        polytope_from_h(2, [], [((1, 0), 1)])
    with pytest.raises(ValueError):
        polytope_from_h(1, [], [])
    # x >= 0 has no line but the ray x -> infinity
    with pytest.raises(ValueError, match="recession direction"):
        polytope_from_h(1, [], [((-1,), 0)])


def test_polytopes_equal_is_description_independent():
    a = polytope_from_h(2, [], [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    b = polytope_from_h(2, [], [((2, 0), 2), ((-3, 0), 0), ((0, 5), 5), ((0, -1), 0)])
    assert polytopes_equal(a, b)
    c = hull([(0, 0), (1, 0), (0, 1)])
    assert not polytopes_equal(a, c)
    assert not polytopes_equal(a, hull([(0, 0, 0)]))


def test_polytopes_equal_on_the_zero_dimensional_point():
    # no equations and no facets: the vertex set is the one empty point ()
    point = hull([()])
    assert polytopes_equal(point, hull([()]))
    assert not polytopes_equal(point, hull([(0,)]))


def test_hull_round_trip_random_rational_points():
    rng = np.random.default_rng(41)
    for dim in (2, 3, 4):
        for _ in range(6):
            pts = random_rational_points(rng, 8, dim)
            poly = hull(pts)
            assert all(poly.contains(p) for p in pts)
            assert set(poly.vertices) <= {tuple(Fraction(x) for x in p) for p in pts}
            rebuilt = polytope_from_h(dim, poly.equations, poly.facets)
            assert set(rebuilt.vertices) == set(poly.vertices)


@st.composite
def point_clouds(draw):
    dim = draw(st.integers(2, 3))
    count = draw(st.integers(1, 7))
    pts = [
        tuple(
            Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
            for _ in range(dim)
        )
        for _ in range(count)
    ]
    return pts


@settings(max_examples=40, deadline=None)
@given(point_clouds())
def test_hull_contains_every_convex_combination(pts):
    poly = hull(pts)
    # midpoint of the first and last point lies in the hull
    mid = tuple((a + b) / 2 for a, b in zip(pts[0], pts[-1]))
    assert poly.contains(mid)
    centroid = tuple(sum(col) / len(pts) for col in zip(*pts))
    assert poly.contains(centroid)


def test_canonical_inequality_pure():
    gl, gm, b = canonical_inequality([1, -1, 0, 0], 1, 4, 2)
    assert (gl, gm, b) == ((2, 0, 1, 1), (), 3)
    # already-canonical input is only rescaled
    gl, gm, b = canonical_inequality([2, 0, 0, 0], 2, 4, 2)
    assert (gl, gm, b) == ((1, 0, 0, 0), (), 1)


def test_canonical_inequality_mixed():
    gl, gm, b = canonical_inequality([1, -1, 0, 0, 0, -1], 1, 4, 3, rank_bound=2)
    assert (gl, gm, b) == ((2, 0, 1, 1), (1, 0), 5)


def test_canonical_inequality_fractions():
    gl, gm, b = canonical_inequality([Fraction(1, 2), 0], Fraction(1, 4), 2, 1)
    assert (gl, gm, b) == ((2, 0), (), 1)


def _spellings(row):
    """The same integer row as Fractions, floats, numpy ints, and bools where it is 0/1."""
    yield [Fraction(x) for x in row]
    yield [float(x) for x in row]
    yield [np.int64(x) for x in row]
    yield [np.int32(x) for x in row]
    if all(x in (0, 1) for x in row):
        yield [bool(x) for x in row]


INT_ROWS = [[0, 0, 0, 0, 0], [1, 0, 1, 1, 1], [2, -2, 4, 0, 6], [1, -1, 0, 0, 1], [3, 0, -6, 9, 12]]


def test_integer_rows_give_python_int_tuples_in_every_spelling():
    for row in INT_ROWS:
        want = _scale_to_int(row)
        form = canonical_inequality(row[:4], row[4], 4, 2)
        assert all(type(x) is int for x in want + form[0] + form[1] + (form[2],))
        for spelled in _spellings(row):
            got = _scale_to_int(spelled)
            assert got == want and all(type(x) is int for x in got), spelled
            got = canonical_inequality(spelled[:4], spelled[4], 4, 2)
            assert got == form, spelled
            assert all(type(x) is int for x in got[0] + got[1] + (got[2],)), spelled
    # a row with a fraction takes the same normal form from Fractions and floats
    half = canonical_inequality([Fraction(1, 2), 0, 0, Fraction(-3, 2), 1], 1, 5, 2)
    assert canonical_inequality([0.5, 0, 0, -1.5, True], 1.0, 5, 2) == half


def test_canonical_inequality_arity():
    with pytest.raises(ValueError):
        canonical_inequality([1, 0], 0, 3, 2)
    with pytest.raises(ValueError):
        canonical_inequality([1, 0, 0, 0], 0, 4, 3, rank_bound=2)


def test_facet_match_classifies_chamber_walls_as_ambient():
    # the simplex of sorted two-level single-particle spectra
    poly = hull([(1, 0), (Fraction(1, 2), Fraction(1, 2))])
    report = facet_match(poly, (1,), 2)
    assert report["unmatched"] == []
    # ordering wall and trace carry no information
    assert report["ambient"] >= 2


def test_pipeline_borland_dennis_converges_at_four():
    result = pipeline((1, 1, 1), 6, 1, [2, 4])
    assert result["converged_at"] == 4
    assert [h["M"] for h in result["history"]] == [2, 4]
    assert result["history"][-1]["converged"]
    assert result["match"]["unmatched"] == []
    assert len(result["match"]["matched"]) == 7
    poly = result["polytope"]
    assert len(poly.equations) == 3
    assert (Fraction(1, 2),) * 6 in poly.vertices
    assert len(poly.vertices) == 4


def test_pipeline_reports_non_convergence():
    result = pipeline((1, 1, 1), 6, 1, [2])
    assert result["converged_at"] is None
    assert result["history"][0]["converged"] is False
    assert result["polytope"] is not None


def test_pipeline_respects_caps():
    with pytest.raises(ResourceLimitError):
        pipeline((1, 1, 1), 6, 1, [10])
    with pytest.raises(ResourceLimitError):
        pipeline((1, 1, 1), 9, 1, [2])
