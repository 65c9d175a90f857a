"""A double description that continues, against one pass over the whole system.

``polytope._Cone`` holds the state ``cone_dual`` builds: the lineality
basis, the rays with their bitmasks and the rows inserted so far.  A cone
that already holds part of a system and is given the whole system inserts
only the rest, so a cone continued over any split of a row set must end at
the cone ``cone_dual`` and the row-by-row reference (tests/oracles.py) give
for the union, and its inserted rows alone must cut out that cone.  The
split step skips a pair of rays that share fewer tight rows than the
pointed part's dimension less two, before its loop over the rays; the
reference has no such test, so the cases here include equations, implicit
equalities (a row and its negation) and a used-up lineality.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from oracles import _primitive, _scale_to_int, random_rational_points, reference_cone_dual
from paulitope import polytope
from paulitope.errors import ResourceLimitError
from paulitope.polytope import _Cone, _row_matrix, cone_dual


def _random_rows(rng, count: int, dim: int) -> list[tuple]:
    return [tuple(row) for row in random_rational_points(rng, count, dim)]


def _split(rng, rows: list, parts: int) -> list[list]:
    """The rows shuffled and cut into ``parts`` runs, some perhaps empty."""
    order = [rows[i] for i in rng.permutation(len(rows))]
    cuts = sorted(int(x) for x in rng.integers(0, len(rows) + 1, size=parts - 1))
    return [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(rows)])]


def _continued(equations, parts: list[list], dim: int, rng) -> _Cone:
    """A cone given the union of the parts so far at each step, with some rows twice."""
    cone = _Cone(dim, equations)
    seen: list = []
    for part in parts:
        seen += part
        if not seen:
            continue
        matrix = _row_matrix(seen, dim)
        repeats = matrix[rng.integers(0, len(matrix), size=len(matrix) // 2)]
        cone.insert(np.concatenate([matrix, repeats]))
    return cone


def assert_same_as_the_union(equations, rows: list, dim: int, cone: _Cone) -> None:
    want = reference_cone_dual(equations, rows, dim)
    assert cone.result() == cone_dual(equations, rows, dim) == want
    # the inserted rows are distinct primitive rows of the union, and cut out its cone
    assert len(set(cone.rows)) == len(cone.rows)
    assert set(cone.rows) <= {_primitive(_scale_to_int(row)) for row in rows}
    assert reference_cone_dual(equations, cone.rows, dim) == want
    assert all(type(x) is int for row in cone.rows for x in row)


CASES = [(dim, seed) for dim in range(2, 7) for seed in range(3)]


@pytest.mark.parametrize("dim,seed", CASES, ids=[f"d{d}-s{s}" for d, s in CASES])
def test_a_cone_continued_over_random_splits_is_the_cone_of_the_union(dim, seed):
    rng = np.random.default_rng(4100 * dim + seed)
    count = {2: 12, 3: 12, 4: 11, 5: 10, 6: 9}[dim]
    for equations in ([], _random_rows(rng, 1, dim), _random_rows(rng, dim - 1, dim)):
        # rows of hull points and rows of a general cone
        for rows in ([(1, *p) for p in _random_rows(rng, count, dim - 1)], _random_rows(rng, count, dim)):
            for parts in (1, 2, 3, 5):
                cone = _continued(equations, _split(rng, rows, parts), dim, rng)
                assert_same_as_the_union(equations, rows, dim, cone)


def test_rows_the_start_already_implies_insert_nothing():
    rng = np.random.default_rng(29)
    for dim in range(2, 7):
        rows = [(1, *p) for p in _random_rows(rng, 10, dim - 1)]
        cone = _Cone(dim)
        cone.insert(_row_matrix(rows, dim))
        held = (cone.result(), cone.rows[:])
        # the same rows again, their positive multiples and nonnegative sums
        implied = rows + [tuple(3 * x for x in row) for row in rows]
        implied += [tuple(x + y for x, y in zip(a, b)) for a, b in zip(rows, rows[1:])]
        cone.insert(_row_matrix(implied, dim))
        assert (cone.result(), cone.rows) == held


def test_implicit_equalities_across_the_split_match_the_reference():
    rng = np.random.default_rng(37)
    for dim in range(2, 7):
        for _ in range(4):
            rows = _random_rows(rng, 8, dim)
            # each of two rows and its negation, the negation in a later part
            flipped = [tuple(-x for x in row) for row in rows[:2]]
            for equations in ([], _random_rows(rng, 1, dim)):
                cone = _continued(equations, [rows, flipped], dim, rng)
                assert_same_as_the_union(equations, rows + flipped, dim, cone)


def test_the_adjacency_pre_check_matches_the_reference():
    # equations, implicit equalities, and a pointed cone (lineality used up)
    rng = np.random.default_rng(41)
    for dim in range(3, 8):
        for _ in range(3):
            rows = _random_rows(rng, dim + 6, dim)
            negated = [tuple(-x for x in row) for row in rows[:1]]
            for equations in ([], _random_rows(rng, 1, dim), _random_rows(rng, dim - 2, dim)):
                for system in (rows, rows + negated):
                    got = cone_dual(equations, system, dim)
                    assert got == reference_cone_dual(equations, system, dim)
            # the dual of a full-dimensional polytope is pointed
            points = [(1, *p) for p in _random_rows(rng, dim + 4, dim - 1)]
            rays, lineality = cone_dual([], points, dim)
            assert lineality == [] and (rays, lineality) == reference_cone_dual([], points, dim)


def test_the_pre_check_keeps_the_facets_of_the_cube():
    # most pairs of rays on the way to the 4-cube's 8 facets share too few
    # tight rows to be adjacent
    points = [(1, *(Fraction(b >> i & 1) for i in range(4))) for b in range(16)]
    cone = _Cone(5)
    cone.insert(_row_matrix(points, 5))
    assert cone.result() == reference_cone_dual([], points, 5)
    assert len(cone.result()[0]) == 8


def test_a_continued_cone_keeps_the_ray_cap_and_its_counts():
    rng = np.random.default_rng(43)
    rows = [(1, *p) for p in _random_rows(rng, 30, 4)]
    cone = _Cone(5, ray_cap=6)
    with pytest.raises(ResourceLimitError, match=r"ray count \d+ exceeds cap 6 after inserting \d+ of \d+ inequalities \(dim 5\)"):
        cone.insert(_row_matrix(rows, 5))


def test_hull_refuses_a_cone_of_another_dimension():
    with pytest.raises(ValueError, match="the cone to continue must be a _Cone of dimension 3, not dimension 4"):
        polytope.hull([(0, 0), (1, 0), (0, 1)], cone=_Cone(4))
