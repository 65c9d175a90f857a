"""The pipeline against the path it had before its decomposition went integer.

The reference (tests/oracles.py) decomposes each degree by a dict loop over
the dominant weights with one Weyl dimension per component, and checks
equality by Fraction sums, each polytope's vertices against the other's
facets.  The package decomposes on integer arrays, compares the exact vertex
sets that every hull and H description carries, and refuses an oversized
schedule before it builds anything.  The reference builds the outer
polytope at every cutoff, where the package decides most cutoffs from the
facet match alone (test_convergence_cases.py), so the runs here cover each
of the package's cases.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import reference_hull, reference_pipeline, reference_polytopes_equal
from paulitope import plethysm, polytope
from paulitope.errors import ResourceLimitError
from paulitope.fixtures import VERTEX_TABLES, coefficient_table, vertex_table
from paulitope.plethysm import inner_points
from paulitope.polytope import _ambient_system, hull, pipeline, polytope_from_h, polytopes_equal
from paulitope.tableaux import size

RUNS = {
    "c4": (((1, 1, 1), 6, 1, [2, 4]), {}),
    "c5": (((1, 1, 1), 7, 1, [2, 4, 6, 8]), {}),
    "fermion-r7-m5": (((1, 1, 1), 7, 1, [2, 4, 5]), {}),
    "mixed-r4-m8": (((2, 1), 4, 2, [4, 8]), {"degree_cap": 36}),
    "c6": (((2, 1), 4, 2, [4, 8, 12]), {"degree_cap": 36}),
    "lambda4-c8": (((1, 1, 1, 1), 8, 1, [2, 4, 6]), {"degree_cap": 40}),
    "lambda2-c4": (((1, 1), 4, 1, [1, 2, 3]), {}),
    "nu1-r3": (((1,), 3, 1, [1, 2]), {}),
    "nu2-r3": (((2,), 3, 1, [1, 2]), {}),
    "nu11-r5-k2": (((1, 1), 5, 2, [2, 4]), {}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pipeline_reports_match_reference_at_every_cutoff(name):
    (nu, r, k, schedule), caps = RUNS[name]
    for stop in range(1, len(schedule) + 1):
        got = pipeline(nu, r, k, schedule[:stop], **caps)
        want = reference_pipeline(nu, r, k, schedule[:stop], **caps)
        assert got == want, (name, schedule[:stop])


def _counted_newton_steps(monkeypatch) -> list[int]:
    degrees: list[int] = []
    step = plethysm._newton_step

    def counted(series, *args):
        degrees.append(len(series))
        return step(series, *args)

    monkeypatch.setattr(plethysm, "_newton_step", counted)
    return degrees


def test_schedule_is_refused_before_any_degree_is_built(monkeypatch):
    degrees = _counted_newton_steps(monkeypatch)
    with pytest.raises(
        ResourceLimitError, match=r"^inner_points: \|nu\| \* M = 90 exceeds the degree cap 24$"
    ):
        pipeline((1, 1, 1), 6, 1, [2, 30])
    with pytest.raises(ResourceLimitError, match=r"^inner_points: r=9 exceeds the level cap 8$"):
        pipeline((1, 1, 1), 9, 1, [2])
    assert degrees == []


@pytest.mark.parametrize("bad", [0, -1])
def test_cutoff_below_one_is_refused_before_any_degree_is_built(monkeypatch, bad):
    degrees = _counted_newton_steps(monkeypatch)
    hulls = []
    monkeypatch.setattr(polytope, "hull", lambda points: hulls.append(points))
    with pytest.raises(ValueError, match=rf"^pipeline: the cutoff M = {bad} is below 1$"):
        pipeline((1, 1, 1), 7, 1, [2, 4, 5, bad])
    assert degrees == [] and hulls == []
    # inner_points itself still reads cutoff 0 as no points
    assert inner_points((1, 1, 1), 7, 1, 0) == []


def test_early_convergence_builds_no_degree_above_it(monkeypatch):
    degrees = _counted_newton_steps(monkeypatch)
    result = pipeline((1, 1, 1), 6, 1, [2, 4, 6])
    assert result["converged_at"] == 4
    assert [h["M"] for h in result["history"]] == [2, 4]
    # one series serves every cutoff: each degree is built once, none above 4
    assert degrees == [1, 2, 3, 4]


def test_empty_schedule_builds_nothing(monkeypatch):
    degrees = _counted_newton_steps(monkeypatch)
    # nu has more rows than r, which only building the character would refuse
    result = pipeline((1, 1, 1), 2, 1, [])
    assert result["converged_at"] is None and result["history"] == [] and degrees == []


def test_schedule_out_of_order_matches_reference():
    # a cutoff below an earlier one sees only its own degrees
    args = ((2, 1), 3, 2, [3, 2, 4])
    assert pipeline(*args) == reference_pipeline(*args)


# the hull's cone carries over to a cutoff that is not below the last one,
# and starts afresh after a higher one
SCHEDULES = [
    (((2, 1), 3, 2, [3, 2, 4]), {}),
    (((2, 1), 4, 2, [4, 4, 8]), {"degree_cap": 36}),
    (((1, 1, 1), 7, 1, [2, 4, 2, 6]), {}),
]


@pytest.mark.parametrize("run", SCHEDULES, ids=lambda run: "-".join(map(str, run[0][3])))
def test_repeated_and_falling_cutoffs_match_reference_at_every_prefix(run):
    (nu, r, k, schedule), caps = run
    for stop in range(1, len(schedule) + 1):
        assert pipeline(nu, r, k, schedule[:stop], **caps) == reference_pipeline(nu, r, k, schedule[:stop], **caps)


def _box(dim: int, lo, hi) -> tuple:
    """The box [lo, hi]^dim as facets a.x <= b."""
    facets = []
    for i in range(dim):
        unit = tuple(int(j == i) for j in range(dim))
        facets += [(unit, hi), (tuple(-x for x in unit), -lo)]
    return facets


def _pairs(rng: random.Random):
    """Equal and unequal polytope pairs, some with rational bounds and equations."""
    for _ in range(6):
        dim = rng.randint(1, 4)
        points = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
            for _ in range(dim + 3)
        ]
        p = hull(points)
        yield p, polytope_from_h(dim, p.equations, p.facets)
        yield p, hull(points[:-1])
        # one vertex pushed just outside its polytope
        outside = list(points)
        v = p.vertices[0]
        centre = [sum(c) / len(p.vertices) for c in zip(*p.vertices)]
        outside.append(tuple(x + (x - c) / 97 for x, c in zip(v, centre)))
        yield p, hull(outside)
    half, third = Fraction(1, 2), Fraction(1, 3)
    square = polytope_from_h(2, [], _box(2, -half, third))
    yield square, hull([(-half, -half), (-half, third), (third, -half), (third, third)])
    yield square, hull([(-half, -half), (-half, third), (third, -half), (third, Fraction(34, 100))])
    yield square, polytope_from_h(3, [], _box(3, -half, third))
    # a segment on a rational line: equations with a rational right-hand side
    segment = hull([(0, third), (1, third + 1)])
    yield segment, polytope_from_h(2, segment.equations, segment.facets)
    yield segment, hull([(0, third), (1, third + Fraction(101, 100))])
    # two infeasible systems are both empty, so equal; the empty set is not a point
    empty = polytope_from_h(2, [], _box(2, third, -half))
    yield empty, polytope_from_h(2, [((1, 1), 1)], _box(2, 1, 0))
    yield empty, hull([(0, 0)])


def test_polytopes_equal_matches_reference():
    outcomes = []
    for p, q in _pairs(random.Random(11)):
        got = polytopes_equal(p, q)
        assert got == reference_polytopes_equal(p, q) == polytopes_equal(q, p), (p, q)
        outcomes.append(got)
    assert True in outcomes and False in outcomes


def test_every_built_polytope_carries_its_exact_vertex_set():
    # polytopes_equal compares vertex sets, so each one must be exactly the
    # polytope's vertices: strictly increasing, and all of them extreme
    polys = [poly for pair in _pairs(random.Random(11)) for poly in pair]
    for name in ("c4", "c6"):
        (nu, r, k, schedule), caps = RUNS[name]
        polys.append(pipeline(nu, r, k, schedule, **caps)["polytope"])
    assert any(not poly.vertices for poly in polys)
    for poly in polys:
        vertices = poly.vertices
        assert all(a < b for a, b in zip(vertices, vertices[1:])), poly
        if vertices:
            assert reference_hull(vertices).vertices == vertices, poly


def _table_closure(name: str, drop_first: bool = False):
    """The hull of a vertex table's points and the H description of its inequality table."""
    table = coefficient_table(name)
    n, r = size(table["nu"]), table["r"]
    points = []
    for row in vertex_table(name)["rows"]:
        ratio = row["ratio"]
        points.append(tuple(Fraction(n * x, sum(ratio)) for x in ratio))
    traces, walls = _ambient_system(r, n, 1)
    rows = [(row["lambda_coeffs"], row["bound"]) for row in table["rows"]]
    return hull(points), polytope_from_h(r, traces, [*walls, *(rows[1:] if drop_first else rows)])


@pytest.mark.parametrize("name", VERTEX_TABLES)
def test_vertex_and_inequality_tables_cut_out_the_same_polytope(name):
    inner, outer = _table_closure(name)
    assert polytopes_equal(inner, outer) and reference_polytopes_equal(inner, outer)
    inner, outer = _table_closure(name, drop_first=True)
    assert not polytopes_equal(inner, outer) and not reference_polytopes_equal(inner, outer)
