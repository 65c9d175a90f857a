"""The pipeline's convergence decision, case by case.

``pipeline`` decides whether the inner hull I equals the outer polytope O
(the chamber cut by the matched rows) from the facet match, in four cases
(``polytope._converged``): 1, no unmatched candidate, converged; 2, I
full-dimensional with a candidate unmatched, not converged; 3, I
lower-dimensional and a chamber corner that satisfies every matched row
but breaks an equation of I, not converged; 4, otherwise O is built and
the vertex sets are compared.  The reference (tests/oracles.py) builds O
and compares at every cutoff; test_integer_pipeline.py compares the two at
every prefix of the runs here.  This file pins which case decides each
cutoff, counts the outer polytopes built, and checks the chamber's corners
against its double description.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import reference_polytopes_equal
from paulitope import polytope
from paulitope.polytope import _ambient_system, _chamber_corners, _converged, hull, pipeline, polytope_from_h
from test_integer_pipeline import RUNS

# the case that decides each cutoff the run reaches
CASES = {
    "c4": [3, 1],
    "c5": [3, 3, 2, 1],
    "c6": [2, 2, 1],
    "fermion-r7-m5": [3, 3, 2],
    "mixed-r4-m8": [2, 2],
    "lambda4-c8": [3, 3, 2],
    "lambda2-c4": [3, 4],
    "nu1-r3": [4],
    "nu2-r3": [3, 3],
    "nu11-r5-k2": [3, 2],
}


def decided_cases(nu, r, k, schedule, caps) -> tuple[list[int], int]:
    """The case that decided each cutoff of the run, and the outer polytopes built.

    Case 1 and 2 are read off the history; a lower-dimensional hull with a
    candidate unmatched is case 4 when its cutoff built an outer polytope,
    and case 3 when it did not.
    """
    built = []

    def hull_of(*args, **kwargs):
        built.append(0)
        return hull(*args, **kwargs)

    def outer_of(*args, **kwargs):
        built[-1] += 1
        return polytope_from_h(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "hull", hull_of)
        mp.setattr(polytope, "polytope_from_h", outer_of)
        history = pipeline(nu, r, k, schedule, **caps)["history"]
    assert len(built) == len(history) and set(built) <= {0, 1}
    traces = 1 if k == 1 else 2
    cases = []
    for step, outer in zip(history, built):
        if not step["unmatched"]:
            cases.append(1)
        elif step["equations"] == traces:
            cases.append(2)
        else:
            cases.append(4 if outer else 3)
        assert outer == (cases[-1] == 4)
    return cases, sum(built)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_cutoff_is_decided_by_its_case(name):
    (nu, r, k, schedule), caps = RUNS[name]
    cases, _ = decided_cases(nu, r, k, schedule, caps)
    assert cases == CASES[name]


@pytest.mark.parametrize("name", ["c4", "c5", "c6", "fermion-r7-m5", "mixed-r4-m8"])
def test_the_acceptance_and_benchmark_runs_build_no_outer_polytope(name):
    (nu, r, k, schedule), caps = RUNS[name]
    assert decided_cases(nu, r, k, schedule, caps)[1] == 0


def test_case_1_no_unmatched_candidate_converges():
    # c4 at M = 4: every facet of the hull carries a nonzero coefficient
    report = pipeline((1, 1, 1), 6, 1, [4])
    assert report["match"]["unmatched"] == [] and report["converged_at"] == 4


def test_case_2_a_full_dimensional_hull_with_an_unmatched_facet_does_not_converge():
    # mixed-r4-m8: the hull's equations are the two traces, and a facet is unmatched
    report = pipeline((2, 1), 4, 2, [4, 8], degree_cap=36)
    assert report["converged_at"] is None
    for step in report["history"]:
        assert step["equations"] == 2 and step["unmatched"] and not step["converged"]


def _outer(inner, report, r, n_particles, rank_bound):
    equations, walls = _ambient_system(r, n_particles, rank_bound)
    rows = [(e["lambda_coeffs"] + e["mu_coeffs"], e["bound"]) for e in report["matched"]]
    return polytope_from_h(inner.dim, equations, [*walls, *rows])


def test_case_3_a_corner_of_the_outer_polytope_off_the_hull_does_not_converge():
    # nu = (2) on three levels at M = 2: the hull is lower-dimensional, and a
    # chamber corner lies in the outer polytope but off the hull's affine span
    report = pipeline((2,), 3, 1, [2])
    inner, match = report["polytope"], report["match"]
    assert len(inner.equations) > 1 and match["unmatched"] and report["converged_at"] is None
    outer = _outer(inner, match, 3, 2, 1)
    witnesses = [c for c in _chamber_corners(3, 2, 1) if outer.contains(c) and not inner.contains(c)]
    assert witnesses
    for corner in witnesses:  # each breaks an equation of the hull
        assert any(sum(a * x for a, x in zip(e, corner)) != b for e, b in inner.equations)


def test_case_4_the_outer_polytope_decides_a_lower_dimensional_hull():
    # Lambda^2 C^4 at M = 2 converges with two candidates unmatched: one
    # outer polytope is built, and equals the hull
    _, built = decided_cases((1, 1), 4, 1, [2], {})
    report = pipeline((1, 1), 4, 1, [2])
    assert built == 1 and len(report["match"]["unmatched"]) == 2 and report["converged_at"] == 2


def test_case_4_can_find_the_outer_polytope_larger():
    # a hand-made match: I is the segment from (1, 0, 0) to (2/3, 1/3, 0) on
    # three levels, one particle, and only x3 <= 0 is matched; O is then the
    # segment to (1/2, 1/2, 0), whose corners both lie on I's affine span
    inner = hull([(1, 0, 0), (Fraction(2, 3), Fraction(1, 3), 0)])
    matched = {"lambda_coeffs": (0, 0, 1), "mu_coeffs": (), "bound": 0}
    report = {"matched": [matched], "unmatched": [{}], "ambient": 0}
    outer = _outer(inner, report, 3, 1, 1)
    assert outer.vertices == ((Fraction(1, 2), Fraction(1, 2), 0), (1, 0, 0))
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "polytope_from_h", lambda *args: built.append(args) or polytope_from_h(*args))
        assert _converged(inner, report, 3, 1, 1) is False
    assert len(built) == 1 and not reference_polytopes_equal(inner, outer)


@pytest.mark.parametrize("r,n_particles,rank_bound", [(7, 3, 1), (6, 3, 1), (4, 3, 2), (4, 2, 1), (5, 2, 2), (3, 1, 1)])
def test_chamber_corners_are_the_vertices_of_the_chamber(r, n_particles, rank_bound):
    equations, walls = _ambient_system(r, n_particles, rank_bound)
    d = r + (rank_bound if rank_bound > 1 else 0)
    corners = _chamber_corners(r, n_particles, rank_bound)
    assert corners == polytope_from_h(d, equations, walls).vertices
    assert len(corners) == r * rank_bound
    assert all(type(x) is Fraction for corner in corners for x in corner)


def test_the_ambient_system_and_the_wall_forms_are_built_once_per_system_and_immutable():
    polytope._ambient_system.cache_clear()
    polytope._wall_forms.cache_clear()
    pipeline((1, 1, 1), 7, 1, [2, 4, 5])  # three facet matches, two cutoffs past case 1
    assert polytope._ambient_system.cache_info().misses == 1
    assert polytope._wall_forms.cache_info().misses == 1
    equations, walls = _ambient_system(7, 3, 1)
    assert type(equations) is tuple and type(walls) is tuple
    assert all(type(a) is tuple for a, _ in equations + walls)
    forms = polytope._wall_forms(7, 3, 1)
    assert type(forms) is frozenset
    assert forms == {polytope.canonical_inequality(a, b, 7, 3) for a, b in walls}
