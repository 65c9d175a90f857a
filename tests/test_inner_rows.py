"""Integer hull rows straight from ``inner_points``, against the Fraction path and the key route.

``inner_points(rows=True)`` builds the hull's row matrix degree by degree,
one primitive row (m, lam, mu) / gcd per component, and ``hull(matrix,
rows=True)`` hands that matrix to the double description unread.  Both must
give exactly what the Fraction points give through
``polytope._row_matrix(coords, dim, lead=True)`` and ``hull(coords)``, and
what the former key route gives (every point times lcm(1..M) as a tuple,
read back by ``_key_rows``, both in tests/oracles.py): the same rows in the
same order and dtype, and the same ``Polytope``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from oracles import _key_rows, key_inner_rows, reference_pipeline
from paulitope import plethysm, polytope
from paulitope.plethysm import _hull_rows, inner_points
from paulitope.polytope import hull, pipeline

# (nu, r, rank bound), caps, top cutoff: every cutoff 1..top is checked
SYSTEMS = {
    "c4": (((1, 1, 1), 6, 1), {}, 4),
    "fermion-r7-m5": (((1, 1, 1), 7, 1), {}, 5),
    "mixed-r4-m8": (((2, 1), 4, 2), {"degree_cap": 36}, 8),
    "c6": (((2, 1), 4, 2), {"degree_cap": 36}, 12),
    "lambda4-c8": (((1, 1, 1, 1), 8, 1), {}, 6),
}


def _coords(points, rank_bound):
    return [lam + mu if rank_bound > 1 else lam for lam, mu in points]


def _fraction_matrix(system, caps, m_cap, series=None):
    """The rows and hull dimension of the Fraction path: the points, then ``_row_matrix``."""
    coords = _coords(inner_points(*system, m_cap, **caps, series=series), system[2])
    dim = system[1] + (system[2] if system[2] > 1 else 0)
    return polytope._row_matrix(coords, dim, lead=True), coords


def assert_same_matrix(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()
    if got.dtype == object:
        assert all(type(x) is int for x in got.flat)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_rows_and_hull_equal_the_fraction_path_at_every_cutoff(name):
    system, caps, top = SYSTEMS[name]
    series: list = []
    for m_cap in range(1, top + 1):
        got = inner_points(*system, m_cap, **caps, series=series, rows=True)
        want, coords = _fraction_matrix(system, caps, m_cap, series)
        assert_same_matrix(got, want)
        assert_same_matrix(got, key_inner_rows(*system, m_cap, **caps, series=series))
        assert hull(got, rows=True) == hull(coords)


def test_no_cutoff_gives_an_empty_matrix_of_the_hull_width():
    for system, caps, _ in SYSTEMS.values():
        got = inner_points(*system, 0, **caps, rows=True)
        assert_same_matrix(got, _fraction_matrix(system, caps, 0)[0])
        assert_same_matrix(got, key_inner_rows(*system, 0, **caps))


def _row_bound(coords) -> int:
    """``_row_matrix``'s dtype bound: max(1, max|numerator|) * lcm(denominators)."""
    entries = [Fraction(x) for point in coords for x in point]
    return max(1, *(abs(x.numerator) for x in entries)) * lcm(*(x.denominator for x in entries))


@pytest.mark.parametrize("name", ["c4", "mixed-r4-m8"])
def test_rows_past_a_patched_int64_limit_are_python_ints(monkeypatch, name):
    # on these systems only a patched limit sends the rows past int64
    system, caps, _ = SYSTEMS[name]
    schedule = [2, 4]
    report = pipeline(*system, schedule, **caps)
    bound = _row_bound(_fraction_matrix(system, caps, 4)[1])
    for limit, dtype in ((bound, np.int64), (bound - 1, object), (0, object)):
        monkeypatch.setattr(plethysm, "_INT64_LIMIT", limit)
        got = inner_points(*system, 4, **caps, rows=True)
        want = _fraction_matrix(system, caps, 4)[0]
        assert got.dtype == dtype
        assert_same_matrix(got, want)
        assert_same_matrix(got, key_inner_rows(*system, 4, **caps))
        assert pipeline(*system, schedule, **caps) == report


@pytest.mark.parametrize("system, m_cap, dtype", [(((1,), 2, 1), 43, np.int64), (((1,), 2, 2), 44, object)])
def test_keys_past_int64_on_a_small_system(system, m_cap, dtype):
    # lcm(1..43) is past 2^63, so the keys are; the single rank-1 point (1, 0)
    # still gives an int64 row, while the rank-2 denominators up to 44 do not fit
    caps = {"degree_cap": m_cap}
    got = inner_points(*system, m_cap, **caps, rows=True)
    want, coords = _fraction_matrix(system, caps, m_cap)
    assert got.dtype == dtype
    assert_same_matrix(got, want)
    assert_same_matrix(got, key_inner_rows(*system, m_cap, **caps))
    assert hull(got, rows=True) == hull(coords)
    assert pipeline(*system, [m_cap], **caps) == reference_pipeline(*system, [m_cap], **caps)


def test_keys_read_as_python_ints_can_still_give_an_int64_matrix(monkeypatch):
    # the points (1, 0) and (1/2, 1/2) with scale 12: the largest key entry
    # is 12, but the rows (1, 1, 0) and (2, 1, 1) only need a bound of 2
    keys = {(12, 0, 12), (6, 6, 12)}
    coords = [(Fraction(x, 12), Fraction(y, 12)) for x, y, _ in keys]
    for limit in range(14):
        monkeypatch.setattr(plethysm, "_INT64_LIMIT", limit)
        got = _key_rows(keys, 12, 2)
        assert got.dtype == (np.int64 if limit >= 2 else object)
        assert_same_matrix(got, polytope._row_matrix(coords, 2, lead=True))


def test_degree_rows_take_the_dtype_of_the_key_route(monkeypatch):
    # the same points from their degrees: (1, 0) of degree 1, and (1, 1) of
    # degree 2, which is (1/2, 1/2) and also (2, 2) of degree 4; the rows
    # are built in int64 and only then follow the bound of 2
    degrees = [{(1,): 1}, {(1, 1): 1}, {}, {(2, 2): 1, (4,): 1}]
    keys = {(12, 0, 12), (6, 6, 12)}
    for limit in range(14):
        monkeypatch.setattr(plethysm, "_INT64_LIMIT", limit)
        got = _hull_rows(degrees, 2, 1)
        assert got.dtype == (np.int64 if limit >= 2 else object)
        assert_same_matrix(got, _key_rows(keys, 12, 2))


def test_an_array_of_plain_points_keeps_its_meaning():
    coords = _fraction_matrix(*SYSTEMS["c4"][:2], 4)[1]
    scaled = np.array([[int(12 * x) for x in point] for point in coords], dtype=np.int64)
    # without the flag the rows of an array are points, here 12 times the originals
    want = hull([tuple(12 * x for x in point) for point in coords])
    assert hull(scaled) == want
    assert hull(scaled.astype(float)) == want


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.array([[1.0, 0.5], [2.0, 1.0]]), "float64 entries"),
        (np.array([[1, Fraction(1, 2)]], dtype=object), "object entries"),
        (np.array([1, 2, 3]), r"nonempty 2-D array, not shape \(3,\)"),
        (np.ones((2, 2, 2), dtype=np.int64), r"nonempty 2-D array, not shape \(2, 2, 2\)"),
        ([[1, 0], [1, 1]], "nonempty 2-D array, not list"),
        (np.zeros((0, 3), dtype=np.int64), r"nonempty 2-D array, not shape \(0, 3\)"),
        (np.zeros((3, 0), dtype=np.int64), r"nonempty 2-D array, not shape \(3, 0\)"),
        (np.array([[1, 0], [0, 1]]), "row 1 of the row matrix has lead entry 0"),
        (np.array([[-2, 1], [1, 1]], dtype=object), "row 0 of the row matrix has lead entry -2"),
    ],
    ids=["float", "fraction", "1-d", "3-d", "list", "no-rows", "no-columns", "zero-lead", "negative-lead"],
)
def test_the_row_form_refuses_what_is_not_a_row_matrix(matrix, message):
    with pytest.raises(ValueError, match=message):
        hull(matrix, rows=True)
