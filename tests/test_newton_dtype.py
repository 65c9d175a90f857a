"""The integer type of each Newton degree, read from the degrees built before it.

``_newton_step`` stores degree m as int32 when B_m = dim(f (x) C^k) times
max h_0 + ... + max h_{m-1} is at most ``_INT32_LIMIT`` (and
``_INT64_LIMIT``), as int64 when it is at most ``_INT64_LIMIT``, and as
Python ints otherwise.  ``_decompose_lattice`` sums a degree's Weyl
alternation in int64 when |W| times its largest entry fits ``_INT64_LIMIT``,
and in Python ints otherwise.  numpy wraps both integer types silently, and
no degree the package builds comes near 2^31, so a bound that is too small
shows only as a wrong dtype where the type changes: the limits are patched
to a degree's own bound and to one below it.  The reference series is
``sweep_h_series`` (tests/oracles.py), which keeps the a-priori int64 bound;
the rule's dtypes are read from its arrays (``newton_dtypes``).
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb, factorial, prod

import numpy as np
import pytest

from oracles import (
    alternation_dtype,
    newton_bounds,
    newton_dtypes,
    reference_direct_block,
    reference_dominant_flat,
    sweep_h_series,
)
from paulitope import plethysm, polytope
from paulitope.plethysm import LatticeCharacter, character, plethysm_h_series, schur_decompose
from test_plethysm_engine import GRID, M_MAX, RANKS

INT32, INT64, OBJECT = np.dtype(np.int32), np.dtype(np.int64), np.dtype(object)
ACCEPTANCE = {"c6-M12": ((2, 1), 4, 2, 12), "4x8-M7": ((1, 1, 1, 1), 8, 1, 7)}
# the two systems whose limits are patched, to degree 8
SWITCHED = {"c4": ((1, 1, 1), 6, 1), "c6": ((2, 1), 4, 2)}
PIPELINES = {
    "c4": (((1, 1, 1), 6, 1, [2, 4]), {}),
    "mixed-r4-m8": (((2, 1), 4, 2, [4, 8]), {"degree_cap": 36}),
}
_REFERENCES: dict = {}


def _reference(nu, r, k, m_max):
    """The reference series to ``m_max``, built once per system and run."""
    key = (nu, r, k, m_max)
    if key not in _REFERENCES:
        _REFERENCES[key] = tuple(sweep_h_series(m_max, character(nu, r), k))
    return _REFERENCES[key]


def _forced(monkeypatch, pruned: bool, term: LatticeCharacter):
    """``_decompose_lattice(term)`` with the route forced."""
    with monkeypatch.context() as patch:
        patch.setattr(plethysm, "_takes_pruned_route", lambda order: pruned)
        return plethysm._decompose_lattice(term)


def _assert_reference_values(got, want) -> None:
    assert len(got) == len(want)
    for m, (a, b) in enumerate(zip(got, want)):
        assert (a.groups, a.totals, a.array.shape) == (b.groups, b.totals, b.array.shape), m
        assert a.array.flags.c_contiguous and not a.array.flags.writeable, m
        assert np.array_equal(a.array, b.array) and a.peak == b.peak, m


def _assert_rule(nu, r, k, m_max) -> list:
    """The package's series, checked against the reference and the rule; returns its dtypes."""
    want = _reference(nu, r, k, m_max)
    got = plethysm_h_series(m_max, character(nu, r), k)
    _assert_reference_values(got, want)
    assert [a.array.dtype for a in got] == newton_dtypes(want)
    for a, b in zip(got[1:], want[1:]):
        assert plethysm._decompose_lattice(a)[1].dtype == alternation_dtype(b)
    return [a.array.dtype for a in got]


@pytest.mark.parametrize("nu,r", GRID, ids=[f"nu{''.join(map(str, nu))}-r{r}" for nu, r in GRID])
def test_the_engine_grid_takes_the_rule_dtype_and_the_reference_values(nu, r):
    for k in RANKS:
        _assert_rule(nu, r, k, M_MAX)


@pytest.mark.parametrize("name", sorted(ACCEPTANCE))
def test_the_acceptance_systems_take_the_rule_dtype_and_the_reference_values(name):
    # every degree above 0 is int32 on them
    assert set(_assert_rule(*ACCEPTANCE[name])[1:]) == {INT32}


def _dtypes(*runs: tuple[np.dtype, int]) -> list:
    """Degree 0's int64, then each (dtype, count) run of degrees in turn."""
    return [INT64] + [dtype for dtype, count in runs for _ in range(count)]


@pytest.mark.parametrize("name", sorted(SWITCHED))
@pytest.mark.parametrize("pivot", [1, 4])
def test_int32_gives_way_to_int64_exactly_past_the_bound(name, pivot, monkeypatch):
    nu, r, k = SWITCHED[name]
    want = _reference(nu, r, k, 8)
    bound = newton_bounds(want)[pivot]
    for limit, last32 in ((bound, pivot), (bound - 1, pivot - 1), (0, 0)):
        monkeypatch.setattr(plethysm, "_INT32_LIMIT", limit)
        got = plethysm_h_series(8, character(nu, r), k)
        assert [a.array.dtype for a in got] == _dtypes((INT32, last32), (INT64, 8 - last32)), limit
        assert newton_dtypes(want) == _dtypes((INT32, last32), (INT64, 8 - last32)), limit
        _assert_reference_values(got, want)


@pytest.mark.parametrize("name", sorted(SWITCHED))
def test_a_series_runs_in_int32_then_int64_then_python_ints(name, monkeypatch):
    nu, r, k = SWITCHED[name]
    want = _reference(nu, r, k, 8)
    bounds = newton_bounds(want)
    monkeypatch.setattr(plethysm, "_INT32_LIMIT", bounds[3])
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", bounds[6])
    got = plethysm_h_series(8, character(nu, r), k)
    assert [a.array.dtype for a in got] == _dtypes((INT32, 3), (INT64, 3), (OBJECT, 2))
    _assert_reference_values(got, want)


@pytest.mark.parametrize("name", sorted(SWITCHED))
def test_an_extended_series_crosses_each_change_of_dtype(name, monkeypatch):
    nu, r, k = SWITCHED[name]
    want = _reference(nu, r, k, 8)
    bounds = newton_bounds(want)
    f = character(nu, r)
    series: list = []
    plethysm_h_series(3, f, k, series=series)
    # degrees 5 and 6 place int32 degrees into int64 accumulators
    monkeypatch.setattr(plethysm, "_INT32_LIMIT", bounds[4])
    plethysm_h_series(6, f, k, series=series)
    # degrees 7 and 8 place int32 and int64 degrees into Python-int ones
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", bounds[7] - 1)
    got = plethysm_h_series(8, f, k, series=series)
    assert [a.array.dtype for a in got] == _dtypes((INT32, 4), (INT64, 2), (OBJECT, 2))
    _assert_reference_values(got, want)


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_reports_do_not_depend_on_where_int32_ends(name, monkeypatch):
    (nu, r, k, schedule), caps = PIPELINES[name]
    want = polytope.pipeline(nu, r, k, schedule, **caps)
    bound = newton_bounds(plethysm_h_series(max(schedule), character(nu, r), k))[schedule[0]]
    for limit in (bound, bound - 1, 0):
        monkeypatch.setattr(plethysm, "_INT32_LIMIT", limit)
        assert polytope.pipeline(nu, r, k, schedule, **caps) == want, limit


@pytest.mark.parametrize("nu,r,k", [((1, 1, 1), 6, 1), ((2, 1), 4, 2)], ids=["c4", "c6"])
def test_a_zero_int64_limit_forces_python_ints_everywhere(nu, r, k, monkeypatch):
    fast = plethysm_h_series(5, character(nu, r), k)
    want = [plethysm._decompose_lattice(term) for term in fast[1:]]
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", 0)
    slow = plethysm_h_series(5, character(nu, r), k)
    assert [a.array.dtype for a in slow] == _dtypes((OBJECT, 5))
    _assert_reference_values(slow, fast)
    for term, (want_rows, want_sums) in zip(slow[1:], want):
        for pruned in (False, True):
            rows, sums = _forced(monkeypatch, pruned, term)
            assert sums.dtype == OBJECT and want_sums.dtype == INT64
            assert np.array_equal(rows, want_rows) and sums.tolist() == want_sums.tolist()
    assert [schur_decompose(a) for a in slow[1:]] == [schur_decompose(a) for a in fast[1:]]


@pytest.mark.parametrize("pruned", [False, True], ids=["direct", "pruned"])
def test_the_sums_take_python_ints_exactly_past_w_times_the_peak(pruned, monkeypatch):
    terms = plethysm_h_series(4, character((2, 1), 4), 2)[1:] + plethysm_h_series(4, character((1, 1, 1), 6))[1:]
    for term in terms:
        want_rows, want = _forced(monkeypatch, pruned, term)
        bound = prod(factorial(g) for g in term.groups) * term.peak
        for limit, dtype in ((bound, INT64), (bound - 1, OBJECT)):
            monkeypatch.setattr(plethysm, "_INT64_LIMIT", limit)
            assert alternation_dtype(term) == dtype
            rows, sums = _forced(monkeypatch, pruned, term)
            assert sums.dtype == dtype and np.array_equal(rows, want_rows)
            assert sums.tolist() == want.tolist()
        monkeypatch.undo()


def test_a_python_int_degree_whose_peak_fits_sums_in_int64(monkeypatch):
    fast = plethysm_h_series(4, character((2, 1), 4), 2)
    with monkeypatch.context() as patch:
        patch.setattr(plethysm, "_INT64_LIMIT", 0)
        slow = plethysm_h_series(4, character((2, 1), 4), 2)
    for a, b in zip(slow[1:], fast[1:]):
        assert a.array.dtype == OBJECT
        for pruned in (False, True):
            (rows, sums), (want_rows, want) = _forced(monkeypatch, pruned, a), _forced(monkeypatch, pruned, b)
            assert sums.dtype == INT64 and np.array_equal(rows, want_rows) and sums.tolist() == want.tolist()


def _even_orbit(lam: tuple[int, ...], value: int) -> LatticeCharacter:
    """A GL_g array, not a character, holding ``value`` on lam + delta - w(delta) for every even w.

    Its alternation sum at lam is then g!/2 times ``value``; lam_g >= g - 1
    keeps every such weight nonnegative.
    """
    g = len(lam)
    delta = range(g - 1, -1, -1)
    weights = [
        [part + d - delta[p] for part, d, p in zip(lam, delta, perm)]
        for perm in permutations(range(g))
        if sum(perm[i] > perm[j] for i, j in combinations(range(g), 2)) % 2 == 0
    ]
    free = np.array(weights)[:, :-1]
    array = np.zeros(tuple((free.max(axis=0) + 1).tolist()), dtype=np.int32)
    array[tuple(free.T)] = value
    return LatticeCharacter((g,), (sum(lam),), array)


@pytest.mark.parametrize("pruned", [False, True], ids=["direct", "pruned"])
@pytest.mark.parametrize("g", [3, 4, 5])
def test_sums_of_int32_entries_past_int32_are_exact(g, pruned, monkeypatch):
    # int32 arithmetic would wrap the sum g!/2 (2^31 - 1) at lam; int64 does not
    limit = int(np.iinfo(np.int32).max)
    lam = tuple(range(2 * g - 1, g - 1, -1))
    term = _even_orbit(lam, limit)
    rows, sums = _forced(monkeypatch, pruned, term)
    strides = np.array(plethysm._strides(term.array.shape), dtype=np.int64)
    free = term._free_coordinates(reference_dominant_flat(term))
    want = reference_direct_block(free, (g,), term.array.shape, strides, term.array.ravel().astype(object))
    assert sums.dtype == INT64 and sums.tolist() == want.tolist()
    assert dict(zip(map(tuple, rows.tolist()), sums.tolist()))[lam] == factorial(g) // 2 * limit


def test_an_int64_degree_whose_dimension_passes_int64_checks_it_exactly():
    # Sym^m(S_8 C^3) has dimension C(44 + m, m), past int64 from m = 26,
    # while B_m still keeps those degrees in int64: their sums must not wrap
    series = plethysm_h_series(29, character((8,), 3))
    for m in range(26, 30):
        assert series[m].array.dtype == INT64 and comb(44 + m, m) > plethysm._INT64_LIMIT
        assert series[m].dimension() == comb(44 + m, m)


def test_the_dimension_is_exact_past_int64():
    big = LatticeCharacter((2,), (2,), np.full(3, 1 << 62, dtype=np.int64))
    assert big.peak == 1 << 62 and big.dimension() == 3 << 62
    assert LatticeCharacter((2,), (1,), np.array([-5, 3], dtype=np.int32)).peak == 5
