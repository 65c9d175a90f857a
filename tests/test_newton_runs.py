"""The Newton step on contiguous runs against the strided sweep it replaced.

The package merges the accumulator's trailing axes into one run, places
h_{m-j} at the run's strides and adds each weight's shift as one flat
slice; the reference (``sweep_h_series`` in tests/oracles.py) adds every
shift as a strided slice over all axes of the box.  Every degree must come
out the same: values, dtype, shape, totals, groups and the read-only flag.
Each test runs with the run length ``_MERGED_RUN`` at both extremes (no
merge, every axis merged) and at its default, and one test forces every
number of kept axes in turn.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from oracles import sweep_h_series
from paulitope import plethysm
from paulitope.plethysm import LatticeCharacter, character, plethysm_h_series
from paulitope.polynomials import SparsePoly
from test_plethysm_engine import GRID, M_MAX, RANKS

MERGED_RUNS = {"no-merge": 0, "default": plethysm._MERGED_RUN, "all-axes": 1 << 62}


@pytest.fixture(params=list(MERGED_RUNS), autouse=True)
def merged_run(request, monkeypatch):
    monkeypatch.setattr(plethysm, "_MERGED_RUN", MERGED_RUNS[request.param])
    return request.param


@lru_cache(maxsize=None)
def _reference(nu, r, k, m_max):
    return tuple(sweep_h_series(m_max, character(nu, r), k))


def _assert_same_degrees(got, want):
    assert len(got) == len(want)
    for m, (a, b) in enumerate(zip(got, want)):
        assert a.groups == b.groups and a.totals == b.totals, m
        assert a.array.dtype == b.array.dtype and a.array.shape == b.array.shape, m
        assert a.array.flags.c_contiguous and not a.array.flags.writeable, m
        assert np.array_equal(a.array, b.array), m


@pytest.mark.parametrize("nu,r", GRID, ids=[f"nu{''.join(map(str, nu))}-r{r}" for nu, r in GRID])
def test_runs_equal_the_sweep_on_the_engine_grid(nu, r):
    for k in RANKS:
        got = plethysm_h_series(M_MAX, character(nu, r), k)
        _assert_same_degrees(got, _reference(nu, r, k, M_MAX))


@pytest.mark.parametrize(
    "nu,r,k,m_max",
    [((2, 1), 4, 2, 12), ((1, 1, 1), 7, 1, 8), ((1, 1, 1, 1), 8, 1, 7)],
    ids=["c6-M12", "c5-M8", "4x8-M7"],
)
def test_runs_equal_the_sweep_on_the_acceptance_systems(nu, r, k, m_max):
    _assert_same_degrees(plethysm_h_series(m_max, character(nu, r), k), _reference(nu, r, k, m_max))


# shape -> kept axes at the default run length, 4,096: the fermion-r7-m5 box at
# degree 5, c5's at degree 8, c6's at degree 12, Lambda^4 C^8's at degree 10,
# a box smaller than one run, and the one-level box of no axes
KEPT_AT_DEFAULT = {
    (6,) * 6: 1,
    (9,) * 6: 2,
    (25, 25, 25, 13): 1,
    (11,) * 7: 3,
    (3, 3): 0,
    (): 0,
}


def test_the_run_merges_trailing_axes_until_it_holds_merged_run_entries(merged_run):
    assert plethysm._MERGED_RUN == MERGED_RUNS[merged_run] and MERGED_RUNS["default"] == 4096
    for shape, kept in KEPT_AT_DEFAULT.items():
        want = {"no-merge": max(len(shape) - 1, 0), "default": kept, "all-axes": 0}[merged_run]
        assert plethysm._kept_axes(shape) == want, shape


@pytest.mark.parametrize(
    "nu,r,k,m_max", [((2, 1), 4, 2, 8), ((1, 1, 1), 6, 1, 6), ((2, 1), 3, 3, 5)]
)
def test_every_number_of_kept_axes_equals_the_sweep(monkeypatch, nu, r, k, m_max):
    want = _reference(nu, r, k, m_max)
    for lead in range(r + k - 2):
        monkeypatch.setattr(plethysm, "_kept_axes", lambda shape, lead=lead: lead)
        _assert_same_degrees(plethysm_h_series(m_max, character(nu, r), k), want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_zero_character_and_a_degree_zero_one(k):
    for f in (SparsePoly.zero(3), SparsePoly(3, {(0, 0, 0): 1})):
        _assert_same_degrees(plethysm_h_series(4, f, k), sweep_h_series(4, f, k))


def test_python_int_run_equals_the_sweep(monkeypatch):
    f = character((2, 1), 3)
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", 0)
    for k in (1, 2):
        got = plethysm_h_series(5, f, k)
        assert all(term.array.dtype == object for term in got[1:])
        _assert_same_degrees(got, sweep_h_series(5, f, k))


def test_extended_series_equals_the_sweep():
    f = character((2, 1), 4)
    series: list = []
    for m_cap in (2, 5, 3, 7):
        plethysm_h_series(m_cap, f, 2, series=series)
    _assert_same_degrees(series, _reference((2, 1), 4, 2, 7))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "scale,message",
    [(2, "does not divide exactly at degree 2"), (3, "degree 2 has dimension")],
)
def test_a_patched_non_character_raises_in_both_steps(monkeypatch, k, scale, message):
    # as in test_newton_sweep: degree 1 times 2 leaves 2 h_2 odd where f has
    # an odd multiplicity; times 3 divides exactly but gives the wrong count
    f = character((2, 1), 3)
    h0, h1 = plethysm_h_series(1, f, k)
    patched = LatticeCharacter(h1.groups, h1.totals, scale * h1.array)
    with pytest.raises(ArithmeticError, match=message):
        sweep_h_series(2, f, k, series=[h0, patched])
    monkeypatch.setattr(plethysm, "_require_same_series", lambda *args: None)
    with pytest.raises(ArithmeticError, match=message):
        plethysm_h_series(2, f, k, series=[h0, patched])
