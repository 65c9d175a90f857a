"""The factor-by-factor Newton step against the flat-product step it replaced.

The package sweeps Adams_j(f (x) C^k) h_{m-j} one tensor factor at a time:
the weights of f into a temporary, then those of C^k into the accumulator.
The reference (``flat_product_h_series`` in tests/oracles.py) shifts h_{m-j}
once per weight of the product.  Every degree must come out the same:
values, dtype, shape, totals and groups.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import flat_product_h_series
from paulitope import plethysm
from paulitope.plethysm import LatticeCharacter, character, plethysm_h_series
from paulitope.polynomials import SparsePoly
from test_plethysm_engine import GRID, M_MAX, RANKS


def _assert_same_degrees(got, want):
    assert len(got) == len(want)
    for m, (a, b) in enumerate(zip(got, want)):
        assert a.groups == b.groups and a.totals == b.totals, m
        assert a.array.dtype == b.array.dtype and a.array.shape == b.array.shape, m
        assert np.array_equal(a.array, b.array), m


@pytest.mark.parametrize("nu,r", GRID, ids=[f"nu{''.join(map(str, nu))}-r{r}" for nu, r in GRID])
def test_sweep_equals_flat_product_on_the_engine_grid(nu, r):
    f = character(nu, r)
    for k in RANKS:
        _assert_same_degrees(plethysm_h_series(M_MAX, f, k), flat_product_h_series(M_MAX, f, k))


@pytest.mark.parametrize("nu,r,k,m_max", [((2, 1), 4, 2, 12), ((1, 1), 4, 3, 6), ((2,), 2, 3, 8)])
def test_sweep_equals_flat_product_on_larger_systems(nu, r, k, m_max):
    f = character(nu, r)
    _assert_same_degrees(plethysm_h_series(m_max, f, k), flat_product_h_series(m_max, f, k))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_zero_character_keeps_its_shapes(k):
    f = SparsePoly.zero(3)
    got = plethysm_h_series(4, f, k)
    _assert_same_degrees(got, flat_product_h_series(4, f, k))
    # with no weights every cap is 0, so no degree grows past one entry
    assert all(term.array.shape == (1,) * (1 + k) for term in got)


def test_python_int_run_equals_flat_product(monkeypatch):
    f = character((2, 1), 3)
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", 0)
    for k in (1, 2):
        got = plethysm_h_series(5, f, k)
        assert all(term.array.dtype == object for term in got[1:])
        _assert_same_degrees(got, flat_product_h_series(5, f, k))


def test_extended_series_equals_flat_product():
    f = character((2, 1), 4)
    series: list = []
    for m_cap in (2, 5, 3, 7):
        plethysm_h_series(m_cap, f, 2, series=series)
    _assert_same_degrees(series, flat_product_h_series(7, f, 2))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "scale,message",
    [(2, "does not divide exactly at degree 2"), (3, "degree 2 has dimension")],
)
def test_a_patched_non_character_raises_in_both_steps(monkeypatch, k, scale, message):
    # degree 1 times 2 leaves 2 h_2 = 2 f^2 + Adams_2 f odd where f has an odd
    # multiplicity; times 3 divides exactly but gives (3 d^2 + d) / 2 weights
    f = character((2, 1), 3)
    h0, h1 = plethysm_h_series(1, f, k)
    patched = LatticeCharacter(h1.groups, h1.totals, scale * h1.array)
    with pytest.raises(ArithmeticError, match=message):
        flat_product_h_series(2, f, k, series=[h0, patched])
    monkeypatch.setattr(plethysm, "_require_same_series", lambda *args: None)
    with pytest.raises(ArithmeticError, match=message):
        plethysm_h_series(2, f, k, series=[h0, patched])
