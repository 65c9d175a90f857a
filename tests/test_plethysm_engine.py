"""The Cauchy-form lattice engine against the dict engine it replaced.

The reference (tests/oracles.py) builds every Schur functor S_mu(S_nu C^r)
by a Jacobi-Trudi determinant of weight dicts and decomposes it by peeling;
the package builds Sym^m(S_nu C^r (x) C^k) by one Newton recurrence on dense
arrays and decomposes each degree by a Weyl alternation.  Both must agree
exactly, degree by degree.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from oracles import (
    cauchy_components,
    cauchy_points,
    reference_inner_points,
    reference_free_columns,
    reference_orbit,
    reference_schur_decompose,
    reference_signed_delta_orbit,
    weyl_dimension,
)
from paulitope import plethysm
from paulitope.plethysm import (
    LatticeCharacter,
    character,
    inner_points,
    plethysm_h_series,
    schur_decompose,
)

SHAPES = [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]
GRID = [(nu, r) for nu in SHAPES for r in range(1, 6) if len(nu) <= r]
RANKS = (1, 2, 3)
M_MAX = 4


@lru_cache(maxsize=None)
def _reference(nu, r):
    """Per-degree (lam, mu) components for every mu with at most max(RANKS) rows."""
    return cauchy_components(nu, r, max(RANKS), M_MAX)


def _restricted(nu, r, k):
    """The reference components of Sym^m(S_nu C^r (x) C^k): mu with at most k rows."""
    out = []
    for degree in _reference(nu, r):
        kept = {(lam, mu): c for (lam, mu), c in degree.items() if len(mu) <= k}
        out.append({lam: c for (lam, _), c in kept.items()} if k == 1 else kept)
    return out


@pytest.mark.parametrize("nu,r", GRID, ids=[f"nu{''.join(map(str, nu))}-r{r}" for nu, r in GRID])
def test_engine_matches_dict_engine(nu, r):
    for k in RANKS:
        expected = _restricted(nu, r, k)
        series = plethysm_h_series(M_MAX, character(nu, r), k)
        for m in range(1, M_MAX + 1):
            assert schur_decompose(series[m]) == expected[m], (k, m)
            assert reference_schur_decompose(series[m]) == expected[m], (k, m)
        for m_cap in range(1, M_MAX + 1):
            got = inner_points(nu, r, k, m_cap)
            assert got == cauchy_points(expected, r, k, m_cap), (k, m_cap)
            assert got == reference_inner_points(nu, r, k, m_cap), (k, m_cap)


def test_reference_is_the_unrestricted_dict_engine():
    # the restriction to at most k rows equals running the dict engine at rank k
    assert _restricted((2, 1), 3, 2) == cauchy_components((2, 1), 3, 2, M_MAX)
    assert _restricted((1, 1), 4, 1) == cauchy_components((1, 1), 4, 1, M_MAX)


def test_entry_dtype_switches_exactly_above_int64():
    assert plethysm._entry_dtype(2**63 - 1) is np.int64
    assert plethysm._entry_dtype(2**63) is object


def test_series_dtype_follows_the_entry_bound(monkeypatch):
    # f = C^2, k = 1: degree m is bounded by m * C(m + 1, m) * |S_2| = 2m(m + 1)
    f = character((1,), 2)
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", 12)
    dtypes = [term.array.dtype for term in plethysm_h_series(3, f)]
    assert dtypes == [np.int64, np.int64, np.int64, object]


def test_python_int_run_equals_int64_run(monkeypatch):
    f = character((2, 1), 3)
    fast = plethysm_h_series(3, f, 2)
    fast_points = inner_points((2, 1), 3, 2, 3)
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", 0)
    slow = plethysm_h_series(3, f, 2)
    assert all(term.array.dtype == object for term in slow[1:])
    for a, b in zip(fast, slow):
        assert a.weights == b.weights
        assert schur_decompose(a) == schur_decompose(b)
    assert inner_points((2, 1), 3, 2, 3) == fast_points
    # the layout of a sparse character switches too
    square = character((1,), 3) * character((1,), 3)
    assert [term.array.dtype for term in plethysm._lattice_degrees(square)] == [object]
    assert schur_decompose(square) == reference_schur_decompose(square) == {(2,): 1, (1, 1): 1}


def test_lattice_weights_are_the_complete_weight_multiset():
    f = character((1,), 2)
    h2 = plethysm_h_series(2, f, 2)[2]
    assert h2.groups == (2, 2) and h2.totals == (2, 2)
    # Sym^2(C^2 (x) C^2) = S_2 (x) S_2 + S_11 (x) S_11, 10-dimensional
    assert sum(h2.weights.values()) == 10
    assert h2.weights[(1, 1, 1, 1)] == 2
    assert schur_decompose(h2) == {((2,), (2,)): 1, ((1, 1), (1, 1)): 1}


def test_lattice_decompose_rejects_non_characters():
    # weights (0,2), (1,1), (2,0) with multiplicities 2, 1, 2: (1,1) gets 1 - 2
    bad = LatticeCharacter((2,), (2,), np.array([2, 1, 2], dtype=np.int64))
    with pytest.raises(ValueError, match="negative multiplicity"):
        schur_decompose(bad)
    lopsided = LatticeCharacter((2,), (1,), np.array([0, 1], dtype=np.int64))
    with pytest.raises(ValueError, match="dimensions"):
        schur_decompose(lopsided)
    # Sym^3 C^3 with the multiplicity of the weight (0, 0, 3) bumped to 2
    h3 = plethysm_h_series(3, character((1,), 3))[3]
    bumped = h3.array.copy()
    bumped[0, 0] += 1
    with pytest.raises(ValueError, match="component dimensions do not sum"):
        schur_decompose(LatticeCharacter(h3.groups, h3.totals, bumped))


ORBIT_GROUPS = [(g,) for g in range(1, 9)] + [(4, 2), (3, 3), (2, 2, 2), (5, 2), (4, 3)]


@pytest.mark.parametrize("groups", ORBIT_GROUPS, ids=map(str, ORBIT_GROUPS))
def test_orbit_table_matches_the_itertools_table_row_for_row(groups):
    perms, signs = plethysm._orbit(groups)
    # the numpy-built table the package had before, value for value
    for got, frozen in zip((perms, signs), reference_orbit(groups)):
        assert got.dtype == frozen.dtype and got.shape == frozen.shape
        assert np.array_equal(got, frozen)
        assert got.flags.writeable == frozen.flags.writeable
    want_offsets, want_signs = reference_signed_delta_orbit(groups)
    # on free axis i of a group, delta_i - delta_pi(i) = pi(i) - i
    want = want_offsets[:, reference_free_columns(groups)]
    index = np.array([i for g in groups for i in range(g - 1)], dtype=np.int64)
    assert perms.dtype == want_offsets.dtype and signs.dtype == want_signs.dtype
    assert perms.shape == want.shape
    assert np.array_equal(perms - index, want) and np.array_equal(signs, want_signs)
    assert not perms.flags.writeable and not signs.flags.writeable


def _random_partitions(rng, r: int, count: int) -> np.ndarray:
    """Rows of r weakly decreasing parts in 0..12, as complete coordinates."""
    parts = rng.integers(0, 13, size=(count, r))
    return -np.sort(-parts, axis=1)


@pytest.mark.parametrize("r", range(1, 9))
def test_weyl_dimensions_match_weyl_dimension(r, monkeypatch):
    rng = np.random.default_rng(r)
    rows = _random_partitions(rng, r, 40)
    want = [weyl_dimension(row, r) for row in rows.tolist()]
    fast = plethysm._weyl_dimensions(rows, (r,))
    # the numerator bound is (12 + r - 1)^C(r, 2): 17^15 fits int64, 18^21
    # does not, and for r = 8 even 7^28, with all parts equal, does not
    assert fast.dtype == (object if r >= 7 else np.int64)
    assert fast.tolist() == want
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", 0)
    slow = plethysm._weyl_dimensions(rows, (r,))
    assert slow.dtype == object and slow.tolist() == want
    # two groups multiply their dimensions
    pairs = np.concatenate([rows, _random_partitions(rng, 3, 40)], axis=1)
    both = plethysm._weyl_dimensions(pairs, (r, 3))
    assert both.tolist() == [a * weyl_dimension(mu, 3) for a, mu in zip(want, pairs[:, r:].tolist())]


def test_series_rejects_inhomogeneous_and_bad_rank():
    mixed_degree = character((1,), 2) + character((2,), 2)
    with pytest.raises(ValueError):
        plethysm_h_series(2, mixed_degree)
    with pytest.raises(ValueError):
        plethysm_h_series(2, character((1,), 2), 0)
