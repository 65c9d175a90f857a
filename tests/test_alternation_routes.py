"""The pruned Weyl alternation against the direct one, and the rule that picks between them.

``_decompose_lattice`` alternates each degree either directly, over the whole
orbit S_g1 x S_g2 ..., or by the pruned enumeration that keeps only the
orbit elements whose keys stay in the degree's array.  Forced onto every
degree, the two routes must give the same rows and multiplicities, in the
same dtype, and refuse the same non-characters with the same message.
Both routes start from the dominant weights that ``_dominant_flat``
enumerates, which must be those the former scan of the whole array found.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import reference_dominant_flat
from paulitope import plethysm
from paulitope.plethysm import LatticeCharacter, character, plethysm_h_series

SHAPES = [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]
GRID = [(nu, r) for nu in SHAPES for r in range(1, 6) if len(nu) <= r]


def _forced(monkeypatch, pruned: bool, fn, *args):
    """``fn(*args)`` with every degree sent to one route."""
    with monkeypatch.context() as patch:
        patch.setattr(plethysm, "_takes_pruned_route", lambda direct, bound: pruned)
        return fn(*args)


def _assert_routes_agree(monkeypatch, term: LatticeCharacter) -> None:
    direct_rows, direct = _forced(monkeypatch, False, plethysm._decompose_lattice, term)
    pruned_rows, pruned = _forced(monkeypatch, True, plethysm._decompose_lattice, term)
    assert np.array_equal(direct_rows, pruned_rows)
    assert direct.dtype == pruned.dtype
    assert direct.tolist() == pruned.tolist()


@pytest.mark.parametrize("nu,r", GRID, ids=[f"nu{''.join(map(str, nu))}-r{r}" for nu, r in GRID])
def test_routes_agree_on_the_engine_grid(nu, r, monkeypatch):
    for k in (1, 2, 3):
        for term in plethysm_h_series(4, character(nu, r), k)[1:]:
            _assert_routes_agree(monkeypatch, term)


@pytest.mark.parametrize(
    "nu,r,m_max", [((1, 1, 1), 7, 5), ((1, 1, 1), 8, 6), ((1, 1, 1, 1), 8, 6)], ids=str
)
def test_routes_agree_on_seven_and_eight_levels(nu, r, m_max, monkeypatch):
    for term in plethysm_h_series(m_max, character(nu, r))[1:]:
        _assert_routes_agree(monkeypatch, term)


@pytest.mark.parametrize(
    "nu,r,ks",
    [(nu, r, (1, 2, 3)) for nu, r in GRID] + [((1, 1, 1), 8, (1,)), ((1, 1, 1, 1), 8, (1,))],
    ids=[f"nu{''.join(map(str, nu))}-r{r}" for nu, r in GRID] + ["nu111-r8", "nu1111-r8"],
)
def test_dominant_weights_match_the_full_scan(nu, r, ks):
    for k in ks:
        for term in plethysm_h_series(6, character(nu, r), k):
            got = plethysm._dominant_flat(term)
            assert got.dtype == np.int64
            assert got.tolist() == reference_dominant_flat(term).tolist()


def test_dominant_weights_of_python_int_and_non_character_arrays(monkeypatch):
    for term in _non_characters():
        assert plethysm._dominant_flat(term).tolist() == reference_dominant_flat(term).tolist()
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", 0)
    for term in plethysm_h_series(4, character((2, 1), 3), 2)[1:]:
        assert term.array.dtype == object
        assert plethysm._dominant_flat(term).tolist() == reference_dominant_flat(term).tolist()


def test_routes_agree_in_python_ints(monkeypatch):
    systems = [((2, 1), 3, 2), ((1, 1, 1), 7, 1)]
    int64_runs = [plethysm_h_series(3, character(nu, r), k) for nu, r, k in systems]
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", 0)
    for (nu, r, k), int64_run in zip(systems, int64_runs):
        for fast, slow in zip(int64_run[1:], plethysm_h_series(3, character(nu, r), k)[1:]):
            assert slow.array.dtype == object
            _assert_routes_agree(monkeypatch, slow)
            rows, mults = _forced(monkeypatch, True, plethysm._decompose_lattice, slow)
            want_rows, want = _forced(monkeypatch, True, plethysm._decompose_lattice, fast)
            assert mults.dtype == object and want.dtype == np.int64
            assert np.array_equal(rows, want_rows) and mults.tolist() == want.tolist()


def _non_characters() -> list[LatticeCharacter]:
    h3 = plethysm_h_series(3, character((1, 1, 1), 7))[3]
    lowered = h3.array.copy()
    lowered[tuple(np.argwhere(lowered == lowered.max())[0])] -= 1
    bumped = h3.array.copy()
    bumped[(0,) * bumped.ndim] += 1
    return [
        # weights (0,2), (1,1), (2,0) with multiplicities 2, 1, 2: (1,1) gets 1 - 2
        LatticeCharacter((2,), (2,), np.array([2, 1, 2], dtype=np.int64)),
        LatticeCharacter(h3.groups, h3.totals, lowered),
        LatticeCharacter(h3.groups, h3.totals, bumped),
    ]


@pytest.mark.parametrize("index", range(3))
def test_a_non_character_is_refused_alike_on_both_routes(index, monkeypatch):
    messages = []
    for pruned in (False, True):
        bad = _non_characters()[index]  # a fresh one, so nothing is cached
        with pytest.raises(ValueError) as refused:
            _forced(monkeypatch, pruned, plethysm.schur_decompose, bad)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    assert "not a character" in messages[0] or "do not sum" in messages[0]


def _routes(monkeypatch, series) -> list[bool]:
    """The route the rule picks for each degree of ``series`` above 0, True for pruned."""
    picked = []
    rule = plethysm._takes_pruned_route

    def recording(direct, bound):
        picked.append(rule(direct, bound))
        return picked[-1]

    with monkeypatch.context() as patch:
        patch.setattr(plethysm, "_takes_pruned_route", recording)
        for term in series[1:]:
            plethysm._decompose_lattice(term)
    return picked


def test_the_rule_keeps_mixed_r4_m8_direct_and_prunes_fermion_r7_m5_above_degree_1(monkeypatch):
    mixed = plethysm_h_series(8, character((2, 1), 4), 2)
    assert _routes(monkeypatch, mixed) == [False] * 8
    fermion = plethysm_h_series(5, character((1, 1, 1), 7))
    assert _routes(monkeypatch, fermion) == [False, True, True, True, True]


def test_the_orbit_table_is_built_only_for_the_direct_route(monkeypatch):
    fermion = plethysm_h_series(5, character((1, 1, 1), 7))
    plethysm._signed_delta_orbit.cache_clear()
    for term in fermion[2:]:
        plethysm._decompose_lattice(term)
    assert plethysm._signed_delta_orbit.cache_info().currsize == 0
    plethysm._decompose_lattice(fermion[1])
    assert plethysm._signed_delta_orbit.cache_info().currsize == 1


@pytest.mark.parametrize("budget", [1, 4, 64])
def test_a_small_frontier_budget_splits_rows_and_keeps_the_sums(budget, monkeypatch):
    series = plethysm_h_series(5, character((1, 1, 1), 7))[2:] + plethysm_h_series(
        4, character((2, 1), 4), 2
    )[3:]
    want = [_forced(monkeypatch, True, plethysm._decompose_lattice, term)[1] for term in series]
    steps, blocks = [], []
    extend, block = plethysm._extend, plethysm._pruned_block

    def recording_extend(*args):
        frontier = extend(*args)
        steps.append((len(frontier[0]), len(np.unique(frontier[0]))))
        return frontier

    def recording_block(key, *args):
        blocks.append(len(key))
        return block(key, *args)

    monkeypatch.setattr(plethysm, "_FRONTIER_BUDGET", budget)
    monkeypatch.setattr(plethysm, "_extend", recording_extend)
    monkeypatch.setattr(plethysm, "_pruned_block", recording_block)
    got = [_forced(monkeypatch, True, plethysm._decompose_lattice, term)[1] for term in series]
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
    assert len(blocks) > len(series) and sum(blocks) == sum(len(w) for w in want)
    assert steps and all(size <= budget or rows == 1 for size, rows in steps)
