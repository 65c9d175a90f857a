"""The pruned Weyl alternation against the direct one, and the rule that picks between them.

``_decompose_lattice`` alternates each degree either directly, over the whole
orbit S_g1 x S_g2 ..., or by the pruned enumeration that keeps only the
orbit elements whose keys stay in the degree's array; the order of that
group picks the route and the rows per block.  Forced onto every
degree, the two routes must give the same rows and multiplicities, in the
same dtype, and refuse the same non-characters with the same message.
Both routes start from the dominant weights that ``_dominant_flat``
enumerates, which must be those the former scan of the whole array found.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    alternation_dtype,
    reference_direct_block,
    reference_dominant_flat,
    reference_free_columns,
    reference_signed_delta_orbit,
)
from paulitope import generators, plethysm
from paulitope.plethysm import LatticeCharacter, character, plethysm_h_series

SHAPES = [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]
GRID = [(nu, r) for nu in SHAPES for r in range(1, 6) if len(nu) <= r]


def _forced(monkeypatch, pruned: bool, fn, *args):
    """``fn(*args)`` with every degree sent to one route."""
    with monkeypatch.context() as patch:
        patch.setattr(plethysm, "_takes_pruned_route", lambda order: pruned)
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
    # the sums' dtype follows the limit when a degree is decomposed, so the
    # fixed-width runs are decomposed before the limit is patched
    int64_runs = []
    for nu, r, k in systems:
        series = plethysm_h_series(3, character(nu, r), k)[1:]
        int64_runs.append([_forced(monkeypatch, True, plethysm._decompose_lattice, term) for term in series])
    monkeypatch.setattr(plethysm, "_INT64_LIMIT", 0)
    for (nu, r, k), int64_run in zip(systems, int64_runs):
        for (want_rows, want), slow in zip(int64_run, plethysm_h_series(3, character(nu, r), k)[1:]):
            assert slow.array.dtype == object
            _assert_routes_agree(monkeypatch, slow)
            rows, mults = _forced(monkeypatch, True, plethysm._decompose_lattice, slow)
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


def _routes(monkeypatch, run, *args) -> list[bool]:
    """The route the rule picks for each degree ``run(*args)`` decomposes, True for pruned."""
    picked = []
    rule = plethysm._takes_pruned_route

    def recording(order):
        picked.append(rule(order))
        return picked[-1]

    with monkeypatch.context() as patch:
        patch.setattr(plethysm, "_takes_pruned_route", recording)
        run(*args)
    return picked


def _decompose_all(series) -> None:
    for term in series:
        plethysm._decompose_lattice(term)


def test_the_rule_goes_by_the_weyl_group_order(monkeypatch):
    # |W| = 4! 2! = 48 for mixed-r4-m8 and c6, 7! for fermion-r7-m5, p! for kind-2 at width p
    c6 = plethysm_h_series(12, character((2, 1), 4), 2)  # mixed-r4-m8 is its degrees 1-8
    assert _routes(monkeypatch, _decompose_all, c6[1:]) == [False] * 12
    fermion = plethysm_h_series(5, character((1, 1, 1), 7))
    assert _routes(monkeypatch, _decompose_all, fermion[1:]) == [True] * 5
    for N, p, pruned in [(2, 5, False), (3, 5, False), (3, 6, True), (2, 7, True)]:
        assert _routes(monkeypatch, generators.grassmann_kind2, N, p) == [pruned]
    wedge3 = plethysm_h_series(8, character((1, 1, 1), 8))
    assert _routes(monkeypatch, _decompose_all, wedge3[8:]) == [True]
    orders = (24, 48, 120, 144, 240, 576, 720)
    assert [plethysm._takes_pruned_route(order) for order in orders] == [False] * 5 + [True] * 2


def test_the_orbit_table_is_built_only_for_the_direct_route():
    fermion = plethysm_h_series(5, character((1, 1, 1), 7))
    mixed = plethysm_h_series(4, character((2, 1), 4), 2)
    plethysm._orbit.cache_clear()
    _decompose_all(fermion[1:])
    assert plethysm._orbit.cache_info().currsize == 0
    _decompose_all(mixed[1:])
    assert plethysm._orbit.cache_info().currsize == 1


# |W| = 7! = 5040 for the fermion degrees and 4! 2! = 48 for the mixed ones
@pytest.mark.parametrize("budget", [1, 4, 64, 3 * 5040 + 1])
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
    got = []
    for term in series:
        per_block = max(1, budget // (5040 if term.groups == (7,) else 48))
        first = len(blocks)
        got.append(_forced(monkeypatch, True, plethysm._decompose_lattice, term)[1])
        # every block but the degree's last takes the full rows
        assert blocks[first:-1] == [per_block] * (len(blocks) - first - 1)
        assert 1 <= blocks[-1] <= per_block
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
    assert len(blocks) > len(series) and sum(blocks) == sum(len(w) for w in want)
    assert steps and all(size <= budget or rows == 1 for size, rows in steps)
    assert (max(blocks) > 1) == (budget >= 2 * 48)


def _direct_blocks(monkeypatch, run, *args) -> list[tuple]:
    """The arguments and sums of every direct block ``run(*args)`` alternates, the route forced."""
    blocks = []
    alternate = plethysm._alternate

    def recording(*block_args):
        blocks.append((block_args, alternate(*block_args)))
        return blocks[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(plethysm, "_alternate", recording)
        _forced(patch, False, run, *args)
    return blocks


def _assert_direct_blocks_match_the_frozen_block(term, blocks) -> None:
    """Each block's sums are the frozen offset-table block's on its rows, in the rule's dtype.

    The frozen block sums in the dtype of the values; the package in
    ``alternation_dtype``'s, int64 when |W| times the largest entry fits.

    The blocks' keys must be the lam_i - i of the dominant weights that the
    full scan finds, in order.
    """
    index = np.array([i for g in term.groups for i in range(g - 1)], dtype=np.int64)
    coords = term._free_coordinates(reference_dominant_flat(term))
    assert np.array_equal(np.concatenate([args[0] for args, _ in blocks]) + index, coords)
    strides = np.array(term.array.strides, dtype=np.int64) // term.array.itemsize
    start = 0
    for (key, *_), sums in blocks:
        rows = coords[start : start + len(key)]
        want = reference_direct_block(rows, term.groups, term.array.shape, strides, term.array.ravel())
        assert sums.dtype == alternation_dtype(term) and sums.tolist() == want.tolist()
        start += len(key)


DIRECT_SYSTEMS = [((1, 1, 1), 6, 1, 8), ((2, 1), 4, 2, 12), ((1, 1), 5, 2, 6)]


@pytest.mark.parametrize("nu,r,k,m_max", DIRECT_SYSTEMS, ids=["c4", "c6", "wedge2-r5-k2"])
def test_the_direct_block_matches_the_frozen_offset_table_block(nu, r, k, m_max, monkeypatch):
    for term in plethysm_h_series(m_max, character(nu, r), k)[1:]:
        blocks = _direct_blocks(monkeypatch, plethysm._decompose_lattice, term)
        _assert_direct_blocks_match_the_frozen_block(term, blocks)


@pytest.mark.parametrize("N,p", [(2, 5), (3, 5)])
def test_the_direct_block_matches_the_frozen_block_on_kind2_products(N, p, monkeypatch):
    terms = []
    decompose = plethysm._decompose_lattice

    def recording(term):
        terms.append(term)
        return decompose(term)

    monkeypatch.setattr(plethysm, "_decompose_lattice", recording)
    blocks = _direct_blocks(monkeypatch, generators.grassmann_kind2, N, p)
    assert len(terms) == 1
    _assert_direct_blocks_match_the_frozen_block(terms[0], blocks)


RANDOM_GROUPS = [(3,), (4,), (5,), (2, 2), (3, 2), (4, 2), (2, 2, 2)]


@pytest.mark.parametrize("groups", RANDOM_GROUPS, ids=map(str, RANDOM_GROUPS))
@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
def test_the_direct_block_matches_the_frozen_block_at_the_box_edges(groups, dtype, monkeypatch):
    rng = np.random.default_rng(sum(g * 10**i for i, g in enumerate(groups)))
    offsets = reference_signed_delta_orbit(groups)[0][:, reference_free_columns(groups)]
    index = np.array([i for g in groups for i in range(g - 1)], dtype=np.int64)
    low_edge = high_edge = False
    for _ in range(6):
        shape = tuple(rng.integers(2, 6, size=len(index)).tolist())
        totals = tuple(rng.integers(0, 2 * max(shape), size=len(groups)).tolist())
        # any integers, not a character, but 0 where a group's last coordinate is negative
        array = rng.integers(-3, 4, size=shape).astype(dtype)
        coords, start = np.indices(shape), 0
        for g, total in zip(groups, totals):
            array[coords[start : start + g - 1].sum(axis=0) > total] = 0
            start += g - 1
        term = LatticeCharacter(groups, totals, array)
        blocks = _direct_blocks(monkeypatch, plethysm._decompose_lattice, term)
        if blocks:  # no block when no dominant weight has a nonzero entry
            _assert_direct_blocks_match_the_frozen_block(term, blocks)
        for (key, *_), _ in blocks:
            # each term's key on each free axis, as the frozen block builds it
            keys = (key + index)[:, None, :] + offsets
            low_edge |= bool((keys == -1).any())
            high_edge |= bool((keys == np.array(shape)).any())
    # a key lam_i - i + pi(i) is -1 only at a position i >= 1 of its group
    assert low_edge == (max(groups) > 2) and high_edge
