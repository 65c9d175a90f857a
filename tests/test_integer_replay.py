"""The integer replay routes against the routes they replaced.

A decoupled wedge state (no two support wedges one particle move apart) has
its spectrum read from the integer diagonal, and its vertex check compares
cross-multiplied integers; ``tests/oracles.py`` keeps the matrix route every
state took before.  Partitions of one size come from a walk that visits
only them, strip sums read canonical shapes directly, and inversion counts
are cached per one-line notation.  Results are compared by ``repr``, so an
exact spectrum must keep its Fractions and a float one every bit.  The
support pass tests each unordered pair of wedges once; ``tests/oracles.py``
keeps the ordered double loop that tested every pair twice.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _cgamma_kind2,
    brute_cgamma_kind2,
    filter_partitions_in_box,
    matrix_occupation_numbers,
    matrix_verify_vertex,
    ordered_gather,
)
from paulitope import fixtures, states
from paulitope.generators import _strip_sum, grassmann_kind1, grassmann_kind2
from paulitope.permutations import Permutation, _inversions
from paulitope.states import (
    WedgeState,
    _gather,
    amplitude,
    occupation_numbers,
    verify_vertex,
    weight_graph_disconnected,
)
from paulitope.tableaux import count_skew_standard, partitions_in_box


def _outcome(fn, *args):
    """repr of the result, or the type and message of the exception raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the exception itself is compared
        return type(exc), str(exc)


def _vertex_rows():
    return [row for name in fixtures.VERTEX_TABLES for row in fixtures.vertex_table(name)["rows"]]


def _decoupled(psi: WedgeState) -> bool:
    return not _gather(psi).off


def test_every_vertex_row_matches_the_matrix_route():
    rows = _vertex_rows()
    assert len(rows) == 70
    decoupled = 0
    for row in rows:
        psi, ratio = row["state"], list(row["ratio"])
        assert _outcome(occupation_numbers, psi) == _outcome(matrix_occupation_numbers, psi)
        decoupled += _decoupled(psi)
        forms = [ratio, [2 * x for x in ratio], [3 * x for x in ratio], [Fraction(x) for x in ratio]]
        forms += [[Fraction(x, 7) for x in ratio], [float(x) for x in ratio]]
        for form in forms:
            assert verify_vertex(psi, form) is matrix_verify_vertex(psi, form) is True, (psi, form)
        for i in range(len(ratio)):
            raised = ratio[:i] + [ratio[i] + 1] + ratio[i + 1 :]
            assert verify_vertex(psi, raised) is matrix_verify_vertex(psi, raised) is False, (psi, i)
    # the 3x8 table's one rational non-diagonal row and its ten irrational rows are coupled
    assert decoupled == 59


@pytest.mark.parametrize(
    "ratio",
    [[0, 0, 0, 0], [1, 1, 1], [-1, 1, 1, 1], [1.5, 1, 1, 0.5], ["1", 1, 1, 1], [1, -1, 1, 1]],
)
def test_a_refused_or_unusual_ratio_matches_the_matrix_route(ratio):
    psi = WedgeState(2, 4, {(1, 2): amplitude(1, 1), (3, 4): amplitude(-1, 3)})
    assert _decoupled(psi)
    assert _outcome(verify_vertex, psi, ratio) == _outcome(matrix_verify_vertex, psi, ratio)


def test_the_witness_states_of_both_families_match_the_matrix_route():
    states = [e.state for n in range(1, 6) for e in grassmann_kind2(n, n + 1).excluded]
    states += [e.state for n in range(3, 6) for r in range(n + 1, n + 5) for e in grassmann_kind1(n, r).excluded]
    states = [psi for psi in states if psi is not None]
    assert len(states) >= 15
    for psi in states:
        occ = occupation_numbers(psi)
        assert repr(occ) == repr(matrix_occupation_numbers(psi)), psi
        assert verify_vertex(psi, occ) is matrix_verify_vertex(psi, occ) is True


def test_a_coupled_state_with_a_diagonal_matrix_takes_the_matrix_route():
    # the two (1, 3) terms cancel, so the matrix is diagonal though the wedges couple
    psi = WedgeState(2, 4, {(1, 2): amplitude(1, 1), (2, 3): amplitude(1, 1), (1, 4): amplitude(1, 1), (3, 4): amplitude(1, 1)})
    assert not _decoupled(psi)
    assert repr(occupation_numbers(psi)) == repr(matrix_occupation_numbers(psi))
    assert verify_vertex(psi, [1, 1, 1, 1]) is matrix_verify_vertex(psi, [1, 1, 1, 1])


def _replayed(psi: WedgeState) -> list:
    """repr of the exact or float RDM, the spectrum and the checks of its own and a raised ratio."""
    occ = occupation_numbers(psi)
    raised = [occ[0] + 1, *occ[1:]]
    return [_outcome(fn, *args) for fn, *args in [(states.one_particle_rdm, psi), (occupation_numbers, psi), (verify_vertex, psi, occ), (verify_vertex, psi, raised)]]


def _assert_same_gather(monkeypatch, psis) -> int:
    """The support, term order and key order included, and every output agree with the ordered pass."""
    coupled = 0
    for psi in psis:
        got, want = _gather(psi), ordered_gather(psi)
        assert got == want and list(got.off.items()) == list(want.off.items()), psi
        coupled += bool(got.off)
        outcome = _replayed(psi)
        with monkeypatch.context() as mp:
            mp.setattr(states, "_gather", ordered_gather)
            assert outcome == _replayed(psi), psi
    return coupled


def test_the_support_pass_matches_the_ordered_pass(monkeypatch):
    vertex_states = [row["state"] for row in _vertex_rows()]
    assert _assert_same_gather(monkeypatch, vertex_states) == 70 - 59
    witnesses = [e.state for n in range(1, 6) for e in grassmann_kind2(n, n + 1).excluded]
    witnesses += [e.state for n in range(3, 6) for r in range(n + 1, n + 5) for e in grassmann_kind1(n, r).excluded]
    witnesses = [psi for psi in witnesses if psi is not None]
    assert len(witnesses) >= 15
    _assert_same_gather(monkeypatch, witnesses)  # every witness support is decoupled
    rng = np.random.default_rng(3307)
    randoms = []
    for n, r in [(2, 5), (3, 6), (3, 8), (4, 8)]:
        subsets = list(itertools.combinations(range(1, r + 1), n))
        for _ in range(60):
            picks = rng.choice(len(subsets), size=int(rng.integers(2, min(16, len(subsets)) + 1)), replace=False)
            # squares give exact matrices, other radicands float ones
            power = int(rng.integers(1, 3))
            amps = {
                subsets[int(k)]: amplitude(int(rng.choice([1, -1])), Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 8))) ** power)
                for k in picks
            }
            randoms.append(WedgeState(n, r, amps))
    assert _assert_same_gather(monkeypatch, randoms) > 200


@st.composite
def wedge_states(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(n, 7))
    subsets = list(itertools.combinations(range(1, r + 1), n))
    support = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=5, unique=True))
    amps = {
        s: amplitude(draw(st.sampled_from([1, -1])), Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 9))))
        for s in support
    }
    return WedgeState(n, r, amps)


@settings(max_examples=300, deadline=None)
@given(wedge_states())
def test_the_decoupled_test_agrees_with_the_weight_graph(psi):
    assert _decoupled(psi) == weight_graph_disconnected(psi.support())
    occ = occupation_numbers(psi)
    assert repr(occ) == repr(matrix_occupation_numbers(psi))
    ratios = [occ, [2 * x for x in occ], [x + 1 for x in occ]]
    for ratio in ratios:
        assert _outcome(verify_vertex, psi, ratio) == _outcome(matrix_verify_vertex, psi, ratio)


def test_partitions_in_box_keeps_the_filter_order():
    for rows, cols in itertools.product(range(7), repeat=2):
        assert list(partitions_in_box(rows, cols)) == list(filter_partitions_in_box(rows, cols))
        for total in range(-2, rows * cols + 2):
            got = list(partitions_in_box(rows, cols, total=total))
            assert got == list(filter_partitions_in_box(rows, cols, total=total)), (rows, cols, total)
            assert all(type(part) is int for p in got for part in p)


def test_partitions_in_box_reads_total_as_an_integer():
    # a negative total, like one past the box, has no partitions
    for rows, total in [(1, -1), (3, -1), (3, -7), (3, 10)]:
        assert list(partitions_in_box(rows, 3, total=total)) == []
    assert list(partitions_in_box(3, 3, total=np.int64(4))) == list(partitions_in_box(3, 3, total=4))
    assert list(partitions_in_box(3, 3, total=Fraction(4))) == list(partitions_in_box(3, 3, total=4))
    for total in (2.5, 2.0, Fraction(5, 2), "2"):
        with pytest.raises(ValueError, match="total must be an integer"):
            partitions_in_box(3, 3, total=total)


def test_strip_sums_match_the_former_route_and_the_product():
    for n in range(8):
        for gamma in partitions_in_box(n, n, total=n):
            column = _strip_sum(gamma, column=True)
            assert column == _cgamma_kind2(gamma, n - 1), gamma
            rows = sum((-1) ** k * count_skew_standard(gamma, (k,)) for k in range(n + 1))
            assert _strip_sum(gamma, column=False) == rows, gamma
            if n >= 2:
                assert column == brute_cgamma_kind2(gamma, n - 1, n), gamma


def test_length_counts_inversions_on_s1_to_s6():
    for n in range(1, 7):
        for images in itertools.permutations(range(1, n + 1)):
            brute = sum(1 for i, j in itertools.combinations(range(n), 2) if images[i] > images[j])
            assert Permutation(images).length() == brute, images
    assert _inversions.cache_info().maxsize is not None


def test_permutation_keeps_one_slot():
    assert Permutation.__slots__ == ("images",)
    with pytest.raises(AttributeError):
        Permutation([2, 1]).cached = 1
