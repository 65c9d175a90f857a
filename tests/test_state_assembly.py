"""The single amplitude store and density-matrix assembly against the code they replaced.

Every comparison is by ``repr``, so an exact entry must stay a ``Fraction``
and a float entry must keep every bit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from oracles import (
    ReferenceTableauState,
    ReferenceWedgeState,
    reference_dadok_kac_spectrum,
    reference_occupation_numbers,
    reference_one_particle_rdm,
    reference_weight_graph_disconnected,
)
from paulitope import fixtures
from paulitope.generators import grassmann_kind1, grassmann_kind2
from paulitope.states import (
    TableauState,
    WedgeState,
    amplitude,
    dadok_kac_spectrum,
    level_merged_state,
    occupation_numbers,
    one_particle_rdm,
    paired_flat_state,
    slater_determinant,
    weight_graph_disconnected,
)
from paulitope.tableaux import enumerate_ssyt

# a product of two radicands over these has a square denominator only sometimes
DENOMINATORS = (1, 2, 3, 5, 6, 7, 8)


def _outcome(fn, *args):
    """repr of the result, or the type and message of the exception raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the exception itself is compared
        return type(exc), str(exc)


def _entries(item) -> list[int]:
    return [x for part in item for x in (part if isinstance(part, tuple) else (part,))]


def _assert_same(new, ref) -> bool | None:
    """Every output of ``new`` equals the frozen code's on ``ref``; the RDM's exactness."""
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)
    assert _outcome(dadok_kac_spectrum, new) == _outcome(reference_dadok_kac_spectrum, ref)
    support = new.support()
    top = max(x for item in support for x in _entries(item))
    for levels in range(top, top + 4):
        assert weight_graph_disconnected(support) == reference_weight_graph_disconnected(
            support, levels
        ), (support, levels)
    if not isinstance(new, WedgeState):
        return None
    rdm = one_particle_rdm(new)
    assert repr(rdm) == repr(reference_one_particle_rdm(ref))
    assert repr(occupation_numbers(new)) == repr(reference_occupation_numbers(ref))
    return rdm.exact


def _vertex_terms():
    for name in fixtures.VERTEX_TABLES:
        table = fixtures.vertex_table(name)
        raw = fixtures._load("vertices_3x8.json" if name in ("3x7", "3x8") else "vertices_4x8.json")
        for _, raw_row in zip(table["rows"], raw["rows"]):
            yield table["n_particles"], table["levels"], raw_row["terms"]


def test_every_vertex_row_matches_the_frozen_assembly():
    rows = list(_vertex_terms())
    assert len(rows) == 70
    exact = [
        _assert_same(WedgeState.from_terms(*row), ReferenceWedgeState.from_terms(*row))
        for row in rows
    ]
    # both paths of the assembly run on the bundled rows
    assert exact.count(True) == 60 and exact.count(False) == 10


def _witnesses():
    for n in range(3, 6):
        for r in range(n + 1, n + 6):
            yield from grassmann_kind1(n, r).excluded
    for n in range(1, 6):
        yield from grassmann_kind2(n, n + 1).excluded


def test_witness_states_match_the_frozen_assembly():
    states = [e.state for e in _witnesses() if e.state is not None]
    states += [slater_determinant(2, 5), paired_flat_state(4), level_merged_state(4, 3)]
    assert len(states) > 20
    for psi in states:
        ref = ReferenceWedgeState(psi.n_particles, psi.levels, psi.amplitudes)
        _assert_same(psi, ref)


def _random_amplitudes(rng, keys, max_terms: int) -> dict:
    """Radicands k/d, or for about half the states squares (k/d)^2 whose products all have roots."""
    picks = rng.choice(len(keys), size=int(rng.integers(1, min(max_terms, len(keys)) + 1)), replace=False)
    power = int(rng.integers(1, 3))
    amps = {}
    for k in picks:
        sign = rng.choice([1, -1])  # a numpy integer, coerced by both constructors
        rad = Fraction(int(rng.integers(0, 10)), int(rng.choice(DENOMINATORS))) ** power
        amps[keys[int(k)]] = (sign, rad) if rng.integers(2) else amplitude(int(sign), rad)
    return amps


def test_random_wedge_states_match_the_frozen_assembly():
    rng = np.random.default_rng(1913)
    systems = [(n, r) for n in range(2, 5) for r in range(n + 2, 9)]
    counts = {True: 0, False: 0, "refused": 0, "exact off-diagonal": 0}
    for n, r in systems:
        subsets = list(combinations(range(1, r + 1), n))
        for _ in range(100):
            amps = _random_amplitudes(rng, subsets, 12)
            if rng.integers(4) == 0:
                amps = {tuple(np.int64(x) for x in key): amp for key, amp in amps.items()}
            new = _outcome(WedgeState, n, r, amps)
            assert new == _outcome(ReferenceWedgeState, n, r, amps)
            if isinstance(new, tuple):
                counts["refused"] += 1
                continue
            psi = WedgeState(n, r, amps)
            exact = _assert_same(psi, ReferenceWedgeState(n, r, amps))
            counts[exact] += 1
            counts["exact off-diagonal"] += exact and not one_particle_rdm(psi).is_diagonal()
    assert counts[True] + counts[False] >= 1000
    assert min(counts[True], counts[False], counts["exact off-diagonal"]) > 100, counts


def test_random_tableau_states_match_the_frozen_store():
    rng = np.random.default_rng(1929)
    shapes = [((2, 1), 3), ((2, 1), 4), ((2, 2), 4), ((3, 1), 3), ((2, 1, 1), 4), ((1, 1), 4), ((3,), 3)]
    checked = 0
    for nu, levels in shapes:
        tableaux = enumerate_ssyt(nu, levels)
        for _ in range(40):
            amps = _random_amplitudes(rng, tableaux, 5)
            new = _outcome(TableauState, nu, levels, amps)
            assert new == _outcome(ReferenceTableauState, nu, levels, amps)
            if not isinstance(new, tuple):
                _assert_same(TableauState(nu, levels, amps), ReferenceTableauState(nu, levels, amps))
                checked += 1
    assert checked > 200


ZERO = amplitude(1, 0)
WEDGE_PARTNER = (3, 4)
MALFORMED_WEDGES = [
    ((1, 2, 3), amplitude(1, 1)),
    ((2, 2), amplitude(1, 1)),
    ((3, 1), amplitude(1, 1)),
    ((1, 5), amplitude(1, 1)),
    ((1, 2), amplitude(1, 0)),
    ((1, 2), (2, 1)),
    ((1, 2), (1, -1)),
]
TABLEAU_PARTNER = ((1, 2), (3,))
MALFORMED_TABLEAUX = [
    (((2, 1), (3,)), (1, 1)),
    (((1, 1), (1,)), (1, 1)),
    (((1,), (2,)), (1, 1)),
    (((1, 1), (4,)), (1, 1)),
    (((1, 1), (2,)), (1, 0)),
    (((1, 1), (2,)), (-2, 1)),
]


def _with_zero(key, amp, partner) -> list[dict]:
    """The malformed term alone, and beside a zero or a nonzero partner term in either order."""
    return [
        {key: amp},
        {key: ZERO},
        {key: ZERO, partner: amplitude(1, 1)},
        {partner: amplitude(1, 1), key: ZERO},
        {partner: ZERO, key: amp},
        {key: amp, partner: ZERO},
    ]


@pytest.mark.parametrize("key, amp", MALFORMED_WEDGES)
def test_malformed_wedge_input_fails_as_before(key, amp):
    for amps in _with_zero(key, amp, WEDGE_PARTNER):
        new = _outcome(WedgeState, 2, 4, amps)
        assert new == _outcome(ReferenceWedgeState, 2, 4, amps), amps
    assert isinstance(_outcome(WedgeState, 2, 4, {key: amp}), tuple)


@pytest.mark.parametrize("key, amp", MALFORMED_TABLEAUX)
def test_malformed_tableau_input_fails_as_before(key, amp):
    levels = 3
    for amps in _with_zero(key, amp, TABLEAU_PARTNER):
        new = _outcome(TableauState, (2, 1), levels, amps)
        assert new == _outcome(ReferenceTableauState, (2, 1), levels, amps), amps
    assert isinstance(_outcome(TableauState, (2, 1), levels, {key: amp}), tuple)


def test_uncoupled_cells_of_one_matrix_share_one_zero():
    for psi in (slater_determinant(2, 5), WedgeState(2, 3, {(1, 2): (1, "1/2"), (1, 3): (1, "1/3")})):
        entries = one_particle_rdm(psi).entries
        zeros = {id(x) for i, row in enumerate(entries) for j, x in enumerate(row) if i != j and not x}
        assert len(zeros) == 1
