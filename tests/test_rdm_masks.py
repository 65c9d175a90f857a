"""The bitmask density-matrix assembly against the tuple-lookup one it replaced.

Every comparison is by ``repr``, so an exact entry must stay the same
``Fraction`` and a float entry must keep every bit: the float path sums each
(i, j) term list in the order the frozen code built it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from oracles import fraction_verify_vertex, lookup_one_particle_rdm, reference_occupation_numbers
from paulitope import fixtures
from paulitope.generators import grassmann_kind1, grassmann_kind2
from paulitope.states import (
    TableauState,
    WedgeState,
    amplitude,
    occupation_numbers,
    one_particle_rdm,
    verify_vertex,
)


def _outcome(fn, *args):
    """repr of the result, or the type and message of the exception raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the exception itself is compared
        return type(exc), str(exc)


def _assert_same(psi: WedgeState) -> bool:
    rdm = one_particle_rdm(psi)
    assert repr(rdm) == repr(lookup_one_particle_rdm(psi)), psi
    assert repr(occupation_numbers(psi)) == repr(reference_occupation_numbers(psi)), psi
    return rdm.exact


def _vertex_rows():
    return [row for name in fixtures.VERTEX_TABLES for row in fixtures.vertex_table(name)["rows"]]


def test_every_vertex_row_matches_the_lookup_assembly():
    rows = _vertex_rows()
    assert len(rows) == 70
    exact = [_assert_same(row["state"]) for row in rows]
    assert exact.count(True) == 60 and exact.count(False) == 10


def _ratios(ratio: list) -> list:
    """The row's ratio, and forms of it that the check reads otherwise or refuses."""
    doubled = [2 * x for x in ratio]
    moved = list(ratio)
    moved[0], moved[-1] = moved[0] + 1, max(moved[-1] - 1, 0)
    return [
        ratio,
        doubled,
        [Fraction(x, 3) for x in ratio],
        [float(x) for x in ratio],
        [Fraction(x) if i % 2 else x for i, x in enumerate(ratio)],
        moved,
        list(reversed(ratio)),
        ratio[:-1],
        [0] * len(ratio),
        [-x for x in ratio],
    ]


def test_verify_vertex_matches_the_fraction_check():
    verdicts = []
    for row in _vertex_rows():
        psi = row["state"]
        for ratio in _ratios(list(row["ratio"])):
            got = _outcome(verify_vertex, psi, ratio)
            assert got == _outcome(fraction_verify_vertex, psi, ratio), (psi, ratio)
            verdicts.append(got)
    assert verdicts.count("True") >= 70 * 5 and verdicts.count("False") >= 70


def _excluded_states():
    for n in range(3, 6):
        for r in range(n + 1, n + 6):
            yield 1, grassmann_kind1(n, r).excluded
    for n in range(1, 6):
        for p in range(n + 1, n + 3):
            yield 2, grassmann_kind2(n, p).excluded


def test_excluded_states_of_both_kinds_match_the_lookup_assembly():
    seen = {1: 0, 2: 0}
    for kind, excluded in _excluded_states():
        for shape in excluded:
            if shape.state is not None:
                _assert_same(shape.state)
                seen[kind] += 1
    assert min(seen.values()) >= 5, seen


def test_random_float_states_match_the_lookup_assembly_bit_for_bit():
    rng = np.random.default_rng(3011)
    paths = {True: 0, False: 0}
    for n, r in [(n, r) for n in range(1, 5) for r in range(n + 1, 10)]:
        subsets = list(combinations(range(1, r + 1), n))
        for _ in range(40):
            picks = rng.choice(len(subsets), size=int(rng.integers(1, min(10, len(subsets)) + 1)), replace=False)
            amps = {
                subsets[int(k)]: amplitude(
                    int(rng.choice([1, -1])), Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
                )
                for k in picks
            }
            psi = WedgeState(n, r, amps)
            paths[_assert_same(psi)] += 1
            rdm = one_particle_rdm(psi)
            if not rdm.exact:
                assert rdm.as_array().tobytes() == lookup_one_particle_rdm(psi).as_array().tobytes()
    # most random radicand products are not squares, so the float path dominates
    assert paths[False] > 500 and paths[True] > 50, paths


def test_a_term_list_sums_in_amplitude_order():
    # entry (1, 5) sums three non-square terms, one per wedge (1, x); their
    # float sum depends on the order, so every order of the wedges is tried
    amps = {
        (1, 2): amplitude(1, Fraction(5, 9)),
        (1, 3): amplitude(1, Fraction(4, 5)),
        (1, 4): amplitude(1, 6),
        (2, 5): amplitude(1, 1),
        (3, 5): amplitude(1, 6),
        (4, 5): amplitude(1, 9),
    }
    entries = set()
    for order in permutations(amps):
        psi = WedgeState(2, 5, {key: amps[key] for key in order})
        assert not one_particle_rdm(psi).exact
        _assert_same(psi)
        entries.add(one_particle_rdm(psi).entries[0][4])
    assert len(entries) == 2, entries


@pytest.mark.parametrize("fn", [one_particle_rdm, occupation_numbers])
def test_a_state_that_is_not_a_wedge_state_is_refused(fn):
    psi = TableauState((2, 1), 3, {((1, 1), (2,)): amplitude(1, 1)})
    with pytest.raises(TypeError, match=r"^one_particle_rdm needs a WedgeState, got TableauState$"):
        fn(psi)
    with pytest.raises(TypeError, match=r"got dict$"):
        fn({(1, 2): amplitude(1, 1)})
