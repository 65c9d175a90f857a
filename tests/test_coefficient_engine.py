"""Schubert coefficients by Monk chains against the expanded polynomial.

The reference (tests/oracles.py) multiplies S_w out at the linear forms of
the induced spectrum and applies the divided difference of v; the package
sums Monk chains inside the Bruhat interval below v.  Both must give the same
integer on every golden table row, on every triple that facet matching tries
in two pipeline runs, and on a seeded grid of small random triples.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from oracles import is_minimal_coset_rep, reference_coefficient, value_blocks, weyl_dimension
from paulitope import polytope
from paulitope.coefficients import coefficient, induced_spectrum, inequality_to_triple
from paulitope.fixtures import coefficient_table
from paulitope.permutations import Permutation, permutations_of_length
from paulitope.polynomials import (
    SparsePoly,
    grassmannian_schubert,
    monk_coefficient,
    schubert_expand,
)

TABLES = ("3x6", "3x7", "3x8", "4x8")
TABLE_ROWS = [
    pytest.param(name, index, id=f"{name}-{index}")
    for name in TABLES
    for index in range(len(coefficient_table(name)["rows"]))
]


@pytest.mark.parametrize("name,index", TABLE_ROWS)
def test_table_rows_match_reference(name, index):
    table = coefficient_table(name)
    nu, r = table["nu"], table["r"]
    row = table["rows"][index]
    triple = inequality_to_triple(row["lambda_coeffs"], row["bound"], nu, r)
    assert (triple.v, triple.w) == (row["v"], row["w"])
    got = coefficient(triple.a, nu, r, triple.v, triple.w)
    assert got == reference_coefficient(triple.a, nu, r, triple.v, triple.w) == row["c"]


# Every (a, nu, r, v, w) that facet matching hands to ``coefficient`` during
# the six-level fermion run and the rank-two (2,1), r=4, M=4 run.
RUNS = {
    "c4": ((1, 1, 1), 6, 1, [2, 4]),
    "rank2-m4": ((2, 1), 4, 2, [4]),
}


@pytest.fixture(scope="module")
def match_calls():
    calls = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, args in RUNS.items():
            seen = calls[name] = []

            def recording(a, nu, r, v, w, seen=seen):
                seen.append((a, nu, r, v, w))
                return coefficient(a, nu, r, v, w)

            mp.setattr(polytope, "coefficient", recording)
            polytope.pipeline(*args)
    return calls


@pytest.mark.parametrize("name", sorted(RUNS))
def test_facet_match_candidates_match_reference(match_calls, name):
    calls = match_calls[name]
    assert calls
    for args in calls:
        assert coefficient(*args) == reference_coefficient(*args), args


# Seeded random triples: a weakly decreasing spectrum, v != id minimal for its
# ties, and w of the same length, minimal for the ties of the induced spectrum
# and moving at most six points, so Grassmannian and non-Grassmannian w both
# occur.
GRID_SHAPES = [(1,), (1, 1), (2,), (1, 1, 1), (2, 1), (2, 2)]
# (shapes whose induced spectrum has a single entry only admit v = w = id)
GRID = [(nu, r) for nu in GRID_SHAPES for r in range(2, 6) if weyl_dimension(nu, r) > 1]
TRIPLES_PER_CASE = 12
S6_BY_LENGTH: dict[int, list[Permutation]] = {}
for _images in itertools.permutations(range(1, 7)):
    _w = Permutation(_images)
    S6_BY_LENGTH.setdefault(_w.length(), []).append(_w)


@functools.cache
def _grid_triples(nu, r):
    rng = random.Random(f"{nu}-{r}")
    triples = []
    while len(triples) < TRIPLES_PER_CASE:
        a = tuple(sorted((rng.randrange(4) for _ in range(r)), reverse=True))
        blocks = value_blocks(a)
        vs = [
            v
            for length in range(1, r * (r - 1) // 2 + 1)
            for v in S6_BY_LENGTH[length]
            if v.n <= r and is_minimal_coset_rep(v, blocks)
        ]
        if not vs:
            continue
        v = rng.choice(vs)
        values = [e.value for e in induced_spectrum(a, nu)]
        w_blocks = value_blocks(values)
        ws = [
            w
            for w in S6_BY_LENGTH[v.length()]
            if w.n <= len(values) and is_minimal_coset_rep(w, w_blocks)
        ]
        if ws:
            triples.append((a, nu, r, v, rng.choice(ws)))
    return triples


@pytest.mark.parametrize("nu,r", GRID, ids=[f"nu{''.join(map(str, nu))}-r{r}" for nu, r in GRID])
def test_random_triples_match_reference(nu, r):
    for args in _grid_triples(nu, r):
        assert coefficient(*args) == reference_coefficient(*args), args


def test_random_grid_covers_every_kind():
    triples = [t for nu, r in GRID for t in _grid_triples(nu, r)]
    zero = sum(1 for t in triples if coefficient(*t) == 0)
    nonzero = len(triples) - zero
    schubert = [grassmannian_schubert(w) for *_, w in triples]
    multi_term = sum(1 for s in schubert if s is not None and len(s.terms) > 1)
    non_grassmannian = sum(1 for s in schubert if s is None)
    assert min(zero, nonzero, multi_term, non_grassmannian) >= 10, (
        zero, nonzero, multi_term, non_grassmannian
    )


def test_monk_coefficient_matches_schubert_expansion():
    # any polynomial at any forms, not only S_w at an induced spectrum:
    # the S_v coefficients of the substituted product, for every v in S_4
    rng = random.Random(11)
    for exps in [(1, 1, 1), (2, 1, 0), (0, 0, 3), (1, 0, 2)]:
        poly = SparsePoly(3, {exps: rng.choice([1, -2, 3])})
        forms = [tuple(rng.randrange(-2, 3) for _ in range(4)) for _ in range(3)]
        expanded = schubert_expand(poly.substitute_linear(forms, 4))
        for v in permutations_of_length(4, 3):
            assert monk_coefficient(poly, forms, v, 4) == expanded.get(v, 0), (exps, forms, v)


def test_monk_coefficient_rejects_bad_input():
    s1 = Permutation([2, 1])
    x1 = SparsePoly(1, {(1,): 1})
    with pytest.raises(ValueError, match=r"^linear form has wrong arity$"):
        monk_coefficient(x1, [(1, 0, 0)], s1, 2)
    with pytest.raises(ValueError, match=r"^v moves 3 points but the forms have 2 variables$"):
        monk_coefficient(x1, [(1, 0)], Permutation([1, 3, 2]), 2)
    with pytest.raises(ValueError, match=r"^no form supplied for variable x2$"):
        monk_coefficient(SparsePoly(2, {(0, 1): 1}), [(1, 0)], s1, 2)
    with pytest.raises(ValueError, match=r"^term \(2,\) is not of degree l\(v\) = 1$"):
        monk_coefficient(SparsePoly(1, {(2,): 1}), [(1, 0)], s1, 2)
    # a term of the wrong degree is refused even where the old route read 0
    with pytest.raises(ValueError, match=r"not of degree"):
        monk_coefficient(SparsePoly(1, {(0,): 1}), [(1, 0)], s1, 2)
