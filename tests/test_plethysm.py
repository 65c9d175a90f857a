from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import (
    brute_h_weights,
    kind2_product,
    peel_schur,
    plethysm_schur,
    power_substitute,
    reference_schur_decompose,
    schur_decompose_peel,
    weyl_dimension,
)
from paulitope import plethysm
from paulitope.errors import ResourceLimitError
from paulitope.plethysm import (
    character,
    inner_points,
    plethysm_h_series,
    schur_decompose,
)
from paulitope.polynomials import SparsePoly
from paulitope.tableaux import littlewood_richardson, partitions_in_box


def test_character_dimension_matches_weyl_formula():
    for nu, r in [((1,), 4), ((1, 1), 4), ((2, 1), 3), ((2, 2), 4), ((1, 1, 1), 6)]:
        f = character(nu, r)
        assert sum(f.terms.values()) == weyl_dimension(nu, r)
        assert f.degree() == sum(nu)


def test_character_weights_are_symmetric():
    f = character((2, 1), 3)
    flipped = {tuple(reversed(wt)): m for wt, m in f.terms.items()}
    assert flipped == f.terms


def test_character_rejects_tall_shapes():
    with pytest.raises(ValueError):
        character((1, 1, 1), 2)


def test_character_arithmetic():
    f = character((1,), 3)
    g = character((1, 1), 3)
    s = f + g
    assert sum(s.terms.values()) == sum(f.terms.values()) + sum(g.terms.values())
    assert (s - g) == f
    assert f.scale(0).terms == {}
    with pytest.raises(ValueError):
        f + character((1,), 4)


def test_product_of_fundamentals():
    f = character((1,), 3)
    square = f * f
    decomp = schur_decompose(square)
    assert decomp == {(2,): 1, (1, 1): 1}


def test_power_substitute_scales_weights():
    f = character((1,), 3)
    g = power_substitute(f, 3)
    assert set(g.terms) == {(3, 0, 0), (0, 3, 0), (0, 0, 3)}
    with pytest.raises(ValueError):
        power_substitute(f, 0)


def test_plethysm_h_matches_multiset_enumeration():
    for nu, r in [((1,), 3), ((1, 1), 4), ((2, 1), 3)]:
        f = character(nu, r)
        for m in (1, 2, 3):
            assert plethysm_h_series(m, f)[m].weights == brute_h_weights(m, f.terms)


def test_plethysm_h_series_is_consistent():
    f = character((1, 1), 4)
    series = plethysm_h_series(3, f)
    assert series[0].weights == SparsePoly.constant(4, 1).terms
    for m in (1, 2, 3):
        assert series[m].weights == plethysm_h_series(m, f)[m].weights
    # the zero character: Sym^0 is the unit, higher powers vanish in degree 0
    zero = plethysm_h_series(2, SparsePoly.zero(3))
    assert [term.totals for term in zero] == [(0,), (0,), (0,)]
    assert [term.weights for term in zero] == [{(0, 0, 0): 1}, {}, {}]


@pytest.mark.parametrize("k", [1, 2])
def test_plethysm_h_series_refuses_a_negative_multiplicity_before_any_step(monkeypatch, k):
    steps = []
    monkeypatch.setattr(plethysm, "_newton_step", lambda *args: steps.append(args))
    # x1^4 of Sym^4 is C(10^6 + 3, 4), past int64; the signed sum of the
    # multiplicities, 1, bounded the dtype, and int64 wrapped silently
    virtual = SparsePoly(2, {(1, 0): 10**6, (0, 1): -(10**6 - 1)})
    with pytest.raises(ValueError, match=r"negative multiplicity -999999 at weight \(0, 1\)"):
        plethysm_h_series(4, virtual, k)
    # the dimension C(-1, 1) reached math.comb's own error
    with pytest.raises(ValueError, match=r"negative multiplicity -1 at weight \(1, 0\)"):
        plethysm_h_series(1, SparsePoly(2, {(1, 0): -1}), k)
    series = plethysm_h_series(0, character((1,), 2), k)
    with pytest.raises(ValueError, match="negative multiplicity"):
        plethysm_h_series(0, virtual, k, series=series)
    assert steps == [] and len(series) == 1


def test_plethysm_schur_row_is_symmetric_power():
    f = character((2,), 3)
    assert plethysm_schur((2,), f).terms == plethysm_h_series(2, f)[2].weights
    assert plethysm_schur((), f) == SparsePoly.constant(3, 1)


def test_square_splits_into_symmetric_and_antisymmetric():
    for nu, r in [((1,), 4), ((1, 1), 4), ((2, 1), 3)]:
        f = character(nu, r)
        sym = plethysm_schur((2,), f)
        anti = plethysm_schur((1, 1), f)
        assert sym + anti == f * f


def test_cube_splits_with_standard_multiplicities():
    f = character((1, 1), 4)
    cube = f * f * f
    total = (
        plethysm_schur((3,), f)
        + plethysm_schur((2, 1), f).scale(2)
        + plethysm_schur((1, 1, 1), f)
    )
    assert total == cube


def test_schur_decompose_matches_littlewood_richardson():
    for mu, pi in [((2, 1), (1,)), ((1, 1), (1, 1)), ((2,), (2, 1))]:
        f = character(mu, 4) * character(pi, 4)
        decomp = schur_decompose(f)
        assert decomp == reference_schur_decompose(f)
        total = sum(mu) + sum(pi)
        for nu in partitions_in_box(4, total, total=total):
            assert decomp.get(nu, 0) == littlewood_richardson(mu, pi, nu)


def test_schur_decompose_agrees_with_peel_and_oracle():
    f = plethysm_schur((2, 1), character((2, 1), 3))
    fast = schur_decompose(f)
    slow = schur_decompose_peel(f)
    reference = peel_schur(dict(f.terms), f.nvars)
    assert fast == slow == reference
    # the kind-2 products of 38, 291 and 796 terms; the bialternant peel
    # takes 30 s on the largest, so it checks only the smallest
    products = [kind2_product(n, p) for n, p in [(2, 4), (2, 5), (3, 5)]]
    for f in products:
        assert schur_decompose(f) == schur_decompose_peel(f) == reference_schur_decompose(f)
    assert schur_decompose(products[0]) == peel_schur(dict(products[0].terms), 4)


@pytest.mark.parametrize(
    "f,want",
    [
        (SparsePoly.constant(3, 1) + character((1,), 3), {(): 1, (1,): 1}),  # two degrees
        (SparsePoly(1, {(3,): 2}), {(3,): 2}),  # one variable: no free axis
        (SparsePoly.zero(3), {}),
    ],
    ids=["non-homogeneous", "one-variable", "zero"],
)
def test_sparse_layout_matches_the_frozen_sparse_route(f, want):
    assert schur_decompose(f) == reference_schur_decompose(f) == want


def test_schur_decompose_rejects_non_characters():
    bad = SparsePoly(2, {(1, 0): 1})
    messages = []
    for decompose in (schur_decompose, reference_schur_decompose):
        with pytest.raises(ValueError) as refused:
            decompose(bad)
        messages.append(str(refused.value))
    assert messages == ["component dimensions do not sum to the character dimension"] * 2
    with pytest.raises(ValueError):
        schur_decompose_peel(SparsePoly(2, {(0, 1): 1}))


def test_inner_points_borland_dennis_slice():
    points = inner_points((1, 1, 1), 6, 1, 2)
    lams = {lam for lam, mu in points}
    assert all(mu == (Fraction(1),) for _, mu in points)
    slater = (Fraction(1),) * 3 + (Fraction(0),) * 3
    assert slater in lams
    for lam, _ in points:
        assert sum(lam) == 3
        assert all(0 <= x <= 1 for x in lam)
        assert sorted(lam, reverse=True) == list(lam)


def test_inner_points_grow_with_degree():
    small = set(inner_points((1, 1, 1), 6, 1, 2))
    large = set(inner_points((1, 1, 1), 6, 1, 4))
    assert small <= large
    assert len(large) > len(small)


def test_inner_points_mixed_rank():
    points = inner_points((2, 1), 4, 2, 2)
    assert all(len(lam) == 4 and len(mu) == 2 for lam, mu in points)
    for lam, mu in points:
        assert sum(lam) == 3
        assert sum(mu) == 1
        assert sorted(mu, reverse=True) == list(mu)


def test_inner_points_cap_errors_name_the_stage():
    with pytest.raises(ResourceLimitError, match=r"^inner_points: r=9 exceeds the level cap 8$"):
        inner_points((1, 1, 1), 9, 1, 2)
    with pytest.raises(
        ResourceLimitError, match=r"^inner_points: \|nu\| \* M = 27 exceeds the degree cap 24$"
    ):
        inner_points((1, 1, 1), 6, 1, 9)


def test_inner_points_respects_caps():
    with pytest.raises(ResourceLimitError):
        inner_points((1, 1, 1), 9, 1, 2)
    with pytest.raises(ResourceLimitError):
        inner_points((1, 1, 1), 6, 1, 9)
    with pytest.raises(ValueError):
        inner_points((1, 1, 1), 6, 0, 2)
