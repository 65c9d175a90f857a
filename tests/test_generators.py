from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    brute_cgamma_kind1,
    brute_cgamma_kind2,
    reference_grassmann_kind1,
    reference_grassmann_kind2,
)
from paulitope.errors import ResourceLimitError
from paulitope.generators import (
    cgamma_kind1,
    cgamma_kind1_positive,
    cgamma_kind1_recurrence,
    cgamma_kind2,
    cgamma_kind2_positive,
    grassmann_kind1,
    grassmann_kind2,
    hole_dual_inequality,
    hole_dual_spectrum,
    majorization_constraints,
    series_inequality,
)
from paulitope.states import occupation_numbers
from paulitope.tableaux import partitions_in_box, size


def test_kind1_three_fermions_six_levels_gives_pair_bounds():
    fam = grassmann_kind1(3, 6)
    assert fam.kind == "kind1"
    got = {(i.indices, i.bound) for i in fam.items}
    assert got == {((1, 6), 1), ((2, 5), 1), ((3, 4), 1)}
    assert all(i.c_gamma == 1 for i in fam.items)
    assert fam.excluded == ()


def test_kind1_three_fermions_seven_levels():
    fam = grassmann_kind1(3, 7)
    got = {(i.indices, i.c_gamma) for i in fam.items}
    assert got == {((2, 6), 2), ((3, 5), 2)}
    (row,) = fam.excluded
    assert row.gamma == (5,)
    assert row.indices == (1, 7)
    assert row.state is not None
    assert row.lhs == Fraction(4, 3)
    assert row.lhs > row.bound


def test_kind1_four_fermions_seven_levels_index_sums():
    fam = grassmann_kind1(4, 7)
    assert len(fam.items) == 4
    for item in fam.items:
        assert item.bound == 2
        assert len(item.indices) == 3
        assert sum(item.indices) == 10
    assert fam.excluded == ()


def test_kind1_both_exclusion_certificates():
    fam = grassmann_kind1(4, 6)
    assert {i.indices for i in fam.items} == {(1, 3, 5)}
    by_gamma = {e.gamma: e for e in fam.excluded}
    assert set(by_gamma) == {(3,), (1, 1, 1)}
    for shape in by_gamma.values():
        assert shape.state is not None
        assert shape.lhs > shape.bound
        occ = occupation_numbers(shape.state)
        assert sum(occ[i - 1] for i in shape.indices) == shape.lhs


def test_kind1_small_particle_count_is_empty():
    fam = grassmann_kind1(2, 5)
    assert fam.items == ()
    assert fam.note is not None


def test_kind1_rejects_too_few_levels():
    with pytest.raises(ValueError):
        grassmann_kind1(3, 3)


def test_kind1_families_cover_every_shape():
    for N, r in [(3, 6), (3, 7), (4, 6), (4, 7), (4, 8)]:
        fam = grassmann_kind1(N, r)
        width = r - N + 1
        shapes = {i.gamma for i in fam.items} | {e.gamma for e in fam.excluded}
        assert shapes == set(partitions_in_box(N - 1, width, total=width))


def test_two_row_coefficients_form_pascal_half_row():
    assert [cgamma_kind1_recurrence((8 - k, k)) for k in range(5)] == [1, 3, 9, 12, 6]
    assert [cgamma_kind1_recurrence((6 - k, k)) for k in range(4)] == [1, 2, 4, 2]


def test_row_boundary_values():
    for length in range(9):
        expected = 1 if length % 2 == 0 else 0
        assert cgamma_kind1_recurrence((length,) if length else ()) == expected


def test_kind1_triple_agreement():
    # recurrence, alternating sum, and direct product expansion coincide
    for N, width in [(3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (5, 4)]:
        r = N + width - 1
        for gamma in partitions_in_box(N - 1, width, total=width):
            a = cgamma_kind1_recurrence(gamma)
            b = cgamma_kind1(gamma, N, r)
            c = brute_cgamma_kind1(gamma, N, r)
            assert a == b == c, (N, r, gamma)
            if len(gamma) > 1:
                assert cgamma_kind1_positive(gamma) == a, (N, r, gamma)


def test_kind1_positive_form_row_carve_out():
    # single rows are the one place the positive form disagrees
    assert cgamma_kind1_positive((4,)) == 0
    assert cgamma_kind1_recurrence((4,)) == 1


def test_kind2_triple_agreement():
    for N in (2, 3, 4):
        p = N + 1
        for gamma in partitions_in_box(p, p, total=p):
            a = cgamma_kind2(gamma, N)
            b = brute_cgamma_kind2(gamma, N, p)
            assert a == b, (N, gamma)
            is_row = len(gamma) <= 1
            is_column = gamma == (1,) * size(gamma)
            if not is_row and not is_column:
                assert cgamma_kind2_positive(gamma) == a, (N, gamma)


def test_kind2_expansion_matches_brute_product():
    fam = grassmann_kind2(2, 4)
    assert len(fam.items) == 1
    item = fam.items[0]
    assert item.indices == (1, 3, 5, 7)
    assert item.bound == 1
    assert item.gamma == (3, 2, 1)
    assert item.c_gamma == brute_cgamma_kind2((3, 2, 1), 2, 4) == 1
    # shapes the decomposition dropped really do have zero coefficient
    assert brute_cgamma_kind2((6,), 2, 4) == 0
    assert brute_cgamma_kind2((2, 2, 1, 1), 2, 4) == 0


def test_kind2_three_fermions_closed_form():
    fam = grassmann_kind2(3, 4)
    got = {(i.indices, i.bound) for i in fam.items}
    assert got == {
        ((1, 2, 4, 7), 2),
        ((1, 2, 5, 6), 2),
        ((1, 3, 4, 6), 2),
        ((2, 3, 4, 5), 2),
    }
    assert all(i.c_gamma == 1 for i in fam.items)
    (row,) = fam.excluded
    assert row.gamma == (4,)
    assert row.lhs == 3
    assert row.state is not None


def test_kind2_even_particle_count_excludes_the_column():
    fam = grassmann_kind2(2, 3)
    assert {i.indices for i in fam.items} == {(1, 3, 5)}
    by_gamma = {e.gamma: e for e in fam.excluded}
    assert set(by_gamma) == {(3,), (1, 1, 1)}
    flat = by_gamma[(1, 1, 1)]
    assert flat.lhs == Fraction(3, 2)
    assert flat.state is not None
    # an odd particle count keeps the column
    fam3 = grassmann_kind2(3, 4)
    assert (2, 3, 4, 5) in {i.indices for i in fam3.items}


def test_kind2_families_compare_and_hash_by_value():
    fam = grassmann_kind2(2, 3)
    assert fam == grassmann_kind2(2, 3)
    assert fam != grassmann_kind2(3, 4)
    assert len({hash(e) for e in fam.excluded}) == len(fam.excluded)
    assert {hash(e) for e in fam.excluded} == {hash(e) for e in grassmann_kind2(2, 3).excluded}
    assert "object at 0x" not in repr(fam)


def test_kind2_resource_caps():
    with pytest.raises(ResourceLimitError):
        grassmann_kind2(3, 8)
    with pytest.raises(ResourceLimitError):
        grassmann_kind2(3, 7)


def test_kind2_cap_errors_name_the_stage():
    with pytest.raises(
        ResourceLimitError, match=r"^grassmann_kind2: p=8 exceeds the width cap 7$"
    ):
        grassmann_kind2(3, 8)
    with pytest.raises(
        ResourceLimitError,
        match=r"^grassmann_kind2: expanding the degree-35 product over 7 variables "
        r"may need 4496388 terms \(cap 600000\)$",
    ):
        grassmann_kind2(3, 7)


def _outcome(build, *args):
    """The family and its repr, or the error's type and message."""
    try:
        family = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return family, repr(family)


def _frozen_outcome(build, *args):
    kind, text = _outcome(build, *args)
    if kind is ResourceLimitError:
        # the cap errors now name their stage
        text = "grassmann_kind2: " + text
    return kind, text


@pytest.mark.parametrize("N", range(1, 9))
def test_kind1_matches_the_frozen_builder(N):
    for r in range(N + 1, N + 9):
        assert _outcome(grassmann_kind1, N, r) == _frozen_outcome(
            reference_grassmann_kind1, N, r
        ), (N, r)


@pytest.mark.parametrize("N", range(0, 9))
def test_kind2_matches_the_frozen_builder(N):
    for p in range(N - 1, N + 5):
        if (N, p) == (5, 7):
            continue  # a 12 s expansion, alone longer than the whole rest of the grid
        assert _outcome(grassmann_kind2, N, p) == _frozen_outcome(
            reference_grassmann_kind2, N, p
        ), (N, p)


def test_kind2_rejects_bad_arguments():
    with pytest.raises(ValueError):
        grassmann_kind2(0, 3)
    with pytest.raises(ValueError):
        grassmann_kind2(3, 2)


def test_series_inequality_values():
    assert series_inequality(2, 4).indices == (1, 3, 5, 7)
    assert series_inequality(2, 4).bound == 1
    assert series_inequality(3, 3).indices == (1, 2, 4)
    assert series_inequality(3, 3).bound == 2
    assert series_inequality(3, 4).indices == (1, 2, 4, 7)


def test_series_member_appears_in_its_family():
    series = series_inequality(3, 4)
    fam = grassmann_kind2(3, 4)
    match = [i for i in fam.items if i.indices == series.indices]
    assert len(match) == 1
    assert match[0].gamma == series.gamma


def test_occupation_inequality_helpers():
    fam = grassmann_kind1(3, 6)
    item = fam.items[0]
    assert item.coefficient_vector(6) == (1, 0, 0, 0, 0, 1)
    assert item.coefficient_vector(7) == (1, 0, 0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        item.coefficient_vector(5)
    assert item.holds_for([1, 1, 1, 0, 0, 0])
    assert not item.holds_for([1, 1, 0.5, 0.5, 0.5, 0.5])


def test_majorization_constraints():
    fam = majorization_constraints((2, 1), 4)
    assert [(i.indices, i.bound) for i in fam.items] == [((1,), 2)]
    fam = majorization_constraints((1, 1, 1), 6)
    assert [(i.indices, i.bound) for i in fam.items] == [((1,), 1), ((1, 2), 2)]
    with pytest.raises(ValueError):
        majorization_constraints((1, 1, 1), 2)


def test_hole_dual_spectrum_involution():
    lam = (1, Fraction(3, 4), Fraction(1, 4), 0)
    dual = hole_dual_spectrum(lam, 4)
    assert dual == (1, Fraction(3, 4), Fraction(1, 4), 0)
    assert hole_dual_spectrum(hole_dual_spectrum(lam, 4), 4) == lam
    assert hole_dual_spectrum((1, 1, 1, 0, 0, 0), 6) == (1, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        hole_dual_spectrum((1, 0), 3)


def test_hole_dual_inequality_involution():
    coeffs, bound = hole_dual_inequality((1, 0, 0, -1), 1)
    assert coeffs == (1, 0, 0, -1)
    assert bound == 1
    again = hole_dual_inequality((0, 1, 1, 0, 0, 0), 1)
    assert again == ((0, 0, 0, -1, -1, 0), -1)
    assert hole_dual_inequality(*again) == ((0, 1, 1, 0, 0, 0), 1)


def test_hole_dual_preserves_validity():
    # if a spectrum satisfies an inequality, its dual satisfies the dual form
    lam = (1, Fraction(2, 3), Fraction(2, 3), Fraction(2, 3), 0, 0)
    coeffs, bound = (1, 0, 0, 0, 0, 1), 1
    assert sum(c * x for c, x in zip(coeffs, lam)) <= bound
    dual_lam = hole_dual_spectrum(lam, 6)
    dual_coeffs, dual_bound = hole_dual_inequality(coeffs, bound)
    assert sum(c * x for c, x in zip(dual_coeffs, dual_lam)) <= dual_bound


def test_grassmann_kind1_refuses_a_fractional_particle_count():
    with pytest.raises(ValueError, match="particle count must be an integer"):
        grassmann_kind1(3.7, 6)
    assert grassmann_kind1(np.int64(3), 6) == grassmann_kind1(3, 6)


def test_grassmann_kind2_refuses_a_fractional_particle_count():
    with pytest.raises(ValueError, match="particle count must be an integer"):
        grassmann_kind2(3.7, 4)
    assert grassmann_kind2(Fraction(3), 4) == grassmann_kind2(3, 4)


def test_series_inequality_refuses_a_fractional_particle_count():
    with pytest.raises(ValueError, match="particle count must be an integer"):
        series_inequality(3.7, 4)
    assert series_inequality(np.int64(3), 4) == series_inequality(3, 4)


def test_hole_dual_inequality_refuses_fractional_input():
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        hole_dual_inequality((1.5, 0), 1.2)
    with pytest.raises(ValueError, match="bound must be an integer"):
        hole_dual_inequality((1, 0), 1.2)
    assert hole_dual_inequality((Fraction(1), np.int64(0)), np.int64(1)) == ((0, -1), 0)


def test_hole_dual_inequality_refuses_a_fractional_shift():
    with pytest.raises(ValueError, match="shift must be an integer, got 0.5"):
        hole_dual_inequality((1, 0), 1, s=0.5)
    assert hole_dual_inequality((1, 0), 1, s=Fraction(2)) == ((0, -1), -1)
    assert hole_dual_inequality((1, 0), 1, s=np.int64(2)) == ((0, -1), -1)
