from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import brute_ssyt
from paulitope.coefficients import (
    coefficient,
    induced_spectrum,
    inequality_to_triple,
    value_blocks,
    verify_table,
)
from paulitope.errors import MinimalityError, UnmatchedInequalityError
from paulitope.fixtures import coefficient_table, coefficient_table_raw, spin_orbital_inequalities
from paulitope.permutations import Permutation
from paulitope.tableaux import reading_word


def test_induced_spectrum_single_box_is_the_test_spectrum():
    entries = induced_spectrum((3, 1, 0), (1,))
    assert [e.value for e in entries] == [3, 1, 0]
    assert [e.tableau for e in entries] == [((1,),), ((2,),), ((3,),)]


def test_induced_spectrum_values_match_brute_sums():
    a = (2, 1, 1, 0)
    for nu in [(1, 1), (2,), (2, 1)]:
        entries = induced_spectrum(a, nu)
        got = sorted(e.value for e in entries)
        want = sorted(
            sum(a[t - 1] for row in tab for t in row)
            for tab in brute_ssyt(nu, len(a))
        )
        assert got == want


def test_induced_spectrum_tie_break_by_reading_word():
    entries = induced_spectrum((1, 1, 0), (1, 1))
    values = [e.value for e in entries]
    assert values == sorted(values, reverse=True)
    for left, right in itertools.pairwise(entries):
        if left.value == right.value:
            assert reading_word(left.tableau) < reading_word(right.tableau)


def test_induced_spectrum_rejects_increasing_spectrum():
    with pytest.raises(ValueError):
        induced_spectrum((0, 1), (1,))


def test_value_blocks():
    assert value_blocks([3, 3, 2]) == [[1, 2], [3]]
    assert value_blocks([1]) == [[1]]
    assert value_blocks([]) == []
    assert value_blocks([2, 2, 2]) == [[1, 2, 3]]


def test_coefficient_identity_case():
    ident = Permutation.identity()
    assert coefficient((3, 2, 1, 0), (1,), 4, ident, ident) == 1


def test_coefficient_pauli_row():
    # the inequality "first occupation number at most one" for a single particle
    a = (1, 0)
    s1 = Permutation([2, 1])
    with pytest.raises(MinimalityError):
        coefficient((1, 1), (1,), 2, s1, Permutation.identity())
    assert coefficient(a, (1,), 2, s1, s1) == 1


def test_coefficient_zero_when_lengths_differ():
    ident = Permutation.identity()
    s1 = Permutation([2, 1])
    assert coefficient((2, 1, 0), (1,), 3, s1, ident) == 0


def test_coefficient_requires_matching_arity():
    with pytest.raises(ValueError):
        coefficient((1, 0), (1,), 3, Permutation.identity(), Permutation.identity())


def test_coefficient_rejects_nonminimal_w():
    # spectrum (1, 1, 0, 0) for two fermions has tied induced values
    a = (1, 1, 0, 0)
    entries = induced_spectrum(a, (1, 1))
    blocks = value_blocks([e.value for e in entries])
    assert any(len(b) > 1 for b in blocks)
    tied = next(b for b in blocks if len(b) > 1)
    bad_w = Permutation.transposition(tied[0], tied[1])
    with pytest.raises(MinimalityError):
        coefficient(a, (1, 1), 4, Permutation.identity(), bad_w)


def test_coefficient_rejects_oversized_w():
    big = Permutation.transposition(9, 10)
    with pytest.raises(ValueError):
        coefficient((1, 0), (1,), 2, Permutation.identity(), big)


def test_inequality_to_triple_pauli():
    triple = inequality_to_triple([1, 0], 1, (1,), 2)
    assert triple.a == (1, 0)
    assert triple.v.is_identity()
    assert triple.w.is_identity()


def test_inequality_to_triple_tie_order_is_stable():
    # tied coefficients keep their original level order in v
    triple = inequality_to_triple([1, 1, 0, 0], 2, (1, 1), 4)
    assert triple.a == (1, 1, 0, 0)
    assert triple.v.is_identity()
    assert triple.w.is_identity()


def test_inequality_to_triple_shifts_negative_coefficients():
    # lambda_3 + lambda_4 >= 0 written as -lambda_3 - lambda_4 <= 0
    triple = inequality_to_triple([0, 0, -1, -1], 0, (1, 1), 4)
    assert triple.a == (1, 1, 0, 0)
    assert triple.v.is_identity()
    assert triple.w.is_identity()


def test_inequality_to_triple_unmatched_target():
    with pytest.raises(UnmatchedInequalityError):
        inequality_to_triple([1, 0, 0, 0, 0, 0], 5, (1, 1, 1), 6)


def test_inequality_to_triple_rejects_wrong_arity():
    with pytest.raises(ValueError):
        inequality_to_triple([1, 0], 1, (1,), 3)


def test_inequality_to_triple_rejects_fractional_data():
    from fractions import Fraction

    with pytest.raises(ValueError):
        inequality_to_triple([Fraction(1, 2), 0], 1, (1,), 2)
    # integral fractions are accepted
    triple = inequality_to_triple([Fraction(1), 0], Fraction(1), (1,), 2)
    assert triple.a == (1, 0)


@pytest.mark.parametrize("name", ["3x6", "3x7"])
def test_tables_reproduce_their_triples(name):
    table = coefficient_table(name)
    nu, r = table["nu"], table["r"]
    for row in table["rows"]:
        triple = inequality_to_triple(row["lambda_coeffs"], row["bound"], nu, r)
        assert triple.v == row["v"], row
        assert triple.w == row["w"], row
        assert coefficient(triple.a, nu, r, triple.v, triple.w) == row["c"], row


def test_spin_orbital_rows_have_unit_coefficient():
    bundle = spin_orbital_inequalities()
    nu, r = bundle["nu"], bundle["r"]
    for row in bundle["rows"]:
        triple = inequality_to_triple(
            row["lambda_coeffs"], row["bound"], nu, r, mu_coeffs=row["mu_coeffs"]
        )
        assert triple.v.length() == triple.w.length()
        assert coefficient(triple.a, nu, r, triple.v, triple.w) == 1, row


def test_verify_table_passes_on_bundled_data():
    report = verify_table(coefficient_table_raw("3x6"))
    assert report["ok"]
    assert all(row["ok"] for row in report["rows"])
    assert len(report["rows"]) == 4


def test_verify_table_flags_wrong_coefficient():
    table = coefficient_table_raw("3x6")
    table = {
        "nu": table["nu"],
        "r": table["r"],
        "rows": [dict(table["rows"][0], c=table["rows"][0]["c"] + 1)],
    }
    report = verify_table(table)
    assert not report["ok"]
    assert report["rows"][0]["c_ok"] is False
    assert report["rows"][0]["v_ok"] and report["rows"][0]["w_ok"]


def test_verify_table_reports_row_errors():
    table = {
        "nu": [1, 1, 1],
        "r": 6,
        "rows": [
            {
                "lambda_coeffs": [1, 0, 0, 0, 0, 0],
                "bound": 5,
                "v_cycles": [],
                "w_cycles": [],
                "c": 1,
            }
        ],
    }
    report = verify_table(table)
    assert not report["ok"]
    assert "error" in report["rows"][0]


def test_verify_table_refuses_a_fractional_level_count_or_coefficient():
    raw = coefficient_table_raw("3x6")
    with pytest.raises(ValueError, match="level count must be an integer, got 6.9"):
        verify_table(dict(raw, r=6.9))
    rows = [dict(raw["rows"][0], c=1.5)] + raw["rows"][1:]
    with pytest.raises(ValueError, match="expected coefficient must be an integer, got 1.5"):
        verify_table(dict(raw, rows=rows))
    rows = [dict(row, c=Fraction(row["c"])) for row in raw["rows"]]
    assert verify_table(dict(raw, r=np.int64(raw["r"]), rows=rows)) == verify_table(raw)


def test_induced_spectrum_refuses_a_fractional_test_spectrum():
    with pytest.raises(ValueError, match="test spectrum entry must be an integer"):
        induced_spectrum((1.7, 0), (1,))
    assert induced_spectrum((np.int64(1), Fraction(0)), (1,)) == induced_spectrum((1, 0), (1,))


def test_coefficient_refuses_a_fractional_test_spectrum():
    w = Permutation([2, 1])
    with pytest.raises(ValueError, match="test spectrum entry must be an integer"):
        coefficient((1.7, 0), (1,), 2, w, w)
    assert coefficient((np.int64(1), Fraction(0)), (1,), 2, w, w) == 1
