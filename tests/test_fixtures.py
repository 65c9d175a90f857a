from __future__ import annotations

from fractions import Fraction

import pytest

from paulitope import fixtures
from paulitope.fixtures import (
    COEFFICIENT_TABLES,
    VERTEX_TABLES,
    coefficient_table,
    coefficient_table_raw,
    schubert_s4_table,
    spin_orbital_inequalities,
    vertex_table,
)
from paulitope.permutations import Permutation
from paulitope.polynomials import SparsePoly, schubert_polynomial


def test_schubert_s4_table_shape():
    rows = schubert_s4_table()
    assert len(rows) == 24
    labels = [row["label"] for row in rows]
    assert len(set(labels)) == 24
    perms = {row["permutation"] for row in rows}
    assert len(perms) == 24


def test_poly_from_terms_refuses_a_fractional_coefficient():
    # a table coefficient is read as it is written, never truncated
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        fixtures._poly_from_terms({"1,0": 1.5}, 2)
    assert fixtures._poly_from_terms({"1,0": 2, "0,1": -1}, 2).terms == {(1, 0): 2, (0, 1): -1}


def test_schubert_s4_labels_encode_one_line():
    for row in schubert_s4_table():
        digits = tuple(int(ch) for ch in row["label"])
        assert digits == tuple(x - 1 for x in row["permutation"].one_line(4))


def test_schubert_s4_spot_values():
    by_label = {row["label"]: row for row in schubert_s4_table()}
    assert by_label["0123"]["poly"] == SparsePoly.constant(3, 1)
    assert by_label["1023"]["poly"] == SparsePoly(3, {(1, 0, 0): 1})
    # the top class is the full staircase monomial
    assert by_label["3210"]["poly"] == SparsePoly(3, {(3, 2, 1): 1})
    # the five-term quadratic entry
    assert by_label["0321"]["poly"] == SparsePoly(
        3,
        {
            (2, 1, 0): 1,
            (2, 0, 1): 1,
            (1, 2, 0): 1,
            (1, 1, 1): 1,
            (0, 2, 1): 1,
        },
    )


def test_schubert_s4_degree_matches_length():
    for row in schubert_s4_table():
        assert row["poly"].degree() == row["permutation"].length()


def test_schubert_s4_recomputes():
    for row in schubert_s4_table()[:8]:
        fresh = schubert_polynomial(row["permutation"], 4)
        trimmed = SparsePoly(3, {e[:3]: c for e, c in fresh.terms.items()})
        assert trimmed == row["poly"], row["label"]


def test_coefficient_table_row_counts():
    expected = {"3x6": 4, "3x7": 4, "4x8": 15, "3x8": 31}
    for name in COEFFICIENT_TABLES:
        table = coefficient_table(name)
        assert len(table["rows"]) == expected[name], name


def test_coefficient_table_fields():
    table = coefficient_table("4x8")
    assert table["nu"] == (1, 1, 1, 1)
    assert table["r"] == 8
    for row in table["rows"]:
        assert len(row["lambda_coeffs"]) == 8
        assert isinstance(row["bound"], int)
        assert isinstance(row["v"], Permutation)
        assert isinstance(row["w"], Permutation)
        assert row["v"].length() == row["w"].length()
        assert row["c"] > 0


def test_coefficient_table_raw_round_trip():
    raw = coefficient_table_raw("3x6")
    parsed = coefficient_table("3x6")
    assert raw["nu"] == list(parsed["nu"])
    assert raw["r"] == parsed["r"]
    assert len(raw["rows"]) == len(parsed["rows"])
    for raw_row, row in zip(raw["rows"], parsed["rows"]):
        assert Permutation.from_cycles(raw_row["v_cycles"]) == row["v"]
        assert Permutation.from_cycles(raw_row["w_cycles"]) == row["w"]


def test_unknown_table_names_raise():
    with pytest.raises(KeyError):
        coefficient_table("9x9")
    with pytest.raises(KeyError):
        coefficient_table_raw("bogus")
    with pytest.raises(KeyError):
        vertex_table("5x5")


def test_vertex_table_row_counts():
    assert len(vertex_table("4x8")["rows"]) == 22
    assert len(vertex_table("3x8")["rows"]) == 38
    assert len(vertex_table("3x7")["rows"]) == 10


def test_vertex_table_states_are_consistent():
    for name in VERTEX_TABLES:
        table = vertex_table(name)
        for row in table["rows"]:
            assert len(row["ratio"]) == table["levels"]
            state = row["state"]
            assert state.n_particles == table["n_particles"]
            assert state.levels == table["levels"]
            assert state.norm_squared() > 0


def test_vertex_table_seven_level_slice():
    table7 = vertex_table("3x7")
    table8 = vertex_table("3x8")
    assert table7["levels"] == 7
    for row7, row8 in zip(table7["rows"], table8["rows"]):
        assert row7["ratio"] == row8["ratio"][:7]
        assert row8["ratio"][7] == 0
        assert row7["state"].support() == row8["state"].support()


def test_spin_orbital_bundle():
    bundle = spin_orbital_inequalities()
    assert bundle["nu"] == (2, 1)
    assert bundle["r"] == 4
    assert bundle["rank_bound"] == 2
    assert len(bundle["rows"]) == 5
    for row in bundle["rows"]:
        assert len(row["lambda_coeffs"]) == 4
        assert len(row["mu_coeffs"]) == 2
        assert isinstance(row["bound"], Fraction)
    # the short list of facets is pinned exactly
    triples = {
        (row["lambda_coeffs"], row["mu_coeffs"], row["bound"])
        for row in bundle["rows"]
    }
    assert triples == {
        ((1, -1, 0, 0), (0, -1), Fraction(1)),
        ((0, 1, -1, 0), (0, -1), Fraction(1)),
        ((1, 0, -1, 0), (0, 1), Fraction(2)),
        ((1, -1, -1, 0), (0, 0), Fraction(1)),
        ((2, -1, 0, 1), (0, 1), Fraction(4)),
    }
