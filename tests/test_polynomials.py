from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bialternant_schur, sympy_divided_difference
from paulitope.errors import ResourceLimitError
from paulitope.permutations import Permutation, permutations_of_length
from paulitope.polynomials import (
    SparsePoly,
    divided_difference,
    divided_difference_word,
    grassmannian_schubert,
    monk_coefficient,
    monk_multiply,
    schubert_expand,
    schubert_polynomial,
    schur_polynomial,
)


def _random_poly(rng, nvars=3, n_terms=6, max_exp=3, max_coeff=5) -> SparsePoly:
    terms: dict = {}
    for _ in range(n_terms):
        e = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(nvars))
        terms[e] = terms.get(e, 0) + int(rng.integers(-max_coeff, max_coeff + 1))
    return SparsePoly(nvars, {k: v for k, v in terms.items() if v})


def test_constructor_drops_zero_terms():
    p = SparsePoly(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): 3}
    assert not p.is_zero()
    assert SparsePoly.zero(2).is_zero()


def test_arithmetic_basics():
    x = SparsePoly.variable(1, 2)
    y = SparsePoly.variable(2, 2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.scale(3) == p + p + p
    assert p.scale(0) == p.scale(0.0) == SparsePoly.zero(2)
    assert (x + y).power(2) == x * x + x * y.scale(2) + y * y


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        SparsePoly.variable(1, 2) + SparsePoly.variable(1, 3)


def test_degree_and_homogeneity():
    x = SparsePoly.variable(1, 2)
    y = SparsePoly.variable(2, 2)
    assert (x * x + x * y).is_homogeneous()
    assert (x * x + y).degree() == 2
    assert not (x * x + y).is_homogeneous()
    assert SparsePoly.zero(2).degree() == -1
    assert SparsePoly.constant(2, 4).degree() == 0


def test_linear_form_and_embed():
    f = SparsePoly.linear_form([1, 0, 2])
    assert f.terms == {(1, 0, 0): 1, (0, 0, 1): 2}
    g = f.embed(5)
    assert g.nvars == 5
    assert g.terms == {(1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0): 2}
    with pytest.raises(ValueError):
        f.embed(2)


def test_apply_transposition_is_involutive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = _random_poly(rng)
        assert f.apply_transposition(1, 3).apply_transposition(1, 3) == f


def test_substitute_linear():
    # substitute y1 -> x1 + x2, y2 -> 2 x1 into y1 * y2
    f = SparsePoly(2, {(1, 1): 1})
    g = f.substitute_linear([[1, 1], [2, 0]], 2)
    assert g == SparsePoly(2, {(2, 0): 2, (1, 1): 2})


def test_divided_difference_matches_exact_division():
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = _random_poly(rng)
        for i in (1, 2):
            got = divided_difference(i, f)
            assert dict(got.terms) == sympy_divided_difference(f, i)


def test_divided_difference_kills_symmetric_factors():
    rng = np.random.default_rng(13)
    for _ in range(10):
        f = _random_poly(rng)
        sym = f + f.apply_transposition(1, 2)
        assert divided_difference(1, sym * f) == (
            divided_difference(1, f) * sym
        )


@st.composite
def sparse_polys(draw, nvars=4):
    n_terms = draw(st.integers(1, 6))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        c = draw(st.integers(-6, 6))
        terms[e] = terms.get(e, 0) + c
    return SparsePoly(nvars, {k: v for k, v in terms.items() if v})


@settings(max_examples=60, deadline=None)
@given(sparse_polys(), st.integers(1, 3))
def test_divided_difference_is_nilpotent(f, i):
    once = divided_difference(i, f)
    assert divided_difference(i, once).is_zero()


@settings(max_examples=60, deadline=None)
@given(sparse_polys())
def test_divided_difference_braid_relation(f):
    left = divided_difference(1, divided_difference(2, divided_difference(1, f)))
    right = divided_difference(2, divided_difference(1, divided_difference(2, f)))
    assert left == right


@settings(max_examples=40, deadline=None)
@given(sparse_polys())
def test_distant_divided_differences_commute(f):
    left = divided_difference(1, divided_difference(3, f))
    right = divided_difference(3, divided_difference(1, f))
    assert left == right


def test_word_operator_is_word_independent():
    # two different reduced words for the longest element of S3
    f_rng = np.random.default_rng(17)
    for _ in range(10):
        f = _random_poly(f_rng)
        a = divided_difference_word((1, 2, 1), f)
        b = divided_difference_word((2, 1, 2), f)
        assert a == b


def test_schubert_base_cases():
    assert schubert_polynomial(Permutation.identity(), 1) == SparsePoly.constant(1, 1)
    assert schubert_polynomial(Permutation([2, 1])) == SparsePoly(2, {(1, 0): 1})
    w0 = Permutation.longest(3)
    assert schubert_polynomial(w0) == SparsePoly(3, {(2, 1, 0): 1})


def test_schubert_is_stable_under_ambient_growth():
    w = Permutation([3, 1, 4, 2])
    small = schubert_polynomial(w)
    large = schubert_polynomial(w, 6)
    assert small.embed(6) == large


def test_schubert_operator_duality():
    # applying the divided difference of w to S_w returns 1
    for w in permutations_of_length(4, 3):
        s = schubert_polynomial(w)
        assert divided_difference_word(w, s) == SparsePoly.constant(s.nvars, 1)


def test_grassmannian_route_agrees_with_staircase_route():
    hits = 0
    for n in (3, 4):
        for images in itertools.permutations(range(1, n + 1)):
            w = Permutation(images)
            fast = grassmannian_schubert(w)
            if fast is None:
                assert len(w.descents()) > 1
                continue
            hits += 1
            slow = schubert_polynomial(w)
            m = max(fast.nvars, slow.nvars)
            assert fast.embed(m) == slow.embed(m), images
    assert hits > 10


def test_grassmannian_identity():
    f = grassmannian_schubert(Permutation.identity())
    assert f is not None and f.is_constant() and f.constant_coefficient() == 1


def test_schur_polynomial_matches_bialternant():
    for gamma, p in [((2, 1), 3), ((3, 1), 2), ((2, 2, 1), 3), ((1, 1, 1, 1), 4)]:
        assert dict(schur_polynomial(gamma, p).terms) == bialternant_schur(gamma, p)


def test_schur_polynomial_too_tall_is_zero():
    assert schur_polynomial((1, 1, 1), 2).is_zero()


def test_schubert_expand_recovers_basis_elements():
    for w in permutations_of_length(3, 2):
        s = schubert_polynomial(w)
        assert schubert_expand(s) == {w: 1}


def test_schubert_expand_reconstructs_input():
    rng = np.random.default_rng(19)
    for _ in range(5):
        # random homogeneous cubic in three variables
        terms = {}
        for e in [(3, 0, 0), (2, 1, 0), (1, 1, 1), (0, 2, 1), (0, 0, 3)]:
            c = int(rng.integers(-4, 5))
            if c:
                terms[e] = c
        if not terms:
            continue
        f = SparsePoly(3, terms)
        expansion = schubert_expand(f)
        total = SparsePoly.zero(6)
        for w, c in expansion.items():
            total = total + schubert_polynomial(w, 6).scale(c)
        assert total == f.embed(6)


def test_schubert_expand_rejects_inhomogeneous():
    x = SparsePoly.variable(1, 2)
    with pytest.raises(ValueError):
        schubert_expand(x * x + x)


def test_monk_multiply_matches_expansion():
    rng = np.random.default_rng(23)
    for v in [Permutation([2, 1]), Permutation([1, 3, 2]), Permutation([3, 1, 2])]:
        for _ in range(4):
            alpha = [int(rng.integers(-2, 3)) for _ in range(3)]
            form = SparsePoly.linear_form(alpha)
            sv = schubert_polynomial(v, 4)
            product = form.embed(4) * sv
            direct = monk_multiply(alpha, v)
            expanded = schubert_expand(product)
            assert direct == expanded, (alpha, v)


def test_monk_multiply_single_variable():
    # x1 times S_s1 is x1 squared, a single basis element
    out = monk_multiply([1], Permutation([2, 1]))
    assert out == {Permutation([3, 1, 2]): 1}
    # while x2 times S_s1 is x1 x2
    out2 = monk_multiply([0, 1], Permutation([2, 1]))
    assert out2 == {Permutation([2, 3, 1]): 1}


def test_schubert_ambient_cap_enforced():
    with pytest.raises(ResourceLimitError):
        schubert_polynomial(Permutation.transposition(12, 13))
    with pytest.raises(ResourceLimitError):
        schubert_expand(SparsePoly(11, {tuple([2] + [0] * 10): 1}))


def test_schubert_cap_errors_name_the_stage():
    with pytest.raises(ResourceLimitError, match=r"^schubert_polynomial: ambient 13 exceeds cap 12$"):
        schubert_polynomial(Permutation.transposition(12, 13))
    with pytest.raises(ResourceLimitError, match=r"^schubert_expand: ambient 13 exceeds cap 12$"):
        schubert_expand(SparsePoly(11, {tuple([2] + [0] * 10): 1}))


def test_repr_is_readable():
    f = SparsePoly(2, {(2, 0): 1, (0, 1): -3})
    text = repr(f)
    assert "x1^2" in text and "x2" in text


def test_sparse_poly_refuses_a_fractional_float_coefficient():
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        SparsePoly(1, {(1,): 0.5})


def test_sparse_poly_refuses_a_fractional_fraction_coefficient():
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        SparsePoly(2, {(1, 0): Fraction(3, 2)})


def test_sparse_poly_refuses_a_fractional_exponent():
    with pytest.raises(ValueError, match="exponent must be an integer"):
        SparsePoly(1, {(1.5,): 1})
    # integral numpy and Fraction inputs are stored as ints
    poly = SparsePoly(2, {(np.int64(1), Fraction(2)): Fraction(4, 2), (0, 1): np.int64(-3)})
    assert poly == SparsePoly(2, {(1, 2): 2, (0, 1): -3})
    assert all(type(x) is int for e, c in poly.terms.items() for x in (*e, c))
    with pytest.raises(ValueError, match="negative exponent"):
        SparsePoly(1, {(np.int64(-1),): 1})


def test_sparse_poly_refuses_a_fractional_variable_count():
    with pytest.raises(ValueError, match="variable count must be an integer"):
        SparsePoly(1.5)
    with pytest.raises(ValueError, match="variable count must be an integer"):
        SparsePoly(2.7, {(1, 0): 1})
    assert type(SparsePoly(np.int64(2)).nvars) is int


def test_linear_form_refuses_a_fractional_entry():
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        SparsePoly.linear_form([1.5, 0.4])
    form = SparsePoly.linear_form([Fraction(3), np.int64(2)])
    assert form == SparsePoly(2, {(1, 0): 3, (0, 1): 2})


def test_monk_multiply_refuses_a_fractional_form_entry():
    with pytest.raises(ValueError, match="form entry must be an integer"):
        monk_multiply([1.5, 0], Permutation([2, 1]))
    assert monk_multiply([np.int64(1), Fraction(0)], Permutation([2, 1])) == monk_multiply(
        [1, 0], Permutation([2, 1])
    )


def test_monk_coefficient_refuses_a_fractional_form_entry():
    x1 = SparsePoly(1, {(1,): 1})
    with pytest.raises(ValueError, match="form entry must be an integer"):
        monk_coefficient(x1, [[1.7, 0.2]], Permutation([2, 1]), 2)
    assert monk_coefficient(x1, [[np.int64(1), Fraction(0)]], Permutation([2, 1]), 2) == 1
