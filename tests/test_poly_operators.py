"""SparsePoly's operators against their former code in ``oracles``.

The operators now add up their terms and leave every zero coefficient to
the constructor; the former code dropped each zero as it arose.  Sums are
drawn so that terms cancel: coefficients lie in -3..3, and the second
operand reuses some of the first one's exponents.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from oracles import (
    reference_divided_difference,
    reference_poly_add,
    reference_poly_mul,
    reference_schubert_polynomial,
    reference_substitute_linear,
)
from paulitope.permutations import Permutation
from paulitope.polynomials import SparsePoly, divided_difference, schubert_polynomial


def _random_poly(rng, nvars: int, like: SparsePoly | None = None) -> SparsePoly:
    terms = {}
    for _ in range(int(rng.integers(0, 7))):
        terms[tuple(int(x) for x in rng.integers(0, 4, nvars))] = int(rng.integers(-3, 4))
    if like is not None:
        for e, c in like.terms.items():
            if rng.random() < 0.5:
                terms[e] = -c if rng.random() < 0.7 else int(rng.integers(-3, 4))
    return SparsePoly(nvars, terms)


def _pairs(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nvars = int(rng.integers(1, 6))
        p = _random_poly(rng, nvars)
        yield rng, nvars, p, _random_poly(rng, nvars, like=p)


def _same(got: SparsePoly, want: SparsePoly) -> None:
    assert got == want
    assert type(got.terms) is dict
    assert 0 not in got.terms.values()


def _same_error(live, reference) -> None:
    with pytest.raises(ValueError) as want:
        reference()
    with pytest.raises(ValueError) as got:
        live()
    assert str(got.value) == str(want.value)


def test_sums_and_products_match_the_former_code():
    cancelled = 0
    for _, _, p, q in _pairs(101, 400):
        _same(p + q, reference_poly_add(p, q))
        _same(p - q, reference_poly_add(p, -q))
        _same(p * q, reference_poly_mul(p, q))
        _same(q * p, reference_poly_mul(q, p))
        _same(p + (-p), SparsePoly.zero(p.nvars))
        cancelled += len((p + q).terms) < len(set(p.terms) | set(q.terms))
    assert cancelled > 50


def test_difference_of_squares_cancels_its_cross_terms():
    for nvars in range(2, 6):
        for a, b in itertools.combinations(range(1, nvars + 1), 2):
            x, y = SparsePoly.variable(a, nvars), SparsePoly.variable(b, nvars)
            got = (x - y) * (x + y)
            _same(got, reference_poly_mul(reference_poly_add(x, -y), reference_poly_add(x, y)))
            _same(got, x * x - y * y)
            assert len(got.terms) == 2


def test_divided_differences_match_the_former_code_at_every_index():
    for _, nvars, p, q in _pairs(103, 300):
        for f in (p, q, p + q, p * q):
            for i in range(1, nvars):
                _same(divided_difference(i, f), reference_divided_difference(i, f))
            for i in (0, nvars):
                _same_error(
                    lambda i=i: divided_difference(i, f),
                    lambda i=i: reference_divided_difference(i, f),
                )


def test_substitutions_match_the_former_code():
    for rng, nvars, p, q in _pairs(107, 120):
        nvars_out = int(rng.integers(1, 6))
        forms = [tuple(int(c) for c in rng.integers(-2, 3, nvars_out)) for _ in range(nvars)]
        for f in (p, q):
            want = reference_substitute_linear(f, forms, nvars_out)
            _same(f.substitute_linear(forms, nvars_out), want)


def test_errors_match_the_former_code():
    p = SparsePoly(3, {(1, 0, 2): 2, (0, 1, 0): -1})
    other = SparsePoly(2, {(1, 1): 1})
    _same_error(lambda: p + other, lambda: reference_poly_add(p, other))
    _same_error(lambda: p * other, lambda: reference_poly_mul(p, other))
    _same_error(lambda: other * p, lambda: reference_poly_mul(other, p))
    missing = [(1, 1), (0, 1)]
    _same_error(
        lambda: p.substitute_linear(missing, 2),
        lambda: reference_substitute_linear(p, missing, 2),
    )
    wrong_width = [(1, 1), (0, 1, 0), (1, 0)]
    _same_error(
        lambda: p.substitute_linear(wrong_width, 2),
        lambda: reference_substitute_linear(p, wrong_width, 2),
    )


def test_schubert_polynomials_of_s5_match_the_former_code():
    for one_line in itertools.permutations(range(1, 6)):
        w = Permutation(one_line)
        _same(schubert_polynomial(w), reference_schubert_polynomial(w))
