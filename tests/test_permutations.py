from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from paulitope.errors import MinimalityError
from paulitope.permutations import (
    Permutation,
    cycle_permutation,
    is_minimal_coset_rep,
    permutations_of_length,
    require_minimal,
)


def _brute_inversions(images):
    return sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )


def test_composition_is_function_composition():
    u = Permutation.from_cycles([(1, 2)])
    v = Permutation.from_cycles([(2, 3)])
    w = u * v
    assert w(1) == u(v(1))
    assert w.one_line() == (2, 3, 1)


def test_one_line_padding_and_trim():
    w = Permutation([2, 1, 3])
    assert w.one_line() == (2, 1)
    assert w.one_line(4) == (2, 1, 3, 4)
    assert Permutation.identity().one_line() == ()


def test_call_outside_support_is_identity():
    w = Permutation([2, 1])
    assert w(5) == 5


def test_inverse_and_identity():
    w = Permutation([3, 1, 4, 2])
    assert (w * w.inverse()).is_identity()
    assert w.inverse()(w(2)) == 2


def test_length_counts_inversions_exhaustively():
    for images in itertools.permutations(range(1, 5)):
        w = Permutation(images)
        assert w.length() == _brute_inversions(images)


def test_reduced_word_round_trip_s5():
    for images in itertools.permutations(range(1, 6)):
        w = Permutation(images)
        word = w.reduced_word()
        assert len(word) == w.length()
        assert Permutation.from_word(word) == w


def test_from_word_multiplies_rightmost_first():
    # the word (1, 2) means s1 applied after s2
    assert Permutation.from_word((1, 2)).one_line() == (2, 3, 1)
    assert Permutation.from_word((2, 1)).one_line() == (3, 1, 2)
    assert Permutation.from_word(()).is_identity()


def test_descents():
    assert Permutation([3, 1, 4, 2]).descents() == (1, 3)
    assert Permutation.identity().descents() == ()
    assert Permutation([1, 3, 2]).descents() == (2,)


def test_cycles_round_trip():
    w = Permutation([3, 1, 4, 2])
    assert Permutation.from_cycles(w.to_cycles()) == w
    assert w.cycle_string() == "(1 3 4 2)"
    assert Permutation.identity().cycle_string() == "(1)"
    assert Permutation.from_cycles([(2, 4), (1, 3)]).one_line() == (3, 4, 1, 2)


def test_transposition_and_adjacent():
    assert Permutation.transposition(2, 5).one_line() == (1, 5, 3, 4, 2)
    assert Permutation.adjacent(3) == Permutation.transposition(3, 4)


def test_longest_element():
    w0 = Permutation.longest(4)
    assert w0.one_line() == (4, 3, 2, 1)
    assert w0.length() == 6
    assert (w0 * w0).is_identity()


def test_cycle_permutation():
    assert cycle_permutation(1).is_identity()
    assert cycle_permutation(4).one_line() == (2, 3, 4, 1)
    assert cycle_permutation(4).length() == 3


def test_permutations_of_length_matches_brute_count():
    for n in (3, 4, 5):
        by_length = {}
        for images in itertools.permutations(range(1, n + 1)):
            by_length.setdefault(_brute_inversions(images), set()).add(images)
        top = n * (n - 1) // 2
        for target in range(top + 1):
            got = {w.one_line(n) for w in permutations_of_length(n, target)}
            assert got == by_length.get(target, set()), (n, target)


def _brute_minimal(w: Permutation, blocks) -> bool:
    m = sum(len(b) for b in blocks)
    best = w.length()
    for sub in itertools.product(*[itertools.permutations(b) for b in blocks]):
        images = list(range(1, m + 1))
        for block, perm in zip(blocks, sub):
            for src, dst in zip(block, perm):
                images[src - 1] = dst
        sigma = Permutation(images)
        if (w * sigma).length() < best:
            return False
    return True


def test_is_minimal_coset_rep_matches_brute():
    blocks = [[1, 2], [3, 4, 5]]
    for images in itertools.permutations(range(1, 6)):
        w = Permutation(images)
        assert is_minimal_coset_rep(w, blocks) == _brute_minimal(w, blocks)


def test_is_minimal_coset_rep_rejects_bad_blocks():
    w = Permutation([2, 1])
    with pytest.raises(ValueError):
        is_minimal_coset_rep(w, [[1], [3]])
    with pytest.raises(ValueError):
        is_minimal_coset_rep(w, [[1, 3], [2]])
    with pytest.raises(ValueError):
        is_minimal_coset_rep(Permutation([3, 1, 2]), [[1, 2]])


def test_require_minimal_raises_with_role():
    with pytest.raises(MinimalityError, match="cut"):
        require_minimal(Permutation([2, 1]), [[1, 2]], "cut")
    require_minimal(Permutation.identity(), [[1, 2]], "cut")


def test_permutation_is_hashable_and_ordered():
    a = Permutation([2, 1])
    b = Permutation([2, 1, 3])
    assert a == b
    assert hash(a) == hash(b)
    assert sorted([Permutation([3, 1, 2]), a]) == [a, Permutation([3, 1, 2])]


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([1, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


def test_permutation_refuses_fractional_images():
    with pytest.raises(ValueError, match="permutation image must be an integer"):
        Permutation([2.9, 1.2])


def test_permutation_refuses_a_fractional_point():
    with pytest.raises(ValueError, match="point must be an integer"):
        Permutation([2, 1])(1.5)
    assert Permutation([2, 1])(np.int64(1)) == 2


def test_from_cycles_refuses_a_fractional_point():
    with pytest.raises(ValueError, match="cycle point must be an integer"):
        Permutation.from_cycles([[1.5, 2]])
    assert Permutation.from_cycles([[np.int64(1), Fraction(2)]]) == Permutation([2, 1])
