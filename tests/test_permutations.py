from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import reference_require_minimal, value_blocks
from paulitope.errors import MinimalityError
from paulitope.permutations import (
    Permutation,
    cycle_permutation,
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


def _brute_minimal(w: Permutation, values) -> bool:
    # no permutation of the positions that keeps the values gives a shorter w * sigma
    m = len(values)
    best = w.length()
    for images in itertools.permutations(range(1, m + 1)):
        if all(values[i - 1] == values[j] for j, i in enumerate(images)):
            if (w * Permutation(images)).length() < best:
                return False
    return True


def _failure(check, w: Permutation, ties) -> str | None:
    """The MinimalityError message of ``check(w, ties, "w")``, or None when it passes."""
    try:
        check(w, ties, "w")
    except MinimalityError as exc:
        return str(exc)
    return None


def test_is_minimal_coset_rep_matches_brute():
    for values in [(3, 3, 1, 1, 1), (2, 1, 1, 1, 0)]:
        for images in itertools.permutations(range(1, 6)):
            w = Permutation(images)
            minimal = _failure(require_minimal, w, values) is None
            assert minimal == _brute_minimal(w, values), (values, images)


def test_require_minimal_raises_with_role():
    with pytest.raises(MinimalityError) as exc:
        require_minimal(Permutation([2, 1, 3]), (3, 3, 2), "cut")
    assert str(exc.value) == "cut is not increasing on the tied blocks [[1, 2], [3]]"
    require_minimal(Permutation.identity(), (1, 1), "cut")
    # a descent between two different values is allowed
    require_minimal(Permutation([1, 3, 2]), [3, 3, 2], "cut")


def test_require_minimal_matches_the_block_reference():
    # every weakly decreasing sequence over {0, 1, 2} of length at most 6,
    # against every permutation of that length: 23,116 pairs
    pairs = 0
    for m in range(7):
        perms = [Permutation(images) for images in itertools.permutations(range(1, m + 1))]
        for values in itertools.combinations_with_replacement((2, 1, 0), m):
            blocks = value_blocks(values)
            for w in perms:
                pairs += 1
                want = _failure(reference_require_minimal, w, blocks)
                assert _failure(require_minimal, w, values) == want, (values, w)
    assert pairs == 23_116


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
