"""Permutations in one-line notation, with reduced words and coset tests.

Products compose as functions: ``(u * v)(i) == u(v(i))``, so in a product
written left to right the rightmost factor acts first.  A word
``(i1, ..., il)`` denotes the product ``s_i1 * ... * s_il`` of adjacent
transpositions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, groupby
from typing import Iterable, Iterator, Sequence

from .errors import MinimalityError, as_int


class Permutation:
    """Immutable permutation stored in one-line notation.

    Trailing fixed points are trimmed, so permutations of different ambient
    sizes compare equal when they agree as functions.  Beyond the stored size
    every point is fixed.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(x if type(x) is int else as_int(x, "permutation image") for x in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        while imgs and imgs[-1] == len(imgs):
            imgs = imgs[:-1]
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        """Smallest m such that every point above m is fixed."""
        return len(self.images)

    def __call__(self, i: int) -> int:
        if type(i) is not int:
            i = as_int(i, "point")
        if i < 1:
            raise ValueError(f"points are 1-based, got {i}")
        return self.images[i - 1] if i <= len(self.images) else i

    def __mul__(self, other: "Permutation") -> "Permutation":
        m = max(self.n, other.n)
        return Permutation(self(other(i)) for i in range(1, m + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __lt__(self, other: "Permutation") -> bool:
        return self.one_line(max(self.n, other.n)) < other.one_line(max(self.n, other.n))

    def one_line(self, m: int | None = None) -> tuple[int, ...]:
        """One-line notation padded with fixed points up to m."""
        if m is None:
            m = self.n
        if m < self.n:
            raise ValueError(f"cannot write a permutation moving {self.n} points on {m}")
        return self.images + tuple(range(self.n + 1, m + 1))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return not self.images

    def length(self) -> int:
        """Number of inversions, counted once per one-line notation (``_inversions``)."""
        return _inversions(self.images)

    def descents(self) -> tuple[int, ...]:
        """Positions i with w(i) > w(i+1)."""
        imgs = self.images
        return tuple(i + 1 for i in range(len(imgs) - 1) if imgs[i] > imgs[i + 1])

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word, built by repeatedly removing the first descent.

        Each removal multiplies by an adjacent transposition on the right, so
        the letters come out last first and are reversed at the end.
        """
        w = list(self.one_line())
        word_rev: list[int] = []
        while True:
            i = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
            if i is None:
                break
            w[i], w[i + 1] = w[i + 1], w[i]
            word_rev.append(i + 1)
            while w and w[-1] == len(w):
                w.pop()
        return tuple(reversed(word_rev))

    def to_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        seen: set[int] = set()
        cycles: list[tuple[int, ...]] = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1:
                cycles.append(tuple(cyc))
        return tuple(sorted(cycles))

    def cycle_string(self) -> str:
        """Cycle notation, with the identity written as (1)."""
        cycles = self.to_cycles()
        if not cycles:
            return "(1)"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)

    @staticmethod
    def identity() -> "Permutation":
        return Permutation(())

    @staticmethod
    def transposition(i: int, j: int) -> "Permutation":
        if i == j or i < 1 or j < 1:
            raise ValueError(f"bad transposition ({i} {j})")
        return Permutation.from_cycles([(i, j)])

    @staticmethod
    def adjacent(i: int) -> "Permutation":
        """The adjacent transposition swapping i and i+1."""
        return Permutation.transposition(i, i + 1)

    @staticmethod
    def longest(n: int) -> "Permutation":
        """The order-reversing permutation on 1..n."""
        return Permutation(range(n, 0, -1))

    @staticmethod
    def from_word(word: Iterable[int]) -> "Permutation":
        """Product of adjacent transpositions, rightmost letter acting first."""
        w = Permutation.identity()
        for i in word:
            w = w * Permutation.adjacent(i)
        return w

    @staticmethod
    def from_cycles(cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles; (a b c) sends a to b, b to c, c to a."""
        mapping: dict[int, int] = {}
        for cyc in cycles:
            cyc = tuple(as_int(x, "cycle point") for x in cyc)
            for k, x in enumerate(cyc):
                if x < 1:
                    raise ValueError(f"points are 1-based, got {x}")
                if x in mapping:
                    raise ValueError(f"cycles not disjoint at {x}")
                mapping[x] = cyc[(k + 1) % len(cyc)]
        m = max(mapping, default=0)
        return Permutation(mapping.get(i, i) for i in range(1, m + 1))


@lru_cache(maxsize=4096)
def _inversions(imgs: tuple[int, ...]) -> int:
    """Inversions of a one-line notation; bounded, as a search meets each w a few times."""
    return sum(
        1
        for i in range(len(imgs))
        for j in range(i + 1, len(imgs))
        if imgs[i] > imgs[j]
    )


def require_minimal(w: Permutation, values: Sequence[int], role: str) -> None:
    """Raise MinimalityError unless w is minimal in its coset for the ties of ``values``.

    The ties are the runs of equal values, and w is minimal exactly when it is
    increasing on each run: w(i) < w(i+1) wherever values[i-1] == values[i].
    """
    imgs, pairs = w.images, range(min(w.n, len(values)) - 1)
    if any(values[k] == values[k + 1] and imgs[k] > imgs[k + 1] for k in pairs):
        pos = count(1)
        blocks = [[next(pos) for _ in run] for _, run in groupby(values)]
        raise MinimalityError(f"{role} is not increasing on the tied blocks {blocks}")


def cycle_permutation(k: int) -> Permutation:
    """The cycle (1 2 ... k); k <= 1 gives the identity."""
    if k <= 1:
        return Permutation.identity()
    return Permutation.from_cycles([tuple(range(1, k + 1))])


def permutations_of_length(n: int, target: int) -> Iterator[Permutation]:
    """All permutations moving at most 1..n with the given inversion count."""

    def codes(pos: int, left: int) -> Iterator[list[int]]:
        if pos == n:
            if left == 0:
                yield []
            return
        cap = n - pos - 1
        for c in range(min(cap, left), -1, -1):
            for rest in codes(pos + 1, left - c):
                yield [c] + rest

    for code in codes(0, target):
        avail = list(range(1, n + 1))
        imgs = [avail.pop(c) for c in code]
        yield Permutation(imgs)
