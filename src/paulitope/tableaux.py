"""Partitions, semistandard tableaux, and classical tableau counts.

Partitions are tuples of weakly decreasing nonnegative integers with trailing
zeros stripped.  The public functions normalize what they are given; the
underscore helpers take canonical partitions and do not check them.  A
semistandard tableau is a tuple of row tuples, weakly increasing along rows
and strictly increasing down columns.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import as_int

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


def normalize(parts: Iterable[int]) -> Partition:
    """Canonical partition: validated weakly decreasing, trailing zeros removed."""
    p = tuple(x if type(x) is int else as_int(x, "partition part") for x in parts)
    for i in range(len(p) - 1):
        if p[i] < p[i + 1]:
            raise ValueError(f"parts not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def size(shape: Iterable[int]) -> int:
    """Number of cells."""
    return sum(normalize(shape))


def transpose(shape: Iterable[int]) -> Partition:
    """Conjugate partition (reflect the diagram across the diagonal)."""
    p = normalize(shape)
    if not p:
        return ()
    return tuple(sum(1 for row in p if row > j) for j in range(p[0]))


def contains(outer: Iterable[int], inner: Iterable[int]) -> bool:
    """True when the diagram of ``inner`` fits inside the diagram of ``outer``."""
    a, b = normalize(outer), normalize(inner)
    if len(b) > len(a):
        return False
    return all(b[i] <= a[i] for i in range(len(b)))


def partitions_in_box(rows: int, cols: int, total: int | None = None) -> Iterator[Partition]:
    """All partitions with at most ``rows`` parts, each at most ``cols``.

    With ``total`` set, only partitions of that size are produced, in the
    same order; a negative total, or one above rows * cols, gives none.
    ``rows``, ``cols`` and ``total`` must be integers.
    """
    rows, cols = as_int(rows, "rows"), as_int(cols, "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"box needs rows, cols >= 0, got {rows} x {cols}")
    if total is not None:
        return _partitions_of(as_int(total, "total"), rows, cols, ())

    def rec(remaining_rows: int, cap: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        yield prefix
        if remaining_rows == 0:
            return
        for part in range(cap, 0, -1):
            yield from rec(remaining_rows - 1, part, prefix + (part,))

    return rec(rows, cols, ())


def _partitions_of(left: int, rows: int, cap: int, prefix: Partition) -> Iterator[Partition]:
    """The prefix extended by every partition of ``left`` into at most ``rows`` parts <= cap.

    Parts go largest first, so a part below ceil(left / rows) could not be
    followed by enough cells, and the order is that of the full box walk.
    """
    if left == 0:
        yield prefix
    elif left > 0 and rows > 0:
        for part in range(min(cap, left), -(-left // rows) - 1, -1):
            yield from _partitions_of(left - part, rows - 1, part, prefix + (part,))


def reading_word(tab: Tableau) -> tuple[int, ...]:
    """Row reading word: rows concatenated top to bottom, left to right."""
    return tuple(x for row in tab for x in row)


def content_vector(tab: Tableau, r: int) -> tuple[int, ...]:
    """Multiplicity of each entry 1..r in the tableau."""
    counts = [0] * r
    for row in tab:
        for x in row:
            counts[x - 1] += 1
    return tuple(counts)


def is_semistandard(tab: Tableau, shape: Iterable[int] | None = None) -> bool:
    """Check row-weak and column-strict conditions (and the shape, if given)."""
    if shape is not None and tuple(len(row) for row in tab) != normalize(shape):
        return False
    for row in tab:
        if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(1, len(tab)):
        if len(tab[i]) > len(tab[i - 1]):
            return False
        if any(tab[i][j] <= tab[i - 1][j] for j in range(len(tab[i]))):
            return False
    return True


def enumerate_ssyt(shape: Iterable[int], max_entry: int) -> list[Tableau]:
    """All semistandard tableaux of the given shape with entries in 1..max_entry.

    The result is sorted by row reading word; the list is empty when the shape
    has more rows than ``max_entry`` allows.  Each call returns a new list.
    """
    return list(_ssyt(normalize(shape), max_entry)[0])


@lru_cache(maxsize=None)
def _ssyt(
    shape: Partition, max_entry: int
) -> tuple[tuple[Tableau, ...], tuple[tuple[int, ...], ...]]:
    """The tableaux of ``enumerate_ssyt`` and their content rows, built once per argument pair."""
    if max_entry < 1:
        raise ValueError("max_entry must be at least 1")
    tableaux = _fill_ssyt(shape, max_entry)
    return tableaux, tuple(content_vector(tab, max_entry) for tab in tableaux)


def _fill_ssyt(shape: Partition, max_entry: int) -> tuple[Tableau, ...]:
    """Fill the normalized shape row by row, then sort by reading word."""
    if not shape:
        return ((),)
    if len(shape) > max_entry:
        return ()

    out: list[Tableau] = []
    nrows = len(shape)
    col_len = transpose(shape)

    def fill_row(i: int, prev: tuple[int, ...], acc: tuple[tuple[int, ...], ...]) -> None:
        if i == nrows:
            out.append(acc)
            return
        length = shape[i]
        row = [0] * length

        def cell(j: int) -> None:
            if j == length:
                fill_row(i + 1, tuple(row), acc + (tuple(row),))
                return
            lo = row[j - 1] if j > 0 else 1
            if i > 0:
                lo = max(lo, prev[j] + 1)
            # the col_len[j] - 1 - i cells below need strictly larger entries
            cap = max_entry - (col_len[j] - 1 - i)
            for val in range(lo, cap + 1):
                row[j] = val
                cell(j + 1)

        cell(0)

    fill_row(0, (), ())
    out.sort(key=reading_word)
    return tuple(out)


def count_skew_standard(gamma: Iterable[int], tau: Iterable[int]) -> int:
    """Number of standard fillings of the skew diagram gamma/tau.

    Returns 0 when tau is not contained in gamma, and 1 for the empty skew
    shape.
    """
    g, t = normalize(gamma), normalize(tau)
    if not contains(g, t):
        return 0
    return _skew_standard(g, t)


@lru_cache(maxsize=None)
def _skew_standard(gamma: Partition, tau: Partition) -> int:
    """Standard fillings of gamma/tau, for canonical partitions with tau inside gamma."""
    if sum(gamma) == sum(tau):
        return 1
    total = 0
    for i in range(len(gamma)):
        below = gamma[i + 1] if i + 1 < len(gamma) else 0
        if gamma[i] > below and gamma[i] - 1 >= (tau[i] if i < len(tau) else 0):
            # the removed corner keeps the parts decreasing; a part of 1 is the last row
            smaller = gamma[:i] + (gamma[i] - 1,) + gamma[i + 1 :] if gamma[i] > 1 else gamma[:i]
            total += _skew_standard(smaller, tau)
    return total


def kostka(shape: Iterable[int], content: Iterable[int]) -> int:
    """Number of semistandard tableaux of the given shape and content."""
    shape = normalize(shape)
    content = tuple(as_int(c, "content entry") for c in content)
    if any(c < 0 for c in content):
        return 0
    if sum(content) != size(shape):
        return 0
    return _kostka(shape, content)


@lru_cache(maxsize=None)
def _kostka(shape: Partition, content: tuple[int, ...]) -> int:
    while content and content[-1] == 0:
        content = content[:-1]
    if not content:
        return 1 if not shape else 0
    total = 0
    for mu in _horizontal_strips_inside(shape, content[-1]):
        total += _kostka(mu, content[:-1])
    return total


def _horizontal_strips_inside(shape: Partition, cells: int) -> Iterator[Partition]:
    """Partitions mu inside shape with shape/mu a horizontal strip of size cells."""

    def rec(i: int, prefix: tuple[int, ...], left: int) -> Iterator[Partition]:
        if i == len(shape):
            if left == 0:
                yield normalize(prefix)
            return
        below = shape[i + 1] if i + 1 < len(shape) else 0
        hi = shape[i]
        lo = max(below, hi - left)
        for part in range(hi, lo - 1, -1):
            if prefix and part > prefix[-1]:
                continue
            yield from rec(i + 1, prefix + (part,), left - (hi - part))

    yield from rec(0, (), cells)


def littlewood_richardson(mu: Iterable[int], pi: Iterable[int], nu: Iterable[int]) -> int:
    """Multiplicity of the nu component in the product of mu and pi characters.

    Counts column-strict fillings of nu/mu with content pi whose reverse
    reading word is a lattice word.
    """
    mu, pi, nu = normalize(mu), normalize(pi), normalize(nu)
    if size(mu) + size(pi) != size(nu):
        return 0
    if not contains(nu, mu):
        return 0
    inner = mu + (0,) * (len(nu) - len(mu))
    cells = [
        (i, j)
        for i in range(len(nu))
        for j in range(nu[i] - 1, inner[i] - 1, -1)
    ]
    values: dict[tuple[int, int], int] = {}
    counts = [0] * (len(pi) + 1)
    total = 0

    def place(pos: int) -> None:
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        hi = len(pi)
        right = values.get((i, j + 1))
        if right is not None:
            hi = min(hi, right)
        above = values.get((i - 1, j))
        lo = (above + 1) if above is not None else 1
        for k in range(lo, hi + 1):
            if counts[k] >= pi[k - 1]:
                continue
            if k > 1 and counts[k] >= counts[k - 1]:
                continue
            counts[k] += 1
            values[(i, j)] = k
            place(pos + 1)
            counts[k] -= 1
            del values[(i, j)]

    place(0)
    return total


class FramedDiagram(NamedTuple):
    """A partition together with the rectangle (rows x cols) that frames it."""

    diagram: Partition
    rows: int
    cols: int

    def validate(self) -> "FramedDiagram":
        d = normalize(self.diagram)
        if len(d) > self.rows or (d and d[0] > self.cols):
            raise ValueError(f"{d} does not fit in a {self.rows}x{self.cols} frame")
        return FramedDiagram(d, self.rows, self.cols)


def shuffle_vertical_sequence(framed: FramedDiagram) -> tuple[int, ...]:
    """Index sequence of the vertical steps on the lattice path tracing the diagram.

    Walking the boundary of the diagram inside its p x q frame from top right
    to bottom left, step k is vertical exactly at position k + gamma_{p+1-k}.
    """
    framed = framed.validate()
    p, q = framed.rows, framed.cols
    padded = framed.diagram + (0,) * (p - len(framed.diagram))
    return tuple(k + padded[p - k] for k in range(1, p + 1))
