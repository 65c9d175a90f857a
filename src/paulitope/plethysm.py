"""Characters, Cauchy-form symmetric powers, and their highest weights.

A character is a multiset of weights, kept in one of two storages:

* ``SparsePoly`` (from ``polynomials``) maps exponent tuples of length r to
  multiplicities, the character being that polynomial in x_1..x_r.  It holds
  sparse inputs: the character of one Schur functor, or a product of linear
  forms.
* ``LatticeCharacter`` is one homogeneous degree of a character on GL_r or
  on GL_r x GL_k: a degree of a symmetric-power series, or of a
  ``SparsePoly`` laid out densely.  The degree fixes the coordinate sum of
  each group (levels, ranks), so the last coordinate of every group is
  dropped and the character is a dense integer array over the free
  coordinates only.

The symmetric powers of V (x) C^k, with V = S_nu C^r and k the rank bound,
come from one Newton recurrence.  By the Cauchy identity (Macdonald,
*Symmetric Functions and Hall Polynomials*, I.4)

    Sym^m(V (x) C^k) = sum over mu |- m, l(mu) <= k of S_mu V (x) S_mu C^k,

so the GL_r x GL_k highest weights (lam, mu) of degree m are exactly the
components lam of the plethysms S_mu V.  The recurrence is
m h_m = sum_j Adams_j(V (x) C^k) h_{m-j}, and the Adams operations are ring
maps (Macdonald, I.5), so each term is one sweep per tensor factor: the
weights of V shift h_{m-j} into a temporary, at most (m / (m + 1))^(k-1)
the size of degree m, and the k weights of C^k shift that into degree m.
Every shift is one slice-add over contiguous memory: degree m's trailing
axes are viewed as one run, until it holds _MERGED_RUN entries, h_{m-j} is
placed once per j at the run's strides, and a weight becomes a slice over
the leading axes plus one flat offset in the run, with no carries.
Each degree, of the series or of a ``SparsePoly`` laid out densely, is
decomposed once, by a Weyl alternation over W = S_r x S_k into integer rows
of highest weights, which the degree checks (no negative multiplicity, and
Weyl's formula multiplied out on the rows for the dimension) and caches as
its ``components``.  Both routes read a dominant weight as its keys lam_i - i
and per free axis the mask of the values pi(i) that keep lam_i - i + pi(i)
in the degree's array, and their blocks take the same arguments: the direct
alternation gathers the whole orbit, a cached ``itertools`` table, and keeps
the terms every axis allows, the pruned one builds only those, one
coordinate at a time.  The order |W| alone picks the route, pruned from
_PRUNED_ORDER on, and sizes the blocks of rows, the route's budget over |W|.
The dict engine it replaced (Jacobi-Trudi plethysms, decomposition by
peeling) and the former decomposition of a ``SparsePoly`` by binary search
over its terms are kept as the reference in ``tests/oracles.py``.

Every step is exact, through the same code in every integer type.  Each
degree of the series is stored as int32, int64 or Python integers
(``dtype=object``), the narrowest its bound fits, and the bound is read from
the degrees already built (see ``_newton_step``); a degree's alternation sums
take int64 when |W| times its largest entry fits, Python integers otherwise.
Other dense entries are int64 when a bound on them fits and Python integers
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations
from math import comb, factorial, lcm, prod
from operator import mul
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ResourceLimitError, as_int
from .polynomials import SparsePoly, schur_polynomial
from .tableaux import normalize, size

INNER_POINT_LEVEL_CAP = 8
INNER_POINT_DEGREE_CAP = 24

# Largest entry an int64 array may hold; bounds above it switch to Python ints.
_INT64_LIMIT = int(np.iinfo(np.int64).max)
# Largest entry an int32 Newton degree may hold; bounds above it take int64.
_INT32_LIMIT = int(np.iinfo(np.int32).max)
# Most (dominant weight, orbit element) pairs one direct alternation block
# gathers: a block takes max(1, _GATHER_BLOCK // |W|) rows, |W| the order of
# the Weyl group S_g1 x S_g2 x ..., whose whole orbit each row meets.
_GATHER_BLOCK = 1 << 14
# Most partial permutations one pruned alternation step holds: a block takes
# max(1, _FRONTIER_BUDGET // |W|) rows, since a row's frontier never exceeds
# |W|.  A step's arrays peak at about 70 bytes per entry, some 18 MB here.
_FRONTIER_BUDGET = 1 << 18
# Smallest Weyl group order alternated by the pruned route.  Each route
# forced onto every degree (2-vCPU Xeon VM, in process, BENCH_25.json): the
# direct one is ahead at |W| = 24, 48, 144 and 240 (6.2 against 9.2 ms on
# degrees 1-6 of S_21 C^5 (x) C^2), the two are within noise at 120, and the
# pruned one is ahead from 576 on (5.7 against 4.2 ms on degrees 1-6 of
# Lambda^2 C^4 (x) C^4; 8.3 against 5.0 ms on c4's degrees 1-8, |W| = 720).
_PRUNED_ORDER = 576
# Shortest run the Newton step merges an accumulator's trailing axes into:
# the axes nearest the end join until the run holds this many entries (see
# _kept_axes).  Longer runs only add the zeros between the placed rows.  One
# degree per system under each value, interleaved in process (2-vCPU Xeon
# VM, BENCH_26.json): 4,096 is ahead or level everywhere.  No merge is twice
# as slow on degree 8 of Lambda^4 C^8 (991 against 445 ms); merging every
# axis is as slow there (1,007 ms) and on c5's degree 8 (63 against 39 ms),
# its runs up to half zeros; 1,024 leaves fermion-r7-m5's degree 5 at 3.2
# against 2.4 ms, and 16,384 costs c6's degree 12 26 against 22 ms.
_MERGED_RUN = 1 << 12


class LatticeCharacter:
    """One homogeneous degree of a character of GL_g1 x GL_g2 x ..., stored densely.

    ``groups`` are the group sizes, ``totals`` the coordinate sum of each
    group, and ``array`` has one axis per free coordinate: every coordinate
    of a group but its last, which the total fixes.  A weight's multiplicity
    sits at its free coordinates; a free position whose last coordinate would
    be negative holds 0, and so does every weight outside the array.  The
    array is made read-only, and the weight dict, the components and the
    largest absolute entry are each computed once, on first use.
    """

    def __init__(self, groups: tuple[int, ...], totals: tuple[int, ...], array: np.ndarray):
        self.groups = groups
        self.totals = totals
        self.array = array
        # the weights and components are cached, so the array must not change
        array.flags.writeable = False

    @cached_property
    def peak(self) -> int:
        """The largest absolute multiplicity, a Python int, 0 for an empty array."""
        return max(int(self.array.max(initial=0)), -int(self.array.min(initial=0)))

    def dimension(self) -> int:
        """The sum of the multiplicities, exact: summed in Python ints where int64 could overflow."""
        wide = self.array.dtype != object and self.array.size * self.peak > _INT64_LIMIT
        return int(self.array.sum(dtype=object if wide else None))

    def _free_coordinates(self, flat: np.ndarray) -> np.ndarray:
        """Free coordinates, one row each, of the entries at the given flat indices."""
        shape = self.array.shape
        free = np.empty((len(flat), len(shape)), dtype=np.int64)
        for axis, stride in enumerate(_strides(shape)):
            free[:, axis] = (flat // stride) % shape[axis]
        return free

    def _complete(self, free: np.ndarray) -> np.ndarray:
        """Complete weights from free coordinates: each group's total gives its last one."""
        columns = []
        start = 0
        for g, total in zip(self.groups, self.totals):
            part = free[:, start : start + g - 1]
            columns += [part, total - part.sum(axis=1, keepdims=True)]
            start += g - 1
        return np.concatenate(columns, axis=1)

    @cached_property
    def weights(self) -> dict[tuple[int, ...], int]:
        """The weight multiset as a dict of complete weight tuples, built on first use."""
        flat = np.flatnonzero(self.array)
        full = self._complete(self._free_coordinates(flat))
        return dict(zip(map(tuple, full.tolist()), self.array.ravel()[flat].tolist()))

    @cached_property
    def components(self) -> tuple[np.ndarray, np.ndarray]:
        """Highest weights, as rows of complete coordinates, and their multiplicities, read-only.

        Raises ValueError if any multiplicity comes out negative or the
        component dimensions do not sum to the dimension, since then the
        array was not a character.
        """
        full, mults = _decompose_lattice(self)
        if (mults < 0).any():
            bad = int(np.flatnonzero(mults < 0)[0])
            weight = tuple(full[bad].tolist())
            raise ValueError(f"negative multiplicity {mults[bad]} at {weight}: not a character")
        keep = mults != 0
        full, mults = full[keep], mults[keep]
        dims = _weyl_dimensions(full, self.groups)
        if sum(map(mul, mults.tolist(), dims.tolist())) != self.dimension():
            raise ValueError("component dimensions do not sum to the character dimension")
        full.flags.writeable = mults.flags.writeable = False
        return full, mults


def character(nu: Iterable[int], r: int) -> SparsePoly:
    """Character of the irreducible shape-nu representation on r levels."""
    nu = normalize(nu)
    if len(nu) > r:
        raise ValueError(f"shape {nu} needs more than {r} levels")
    return schur_polynomial(nu, r)


def _entry_dtype(bound: int):
    """Dtype for entries of absolute value at most ``bound``: int64 if it fits, else Python ints."""
    return np.int64 if bound <= _INT64_LIMIT else object


def _strides(shape: tuple[int, ...]) -> list[int]:
    """Flat-index step of each axis of a C-ordered array of this shape."""
    return [prod(shape[axis + 1 :]) for axis in range(len(shape))]


def plethysm_h_series(
    m_max: int, f: SparsePoly, k: int = 1, *, series: list[LatticeCharacter] | None = None
) -> list[LatticeCharacter]:
    """Characters of Sym^0 .. Sym^m_max of f (x) C^k.

    With k = 1 these are GL_r characters, the symmetric powers of f; with
    k > 1 they are GL_r x GL_k characters.  f must be homogeneous, and a
    character: a negative multiplicity raises ValueError, naming its weight,
    before any step.  Built by the Newton recurrence
    m h_m = sum_j Adams_j(f) Adams_j(C^k) h_{m-j}, one sweep per tensor
    factor (see ``_newton_step``): the weights of f shift the dense array of
    h_{m-j} into a temporary, and the weights of C^k shift the temporary
    into the accumulator.  Each shift adds over contiguous runs: the
    accumulator's trailing axes are merged into one run and h_{m-j} is laid
    out at its strides, so a weight is a slice over the leading axes plus
    one flat offset.  The division by m must be exact, and the dimension of
    every degree must be C(k dim f + m - 1, m); either failure raises
    ArithmeticError.  Degree 0 is int64; each degree above it is int32,
    int64 or Python ints, the narrowest that holds the bound of
    ``_newton_step``, read from the degrees below it, so the entries built
    decide, and a series extended across a change of type mixes types.

    ``series``, if given, must be a list this function returned or filled
    earlier for the same f and k.  It is extended in place with the degrees
    it lacks, so each degree is built once however often the series is
    asked for; the return value is a new list of degrees 0..m_max either
    way.  A series of other groups, or whose degree 0 is not trivial or
    whose degree 1 is not f (x) C^k, raises ValueError before any step.
    """
    m_max, k = as_int(m_max, "m_max"), as_int(k, "rank bound k")
    if m_max < 0:
        raise ValueError("negative power")
    if k < 1:
        raise ValueError("the rank must be at least 1")
    if not f.is_homogeneous():
        raise ValueError("symmetric powers need a homogeneous character")
    for wt, c in f.terms.items():
        if c < 0:
            raise ValueError(f"negative multiplicity {c} at weight {wt}: not a character")
    r = f.nvars
    degree = max(f.degree(), 0)  # the zero character's totals stay 0, not -m
    groups = (r,) if k == 1 else (r, k)
    # The weights of C^k (none for k = 1), then one factor per group, each
    # weight on all free coordinates and zero on the other group's: the
    # weights of f, then for k > 1 those of C^k (Adams_j multiplies them by
    # j).  The zero character's f (x) C^k has no weights, so neither factor
    # gets any.  Then the coordinate sums of each group in degree 1.
    units = [tuple(int(a == b) for b in range(k)) for a in range(k)] if k > 1 else [()]
    factors = [[(wt[:-1] + (0,) * (k - 1), mult) for wt, mult in f.terms.items()]]
    if k > 1:
        factors.append([((0,) * (r - 1) + e[:-1], 1) for e in units] if f.terms else [])
    totals = (degree,) if k == 1 else (degree, 1)
    if series is None:
        series = []
    else:
        _require_same_series(series, groups, {wt + e: c for wt, c in f.terms.items() for e in units})
    if not series:
        trivial = np.ones((1,) * (r + k - 2), dtype=np.int64)
        series.append(LatticeCharacter(groups, (0,) * len(groups), trivial))
    while len(series) <= m_max:
        series.append(_newton_step(series, factors, totals, k * sum(f.terms.values())))
    return series[: m_max + 1]


def _require_same_series(series: list, groups: tuple[int, ...], degree_one: dict) -> None:
    """Raise ValueError unless ``series`` holds the first degrees of the series of ``degree_one``.

    ``degree_one`` maps the complete weights of f (x) C^k to their
    multiplicities.  Degree 0 must be the trivial character of the groups,
    and degree 1, which is f (x) C^k itself, fixes every degree above it.
    """
    if any(not isinstance(term, LatticeCharacter) or term.groups != groups for term in series):
        raise ValueError(f"the series given is not one of characters of groups {groups}")
    if series and (any(series[0].totals) or series[0].dimension() != 1):
        raise ValueError("the series given does not start with the trivial character")
    if len(series) > 1 and series[1].weights != degree_one:
        raise ValueError("the series given was built for another character or rank bound")


def _newton_step(
    series: list[LatticeCharacter], factors: list[list], totals: tuple[int, ...], dim: int
) -> LatticeCharacter:
    """Degree m = len(series) of Sym(f (x) C^k), from the degrees below it.

    ``factors`` holds one list per group, the weights of f and then those of
    C^k, each weight on all free coordinates with its multiplicity;
    ``totals`` is the coordinate sum of each group in degree 1, and
    dim = k dim f.  Adams_j is a ring map, so Adams_j(f (x) C^k) h_{m-j} is
    one sweep per factor: h_{m-j} shifted by j times each weight of f goes
    into a temporary, and the temporary shifted by j times each weight of
    C^k into the accumulator.  With one factor (k = 1) the sweep adds
    straight into the accumulator.  That is |f| + k slice-adds per j, not
    |f| k, and the |f| of them run on the smaller array.  The temporary has
    the accumulator's level axes and the rank axes of h_{m-j}, so it is
    largest at j = 1, (m / (m + 1))^(k-1) of the accumulator.

    Every addend is nonnegative (``plethysm_h_series`` refuses a negative
    multiplicity), and Adams_j(f (x) C^k) has dim weights, counted with
    multiplicity, so every entry of the accumulator, of the temporary, of
    mult h_{m-j} and of h_m is at most B_m = dim sum_{j=1..m} max(h_{m-j}),
    each max the cached ``peak`` of a degree already built, by this call or
    in a series passed in.  The accumulator, the placed copies, the
    temporary and h_m all take one dtype: int32 when B_m fits it (B_10 of
    Lambda^4 C^8 is 1.2 10^9, B_11 8.2 10^9), int64 when that fits, and
    Python ints otherwise.  A degree below of another type is converted as it is
    placed; B_m bounds its entries, so the conversion is exact.

    Each slice-add runs over contiguous memory.  The C-ordered accumulator
    keeps its leading axes apart and is viewed with the rest merged into one
    run (``_kept_axes``), a reshape, not a copy.  For each j, h_{m-j} is
    placed once into a buffer at the run's strides (``_place``), and the
    temporary is laid out the same way, so a weight w shifts by j w_a on
    each kept axis and by the one flat offset j sum_a w_a stride_a in the
    run.  No offset carries into the next row of a merged axis, since every
    entry's x_a + j w_a <= m cap_a < shape_a, and the zeros the placed array
    holds between its rows add nothing.  The buffer and the temporary are
    each allocated once per degree, for their largest j, and neither is
    larger than the accumulator.
    """
    m = len(series)
    groups = series[0].groups
    ndim = series[0].array.ndim
    caps = [[max((wt[a] for wt, _ in factor), default=0) for a in range(ndim)] for factor in factors]
    dim_m = comb(dim + m - 1, m)
    bound = dim * sum(term.peak for term in series)
    dtype = np.int32 if bound <= min(_INT32_LIMIT, _INT64_LIMIT) else _entry_dtype(bound)
    shape = tuple(m * sum(c) + 1 for c in zip(*caps))
    acc = np.zeros(shape, dtype=dtype)
    lead = _kept_axes(shape)
    strides = _strides(shape[lead:])
    runs = acc.reshape(shape[:lead] + (prod(shape[lead:]),))

    def on_run(wt) -> tuple[int, ...]:
        """A weight's shifts on the kept axes, then its offset in the run."""
        return (*wt[:lead], sum(map(mul, wt[lead:], strides)))

    moves = [[(on_run(wt), mult) for wt, mult in factor] for factor in factors]
    reach = on_run(caps[0])  # how far the first factor's sweep grows the temporary (k > 1)
    extents = [_run_extent(series[m - j].array.shape, lead, strides) for j in range(1, m + 1)]
    placed = np.empty(max(map(prod, extents)), dtype=dtype)
    if len(factors) > 1:
        grown = (prod(n + j * c for n, c in zip(ext, reach)) for j, ext in enumerate(extents, 1))
        temp = np.empty(max(grown), dtype=dtype)
    for j in range(1, m + 1):
        prev = _place(series[m - j].array.astype(dtype, copy=False), lead, strides, placed)
        for i, factor in enumerate(moves):
            if i == len(moves) - 1:
                swept = runs
            else:
                extent = tuple(n + j * c for n, c in zip(prev.shape, reach))
                swept = temp[: prod(extent)].reshape(extent)
                swept.fill(0)
            for shift, mult in factor:
                window = tuple(slice(j * s, j * s + n) for s, n in zip(shift, prev.shape))
                swept[window] += prev if mult == 1 else mult * prev
            prev = swept
    if (acc % m).any():
        raise ArithmeticError(f"Newton recurrence does not divide exactly at degree {m}")
    acc //= m
    term = LatticeCharacter(groups, tuple(t * m for t in totals), acc)
    if term.dimension() != dim_m:
        raise ArithmeticError(f"degree {m} has dimension {term.dimension()}, not {dim_m}")
    return term


def _kept_axes(shape: tuple[int, ...]) -> int:
    """How many leading axes of a Newton accumulator stay apart; the rest merge into one run.

    The last axis is a run of its own, and the axes before it join the run,
    the nearest first, until it holds at least ``_MERGED_RUN`` entries.
    """
    lead = max(len(shape) - 1, 0)
    while lead and prod(shape[lead:]) < _MERGED_RUN:
        lead -= 1
    return lead


def _run_extent(shape: tuple[int, ...], lead: int, strides: list[int]) -> tuple[int, ...]:
    """Shape of an array of this shape laid out on an accumulator's run: kept axes, then its span.

    ``strides`` are the flat steps of the accumulator's merged axes inside
    the run, and the span, sum (n_a - 1) stride_a + 1, reaches from the
    array's first entry on the run to its last.
    """
    return (*shape[:lead], sum((n - 1) * s for n, s in zip(shape[lead:], strides)) + 1)


def _place(array: np.ndarray, lead: int, strides: list[int], buffer: np.ndarray) -> np.ndarray:
    """``array`` laid out on an accumulator's run, in ``buffer`` unless it is a run already.

    The kept axes stay as they are and the merged ones go to their entries'
    flat offsets in the run, with zeros between them.  With one merged axis
    or none the layout is the array's own, and it is returned as a view.
    """
    extent = _run_extent(array.shape, lead, strides)
    if array.ndim - lead <= 1:
        return array.reshape(extent)
    out = buffer[: prod(extent)].reshape(extent)
    out.fill(0)
    steps = out.strides[:lead] + tuple(s * out.itemsize for s in strides)
    as_strided(out, array.shape, steps)[...] = array
    return out


def _lex_permutations(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of range(g) in lexicographic order, one row each, and its inversion count.

    ``itertools.permutations`` gives the rows in that order; the inversions
    are counted with one comparison per pair of positions.
    """
    count = factorial(g)
    perms = np.fromiter(chain.from_iterable(permutations(range(g))), np.int64, count * g)
    perms = perms.reshape(count, g)
    pairs = (perms[:, i] > perms[:, j] for i, j in combinations(range(g), 2))
    return perms, sum(pairs, np.zeros(count, dtype=np.int64))


@lru_cache(maxsize=None)
def _orbit(groups: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """pi(i) on the free axes and the sign of every w in S_g1 x S_g2 x ..., one row each.

    Each group's permutation pi gives its first g - 1 values, one column per
    free axis, and the rows run through each S_g in lexicographic order.
    The arrays are cached, so they are made read-only.
    """
    perms = np.zeros((1, 0), dtype=np.int64)
    signs = np.ones(1, dtype=np.int64)
    for g in groups:
        lex, inversions = _lex_permutations(g)
        perms = np.concatenate(
            [np.repeat(perms, len(lex), axis=0), np.tile(lex[:, : g - 1], (len(perms), 1))], axis=1
        )
        signs = np.repeat(signs, len(lex)) * np.tile(1 - 2 * (inversions % 2), len(signs))
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


def _alternate(key, allowed, groups, strides, values, dtype) -> np.ndarray:
    """Weyl alternation sums sum_w sign(w) f(lam + delta - w(delta)), one per row of ``key``, in ``dtype``.

    One block of the direct route, with the arguments of ``_pruned_block``:
    every row meets the whole orbit, the cached ``_orbit(groups)``, and a
    term is kept when every free axis i allows its value pi(i), as
    ``_pruned_block`` reads ``key`` and ``allowed``.  It is the route for
    small Weyl groups and the reference for ``_pruned_block``.  ``strides``
    are the flat index steps of the degree's array and ``values`` its flat
    multiplicities, gathered in their own dtype and signed in ``dtype``.
    """
    perms, signs = _orbit(groups)
    bits = 1 << perms
    valid = np.ones((len(key), len(perms)), dtype=bool)
    for axis in range(perms.shape[1]):
        valid &= allowed[:, axis, None] & bits[:, axis] != 0
    flat = np.where(valid, (key @ strides)[:, None] + perms @ strides, 0)
    terms = np.multiply(np.where(valid, values[flat], 0), signs, dtype=dtype, casting="unsafe")
    return terms.sum(axis=1)


def _dominant_flat(f: LatticeCharacter) -> np.ndarray:
    """Flat indices, ascending, of the dominant weights (weakly decreasing in each group) in the support.

    Only the dominant weights inside the box are visited, one free axis at a
    time: on the axis of part i of a group, each partial weight takes every
    part from ceil(rest / (g - i)), since it is the largest of the g - i
    parts left, to the least of the part before it, the rest of the group's
    total and the box; the group's last part is what is left.  The parts
    are taken in increasing order within each partial weight, so the flat
    indices come out ascending.
    """
    shape = f.array.shape
    strides = _strides(shape)
    flat = np.zeros(1, dtype=np.int64)
    axis = 0
    for g, total in zip(f.groups, f.totals):
        rest = part = np.full(len(flat), total, dtype=np.int64)
        for i in range(g - 1):
            low = -(-rest // (g - i))
            count = np.maximum(np.minimum(np.minimum(part, rest), shape[axis] - 1) - low + 1, 0)
            at = np.repeat(np.arange(len(flat)), count)
            part = low[at] + np.arange(len(at)) - np.repeat(np.cumsum(count) - count, count)
            flat = flat[at] + strides[axis] * part
            rest = rest[at] - part
            axis += 1
    return flat[f.array.take(flat) != 0]


@lru_cache(maxsize=None)
def _value_tables(g: int) -> tuple[np.ndarray, np.ndarray]:
    """The bits of each mask of values of range(g), and the moves of a pruned step.

    A state is a mask of used values plus a parity bit, bit g.  ``bits`` is
    the (2^g, g) table of the bits of each mask; ``moves[state * g + v]`` is
    the state after placing the unused value v.  The parity flips by (the
    used values above v) + v: the first term counts the inversions that v
    adds, and the + v makes the group's last position, which takes the value
    u left over and adds g - 1 - u inversions, a constant of the group,
    since u = C(g, 2) - (the sum of the others).  The tables are cached, so
    they are read-only.
    """
    states = np.arange(2 << g)[:, None]
    v = np.arange(g)
    above = sum(((states >> b) & 1) * (v < b) for b in range(g))
    bits = ((states[: 1 << g] >> v) & 1) == 1
    moves = ((states | (1 << v)) ^ (((above + v) & 1) << g)).ravel()
    for table in (bits, moves):
        table.flags.writeable = False
    return bits, moves


def _extend(allowed, stride, g, row, flat, state):
    """One pruned step: each partial permutation takes every value its row allows and it has not used.

    ``allowed`` holds per row the mask of values pi(i) that keep the key of
    the free axis i being assigned in the box, and ``stride`` is that axis's
    flat index step.  ``row``, ``flat`` and ``state`` (the group's used
    values and the parity, see ``_value_tables``) describe the frontier, one
    entry per partial permutation, grouped by row; the new one keeps that
    order.
    """
    bits, moves = _value_tables(g)
    at, v = np.divmod(np.flatnonzero(np.take(bits, allowed[row] & ~state, axis=0)), g)
    return row[at], flat[at] + stride * v, np.take(moves, state[at] * g + v)


def _pruned_block(key, allowed, groups, strides, values, dtype) -> np.ndarray:
    """The sums of ``_alternate``, over only the orbit elements every free axis allows.

    One block of the pruned route.  On free axis i of a group the key is
    lam_i + delta_i - delta_pi(i) = key_i + pi(i), with ``key`` = lam_i - i
    and pi the group's permutation; ``allowed``, read by both routes, holds
    the mask of the values pi(i) that keep it in the box.  Each pi is built
    one position at a time, the coset split S_g = S_{g-1} t_0 + ... +
    S_{g-1} t_{g-1} on the first value, so a partial permutation survives
    only while every key assigned so far is in the box.  The last position
    of a group takes the value left over; the total fixes its coordinate,
    and the array holds 0 where that is negative.  Each term carries its
    row, flat index, used values and inversion parity forward step by step,
    and the terms are signed and summed per row exactly, in ``dtype`` (int64
    or Python ints).  A row's partial permutations at any step are at
    most the order of S_g1 x S_g2 x ..., so a block's frontier is at most
    its rows times that order.
    """
    row = np.arange(len(key))
    flat = key @ strides  # the identity's keys; each step adds stride * pi(i)
    parity = np.zeros(len(key), dtype=np.int64)
    axis = 0
    for g in groups:
        state = parity << g
        for _ in range(g - 1):
            row, flat, state = _extend(allowed[:, axis], strides[axis], g, row, flat, state)
            axis += 1
        parity = (state >> g) ^ ((g - 1 - comb(g, 2)) & 1)  # the last position, see _value_tables
    terms = np.multiply(values[flat], 1 - 2 * parity, dtype=dtype, casting="unsafe")
    # every row keeps its identity term, so each row starts one run of ``row``
    return np.add.reduceat(terms, np.flatnonzero(np.r_[True, row[1:] != row[:-1]]))


def _takes_pruned_route(order: int) -> bool:
    """Whether a degree is alternated by the pruned route, from its Weyl group's order alone."""
    return order >= _PRUNED_ORDER


def _decompose_lattice(f: LatticeCharacter):
    """Dominant weights, as complete coordinate rows, and their alternation sums.

    Every decomposition of the package runs here.  Both routes read each
    dominant weight as its keys and masks (see ``_pruned_block``).  The
    order of the Weyl group S_g1 x S_g2 x ... picks the block, direct
    (``_alternate``) or pruned (``_pruned_block``), by ``_takes_pruned_route``;
    both take the same arguments, and the rows go in blocks of the route's
    budget over that order, at least one row each.  A row meets at most that
    many orbit elements on either route, so no block holds more terms than
    its budget, a lone row aside.  Only the direct block reads the orbit
    table, so it is built for that route alone.

    Each sum has at most |W| terms of absolute value at most the degree's
    ``peak``, so the sums are int64 when |W| peak fits and Python ints
    otherwise, whatever the degree's own dtype: the blocks gather entries
    in that dtype, int32 for most degrees of a series, and sign and sum
    them in the sums'.  Their unchecked cast from Python ints to int64
    raises OverflowError past int64; it cannot wrap.
    """
    free = f._free_coordinates(_dominant_flat(f))
    strides = np.array(_strides(f.array.shape), dtype=np.int64)
    values = f.array.ravel()
    # The key on free axis i of a group of size g is lam_i - i + pi(i),
    # and the values pi(i) in 0..g-1 that keep it in the box form one
    # run, which holds pi(i) = i, the row's own weight.
    sizes = np.array([g for g in f.groups for _ in range(g - 1)], dtype=np.int64)
    key = free - np.array([i for g in f.groups for i in range(g - 1)], dtype=np.int64)
    low = np.maximum(0, -key)
    admitted = np.minimum(sizes, np.array(f.array.shape, dtype=np.int64) - key) - low
    allowed = ((1 << admitted) - 1) << low
    order = prod(factorial(g) for g in f.groups)
    dtype = _entry_dtype(order * f.peak)
    if _takes_pruned_route(order):
        block, budget = _pruned_block, _FRONTIER_BUDGET
    else:
        block, budget = _alternate, _GATHER_BLOCK
    rows = max(1, budget // order)
    sums = [
        block(key[start : start + rows], allowed[start : start + rows], f.groups, strides, values, dtype)
        for start in range(0, len(free), rows)
    ]
    return f._complete(free), np.concatenate(sums) if sums else np.zeros(0, dtype=dtype)


def _lattice_degrees(f: SparsePoly) -> list[LatticeCharacter]:
    """``f`` laid out as GL_r ``LatticeCharacter``s, one per degree, lowest first.

    Each free axis is as long as its largest exponent plus one.  Entries are
    int64 when max(r!, terms) max|c| fits: it bounds every degree's sum and
    every alternation sum.
    """
    r = f.nvars
    exponents = np.array(list(f.terms), dtype=np.int64).reshape(-1, r)
    bound = max(factorial(r), len(f.terms)) * max(map(abs, f.terms.values()), default=0)
    values = np.array(list(f.terms.values()), dtype=_entry_dtype(bound))
    degrees = exponents.sum(axis=1)
    layout = []
    for degree in np.unique(degrees).tolist():
        free = exponents[degrees == degree, :-1]
        shape = tuple((free.max(axis=0) + 1).tolist())
        array = np.zeros(prod(shape), dtype=values.dtype)
        array[free @ np.array(_strides(shape), dtype=np.int64)] = values[degrees == degree]
        layout.append(LatticeCharacter((r,), (degree,), array.reshape(shape)))
    return layout


def _weyl_dimensions(full: np.ndarray, groups: tuple[int, ...]) -> np.ndarray:
    """Dimension of the irreducible with each row of complete coordinates as highest weight.

    Each group contributes Weyl's prod_{i<j} (l_i - l_j + j - i) / (j - i),
    multiplied out exactly: int64 when the bound prod_g (spread + g - 1)^C(g,2)
    on the numerators fits, spread the largest entry minus the smallest,
    and Python ints otherwise.  The rows must be dominant.
    """
    spread = int(full.max(initial=0)) - int(full.min(initial=0))
    dtype = _entry_dtype(prod((spread + g - 1) ** comb(g, 2) for g in groups))
    dims = np.ones(len(full), dtype=dtype)
    start = 0
    for g in groups:
        block = full[:, start : start + g].astype(dtype)
        for i, j in combinations(range(g), 2):
            dims *= block[:, i] - block[:, j] + (j - i)
        dims //= prod(factorial(i) for i in range(g))  # the product of the j - i
        start += g
    return dims


def schur_decompose(f: SparsePoly | LatticeCharacter) -> dict:
    """Highest weights and multiplicities of a character.

    Each dominant weight lam in the support is tested with the Weyl
    alternation sum_w sign(w) f(lam + delta - w(delta)) over W = S_r, or
    W = S_r x S_k for a GL_r x GL_k character, direct or pruned as the order
    of W decides (see ``_decompose_lattice``).  A ``SparsePoly`` is
    laid out as one GL_r ``LatticeCharacter`` per degree first (see
    ``_lattice_degrees``), and the decompositions of its degrees are merged,
    so a non-homogeneous character decomposes too.  Keys are partitions for
    a GL_r character and (lam, mu) pairs of partitions for a GL_r x GL_k
    one.  Raises ValueError if any multiplicity comes out negative or the
    dimension count of a degree does not add up, since then f was not a
    character.
    """
    result: dict = {}
    for term in [f] if isinstance(f, LatticeCharacter) else _lattice_degrees(f):
        full, mults = term.components
        # The rows are dominant and nonnegative, so each group's parts are
        # its leading nonzero entries.
        parts = []
        start = 0
        for g in term.groups:
            block = full[:, start : start + g]
            lengths = np.count_nonzero(block, axis=1)
            parts.append([tuple(row[:n]) for row, n in zip(block.tolist(), lengths.tolist())])
            start += g
        result.update(zip(parts[0] if len(parts) == 1 else zip(*parts), mults.tolist()))
    return result


def _check_request(nu, r, rank_bound, m_cap, level_cap, degree_cap) -> tuple[int, int, int]:
    """Refuse inner points up to m_cap before anything is built: non-integers, caps, arguments.

    Returns the level count, the rank bound and m_cap as ints.
    """
    rank_bound, m_cap = as_int(rank_bound, "rank bound"), as_int(m_cap, "cutoff m_cap")
    r = as_int(r, "level count")
    if r > level_cap:
        raise ResourceLimitError(f"inner_points: r={r} exceeds the level cap {level_cap}")
    if size(nu) * m_cap > degree_cap:
        raise ResourceLimitError(
            f"inner_points: |nu| * M = {size(nu) * m_cap} exceeds the degree cap {degree_cap}"
        )
    if rank_bound < 1:
        raise ValueError("rank bound must be at least 1")
    if m_cap < 0:
        raise ValueError("negative power")
    return r, rank_bound, m_cap


def inner_points(
    nu: Iterable[int],
    r: int,
    rank_bound: int,
    m_cap: int,
    level_cap: int = INNER_POINT_LEVEL_CAP,
    degree_cap: int = INNER_POINT_DEGREE_CAP,
    *,
    series: list[LatticeCharacter] | None = None,
    rows: bool = False,
) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] | np.ndarray:
    """Normalized highest-weight points of all Schur functors up to degree m_cap.

    For every shape mu of size m <= m_cap with at most rank_bound rows, each
    component lam of the plethysm of f = character(nu, r) with S_mu yields
    the point (lam / m, mu / m); the first coordinate sums to the particle
    number, the second to one.  The pairs (lam, mu) are the highest weights
    of Sym^m(f (x) C^rank_bound), by the Cauchy identity.  The points are
    distinct and sorted.

    ``series`` is passed on to ``plethysm_h_series``: a caller that keeps one
    list for rising cutoffs of the same nu, r and rank bound builds each
    degree once, and decomposes each degree once, since a degree caches its
    components.  The points are those of the cutoff either way.

    With ``rows=True`` the result is instead the integer matrix that
    ``hull(rows=True)`` takes, of the hull's points lam / m (then mu / m
    when rank_bound > 1): ``polytope._row_matrix(points, dim, lead=True)``,
    rows, order and dtype alike, built with no ``Fraction`` by
    ``_hull_rows``.  The points come from that matrix too.
    """
    nu = normalize(nu)
    r, rank_bound, m_cap = _check_request(nu, r, rank_bound, m_cap, level_cap, degree_cap)
    series = plethysm_h_series(m_cap, character(nu, r), rank_bound, series=series)
    matrix = _hull_rows([schur_decompose(series[m]) for m in range(1, m_cap + 1)], r, rank_bound)
    if rows:
        return matrix
    # Each point times the lcm of the row leads is an integer tuple, which
    # sorts like the fractions; the coordinates take few distinct values, so
    # each Fraction is made once.
    table = matrix.tolist()
    scale = lcm(*{row[0] for row in table})
    keys = sorted(tuple(x * (scale // row[0]) for x in row[1:]) for row in table)
    fraction = {x: Fraction(x, scale) for x in set(chain.from_iterable(keys))}
    points = [tuple(map(fraction.__getitem__, key)) for key in keys]
    if rank_bound == 1:  # the one rank coordinate is m / m
        return [(point, (Fraction(1),)) for point in points]
    return [(point[:r], point[r:]) for point in points]


def _hull_rows(decompositions: list[dict], r: int, rank_bound: int) -> np.ndarray:
    """The hull's row matrix of the components of degrees 1, 2, ...: (m, lam, mu) / gcd, sorted.

    ``decompositions`` holds ``schur_decompose`` of each degree m in turn.
    Each degree's keys become one int64 block of rows (m, lam padded to r,
    then mu padded to rank_bound unless that is 1), each divided by its gcd:
    the primitive row of the point lam / m (then mu / m) that
    ``polytope._row_matrix(points, dim, lead=True)`` builds.  The blocks are
    sorted and deduplicated together.  The dtype follows ``_row_matrix``'s
    bound, max(1, max numerator) * lcm(denominators): in a row (d, a) the
    numerator of a_i / d is a_i / gcd(a_i, d), and the lcm is that of the leads.
    """
    from .polytope import _lcm_int64, _sorted_rows  # polytope imports this module

    width = r if rank_bound == 1 else r + rank_bound
    blocks = [np.empty((width + 1, 0), dtype=np.int64)]
    for m, components in enumerate(decompositions, start=1):
        if rank_bound == 1:
            padded = (lam + (0,) * (r - len(lam)) for lam in components)
        else:
            padded = (lam + (0,) * (r - len(lam)) + mu + (0,) * (rank_bound - len(mu)) for lam, mu in components)
        block = np.empty((width + 1, len(components)), dtype=np.int64)
        block[0] = m
        block[1:] = np.fromiter(chain.from_iterable(padded), np.int64, block[1:].size).reshape(-1, width).T
        block //= np.gcd.reduce(block, axis=0)
        blocks.append(block)
    matrix = _sorted_rows(np.concatenate(blocks, axis=1))
    lead = matrix[:, :1]
    top = int((matrix[:, 1:] // np.gcd(matrix[:, 1:], lead)).max(initial=0))
    return matrix.astype(_entry_dtype(max(top, 1) * _lcm_int64(lead.ravel())), copy=False)
