"""Exact convex geometry over the rationals and the moment-polytope loop.

The double description core works on integer vectors with bitmask incidence
sets, so every hull, vertex, and facet computation is exact.  The pipeline
alternates between hulls of representation-theoretic inner points and outer
polytopes cut out by the inequalities those hulls suggest; when the two
coincide, which the facet certificates mostly decide alone, the polytope is
certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import gcd, lcm, prod
from numbers import Integral
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .coefficients import coefficient, inequality_to_triple
from .errors import ResourceLimitError, UnmatchedInequalityError, as_int
from .plethysm import (
    INNER_POINT_DEGREE_CAP,
    INNER_POINT_LEVEL_CAP,
    _check_request,
    _entry_dtype,
    inner_points,
)
from .tableaux import normalize, size

RAY_CAP = 20000
# The forward scan reads _SCAN_FIRST rows after each insertion and doubles
# the block while no row is live, up to _SCAN_ENTRIES products a block
# (256 KB in float64), or _SCAN_FIRST rows where the cone has more columns.
_SCAN_FIRST = 64
_SCAN_ENTRIES = 1 << 15
# Rows of one block of ``_inserted_vertices``' products.
_VERTEX_BLOCK = 512
# Products of integer matrices run in float64, on BLAS, when max|row| *
# max|generator| * dim is below this.  Each term a_i*g_i and every partial
# sum of a.g is then an integer of magnitude at most sum |a_i||g_i| < 2^53,
# which float64 holds exactly, in whatever order (and with whatever fused
# multiply-adds) the BLAS adds them (Dumas, Giorgi & Pernet, ACM TOMS 35(3),
# 2008).  numpy runs int64 matmul without BLAS, about 8x slower on a 512x7
# block.
_FLOAT_EXACT = 2**53
# Rows ``_row_matrix`` reads per block; only one block's entries are held in
# Python lists at a time, so the read adds no input-sized list to the peak.
_READ_BLOCK = 2048
# Fewest rows ``_sorted_rows`` sorts on one integer key.  Below about 100
# rows ``np.lexsort`` is as fast, and it makes fewer numpy calls, which is
# what a pipeline's small hull and vertex systems pay for.
_KEY_SORT_ROWS = 128

IntVec = tuple[int, ...]


def _scale_to_int(row: Sequence) -> IntVec:
    """Clear denominators and divide by the content; zero rows stay zero."""
    exact = [_exact(x) for x in row]  # ints stay ints, so integer rows make no Fraction
    den = lcm(*(x.denominator for x in exact))
    return _primitive(int(x * den) for x in exact)


def _primitive(vec: Iterable[int]) -> IntVec:
    vec = tuple(vec)
    g = gcd(*vec)
    if g > 1:
        vec = tuple(v // g for v in vec)
    return vec


def _dot(a: IntVec, v: IntVec) -> int:
    return sum(x * y for x, y in zip(a, v))


def _pivot(vec: IntVec) -> int:
    return next(i for i, x in enumerate(vec) if x)


def _echelon(vectors: Iterable[IntVec]) -> list[IntVec]:
    """Reduced integer basis, sorted by pivot position, pivots positive.

    Each new vector is reduced against the basis, and then clears its own
    pivot column in the rows already there, so the basis stays reduced and
    is sorted once at the end.
    """
    basis: list[IntVec] = []
    for vec in vectors:
        vec = _reduce_mod(vec, basis)
        if any(vec):
            if vec[_pivot(vec)] < 0:
                vec = tuple(-x for x in vec)
            basis = [_reduce_mod(b, [vec]) for b in basis]
            basis.append(vec)
    return sorted(basis, key=_pivot)


def _reduce_mod(vec: IntVec, basis: Sequence[IntVec]) -> IntVec:
    """Zero out the pivot coordinates of vec; only positive rescaling is used.

    Every pivot of basis is positive, as in every basis ``_echelon`` builds.
    """
    vec = tuple(vec)
    for b in basis:
        p = _pivot(b)
        if vec[p]:
            vec = tuple(b[p] * x - vec[p] * y for x, y in zip(vec, b))
    return _primitive(vec)


def _exact(x) -> int | Fraction:
    """x as an int if integral, else a Fraction; numpy ints go through int(), so cannot wrap."""
    if not isinstance(x, (int, Fraction)):
        x = int(x) if isinstance(x, Integral) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _lcm_int64(dens: np.ndarray) -> int:
    """The lcm of positive int64 entries, or a partial lcm past int64 if the lcm is.

    The running lcm takes the largest entry it does not divide, so it at
    least doubles each step.  The entries are read 4096 at a time, so that
    no temporary is as large as the input.
    """
    l = 1
    for start in range(0, len(dens), 4096):
        block = dens[start : start + 4096]
        while (block := block[l % block != 0]).size:
            l = lcm(l, int(block.max()))
            if _entry_dtype(l) is object:
                return l
    return l


def _read_entries(rows: Sequence[Sequence], width: int, lead: bool, dtype=np.int64):
    """Numerators and denominators of a rational matrix, one column per row of the result.

    Returns the (lead + width, n) numerators, whose first ``lead`` row holds
    1s, and the (width, n) denominators, as arrays of ``dtype``, entry j of
    input row i at column i; and whether every entry read was exactly an
    int or a ``Fraction``, and so in lowest terms.  Rows are read
    _READ_BLOCK at a time, so that only one block's entries are held in
    lists.  A block whose entries are all exactly ``Fraction``s is read
    through the ``_numerator`` and ``_denominator`` slots, which a
    comprehension loads at C level where the public properties run Python
    code, and each of the two lists goes into the array one byte a value,
    through one ``bytearray``, when all its values are in 0..255
    (``_entry_array``), and through ``np.fromiter`` otherwise.  Any other
    block is read through the properties, after ``_exact``
    unless every entry is an int or a ``Fraction`` (a ``Fraction`` subclass
    takes the properties too).  An object read sends every entry through
    ``int()``, so that numpy-int numerators cannot wrap; an int64 read
    raises OverflowError on an entry past int64.
    """
    n = len(rows)
    nums = np.empty((lead + width, n), dtype)
    nums[:lead] = 1
    dens = np.empty((width, n), dtype)
    reduced = True
    for start in range(0, n, _READ_BLOCK):
        block = rows[start : start + _READ_BLOCK]
        stop, size = start + len(block), len(block) * width
        num = [x._numerator for row in block for x in row if type(x) is Fraction]
        slots = len(num) == size
        if slots:
            den = [x._denominator for row in block for x in row]
        else:
            entries = list(chain.from_iterable(block))
            types = set(map(type, entries))
            if not all(issubclass(t, (int, Fraction)) for t in types):
                entries = [_exact(x) for x in entries]
                types = set(map(type, entries))
            reduced = reduced and types <= {int, Fraction}
            num, den = map(attrgetter("numerator"), entries), map(attrgetter("denominator"), entries)
        if dtype is object:
            num, den = map(int, num), map(int, den)
        for out, values in ((nums[lead:], num), (dens, den)):
            out[:, start:stop] = _entry_array(values, dtype, size, slots).reshape(stop - start, width).T
    return nums, dens, reduced


def _entry_array(values, dtype, size: int, slots: bool) -> np.ndarray:
    """The ``size`` values as a flat array: one byte each when they are slot values all in 0..255.

    ``bytearray`` raises ValueError on any value outside 0..255, and then,
    as for values not read from the slots or an object read, ``np.fromiter``
    reads them into ``dtype``.
    """
    if slots and dtype is not object:
        try:
            return np.frombuffer(bytearray(values), np.uint8)
        except ValueError:
            pass
    return np.fromiter(values, dtype, size)


def _sorted_rows(columns: np.ndarray) -> np.ndarray:
    """The distinct nonzero rows, in lexicographic order, of the integer matrix whose columns are given.

    ``columns`` holds column j of the matrix as its row j.  An int64 matrix
    of at least _KEY_SORT_ROWS rows is sorted on one int64 key: each column,
    less its minimum, is one digit, in the base of the column's span, when
    the product of the spans fits in int64; rows with equal keys are equal.
    A smaller matrix, a larger product, or a matrix of Python ints, is
    sorted by ``np.lexsort`` over the columns.
    """
    n = columns.shape[1]
    keyed = n >= _KEY_SORT_ROWS and columns.dtype != object
    if keyed:
        lo = columns.min(axis=1)
        spans = [h - l + 1 for l, h in zip(lo.tolist(), columns.max(axis=1).tolist())]
        keyed = _entry_dtype(prod(spans)) is np.int64
    if not keyed:
        matrix = columns.T[np.lexsort(columns[::-1])]
        keep = matrix.any(axis=1)
        keep[1:] &= (matrix[1:] != matrix[:-1]).any(axis=1)
        return matrix[keep]
    radix = np.array([prod(spans[j + 1 :]) for j in range(len(spans))], dtype=np.int64)
    key = radix @ (columns - lo[:, None])
    order = np.argsort(key)
    key = key[order]
    new = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    matrix = columns.T[order[new]]
    nonzero = matrix.any(axis=1)
    return matrix if nonzero.all() else matrix[nonzero]


def _row_matrix(rows: Sequence[Sequence], width: int, lead: bool = False) -> np.ndarray:
    """The distinct primitive integer rows of a rational matrix, in lexicographic order.

    Each row has ``width`` entries; ``lead`` puts a 1 before each, so points
    become the rows (den, x1*den, ...) of their homogenization.  Each row is
    scaled by the lcm of its denominators and divided by the gcd of the
    result, a step skipped for points whose coordinates are all exactly
    ints or Fractions, read after ``_exact``: (lcm, x1*lcm, ...) of reduced
    fractions is already primitive.  Zero rows are dropped and the rest
    come out in the order ``sorted(set(rows))`` gives.  ``_read_entries`` reads the numerators and
    denominators straight into int64, block by block, one matrix column to
    an array row; so the lcm and the gcd of each matrix row are reductions
    across those array rows, one binary ufunc call per column over all the
    matrix rows at once.  ``_sorted_rows`` orders the rows and drops the
    repeats.  The matrix is int64 when max|numerator| * lcm(denominators),
    the leading 1 included, fits; otherwise, or when an entry does not fit
    in int64, the entries are read again into Python ints (dtype=object).
    Every scaled entry, and every lcm on the way, is bounded by that
    product.

    On the 24,526 ``hull-mixed`` points (2-vCPU Xeon VM, in process) the
    read took 12 ms of a 17 ms reader with every value through
    ``np.fromiter``, and takes about two thirds of that through bytes,
    most of it the two slot comprehensions; the scaling takes 3 ms (5
    with the gcd pass) and the order 2.  The one-pass reader it replaced
    took about 52 ms on a slower day of the same host, with a type check
    over the whole matrix, a reduction along each row and a ``np.lexsort``
    over seven columns.
    """
    try:
        nums, dens, reduced = _read_entries(rows, width, lead)
    except OverflowError:
        dtype = object
    else:
        num_max = max(int(nums.max(initial=0)), -int(nums.min(initial=0)))
        dtype = _entry_dtype(num_max * _lcm_int64(dens.ravel()))
    if dtype is object:
        nums, dens, reduced = _read_entries(rows, width, lead, object)
    scale = np.lcm.reduce(dens, axis=0, initial=1)
    np.floor_divide(scale, dens, out=dens)
    nums[lead:] *= dens
    if lead:
        nums[0] = scale
    del dens, scale  # the sort below holds the matrix twice; nothing else input-sized stays
    if not (lead and reduced):
        nums //= np.maximum(np.gcd.reduce(nums, axis=0), 1)
    return _sorted_rows(nums)


def _generators(vectors: list[IntVec], row_max: int) -> np.ndarray:
    """The vectors as the columns of a matrix whose products with rows of max|entry| row_max are exact.

    Its dtype is float64 when row_max * max|vector| * dim is below
    _FLOAT_EXACT, int64 when it fits, and Python ints otherwise.
    """
    bound = row_max * max(map(abs, chain.from_iterable(vectors))) * len(vectors[0])
    dtype = np.float64 if bound < _FLOAT_EXACT else _entry_dtype(bound)
    return np.array(vectors, dtype=dtype).T


def _products(block: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """The matrix of a.g for every row a of block and column g of ``_generators``, in its dtype."""
    return block.astype(generators.dtype, copy=False) @ generators


def _restrict(lineality: list[IntVec], ds: list[int]) -> tuple[list[IntVec], IntVec, int]:
    """Cut a lineality basis down to a.x = 0, given ds[i] = a.l_i, not all zero.

    The first l0 with d0 = a.l0 != 0 leaves the basis, and every other l
    with d = a.l != 0 becomes the primitive part of d0*l - d*l0.  Returns
    the new basis, l0 and d0.
    """
    k = next(i for i, d in enumerate(ds) if d)
    l0, d0 = lineality[k], ds[k]
    rest = []
    for i, (l, d) in enumerate(zip(lineality, ds)):
        if i == k:
            continue
        if d:
            l = _primitive(tuple(d0 * x - d * y for x, y in zip(l, l0)))
        rest.append(l)
    return rest, l0, d0


def _is_row_matrix(pending, dim: int) -> bool:
    """Whether pending is an integer matrix of width dim, as ``_row_matrix`` builds it."""
    if not isinstance(pending, np.ndarray) or pending.ndim != 2 or pending.shape[1] != dim:
        return False
    if pending.dtype == object:
        return all(type(x) is int for x in pending.flat)
    return pending.dtype == np.int64


class _Cone:
    """A double description that can continue: {x : e.x = 0 for all e, a.x >= 0 for each row inserted}.

    The state is the lineality basis, the extreme rays with the bitmask of
    the inserted rows each is tight on, and the inserted rows in order.  The
    equations are eliminated first, while there are no rays; ``span`` is the
    lineality count after them.  ``insert`` passes every row the cone
    implies, so a cone given a system of which it holds a part inserts only
    the rest.
    """

    def __init__(self, dim: int, equations: Iterable[Sequence] = (), ray_cap: int = RAY_CAP):
        self.dim = dim
        self.ray_cap = ray_cap
        self.lineality: list[IntVec] = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
        self.rays: list[tuple[IntVec, int]] = []
        self.rows: list[IntVec] = []
        for a in map(_scale_to_int, equations):
            ds = [_dot(a, l) for l in self.lineality]
            if any(ds):
                self.lineality = _restrict(self.lineality, ds)[0]
        self.span = len(self.lineality)

    def insert(self, pending: np.ndarray) -> None:
        """Insert every row of the integer matrix ``pending`` that the cone does not imply, in its order.

        A cursor walks the matrix in blocks, and one matrix product takes
        each block against the generators (``_generators``, built once per
        insertion): the lineality basis, the rays, and the negated
        lineality basis.  A row a is implied when a.l = 0 for every
        lineality vector l and a.r >= 0 for every ray r, that is when no
        product is negative; the first row that is not is inserted, driven
        by its own products with the basis and the rays, read back as
        Python ints.  A row the cone implies is implied by every later,
        smaller cone, so the cursor passes it for good.  The first block
        after an insertion has _SCAN_FIRST rows, and each block that holds
        no such row is followed by one twice as long, up to _SCAN_ENTRIES
        products (or _SCAN_FIRST rows): most insertions come early in the
        scan, and long blocks cost few numpy calls over the rows after them.
        """
        n_rows = len(pending)
        row_max = int(np.abs(pending).max(initial=0))
        pos = 0
        while pos < n_rows and (self.lineality or self.rays):
            n_lin, n_gen = len(self.lineality), len(self.lineality) + len(self.rays)
            generators = _generators(self.lineality + [vec for vec, _ in self.rays], row_max)
            generators = np.concatenate((generators, -generators[:, :n_lin]), axis=1)
            step, cap = _SCAN_FIRST, max(_SCAN_FIRST, _SCAN_ENTRIES // generators.shape[1])
            while pos < n_rows:
                block = _products(pending[pos : pos + step], generators)
                live = (block < 0).any(axis=1)
                if live.any():
                    break
                pos += len(block)
                step = min(2 * step, cap)
            else:
                break  # the cone implies every row left
            first = int(live.argmax())
            ds = list(map(int, block[first, :n_gen].tolist()))  # no float reaches a ray
            self.rows.append(tuple(pending[pos + first].tolist()))
            pos += first + 1
            if any(ds[:n_lin]):
                self._pivot(ds[:n_lin], ds[n_lin:])
            else:
                self._split(ds[n_lin:], n_rows)

    def _pivot(self, lin_ds: list[int], ray_ds: list[int]) -> None:
        """Insert a row that cuts the lineality: one lineality vector becomes a ray."""
        new_bit = 1 << (len(self.rows) - 1)
        self.lineality, l0, d0 = _restrict(self.lineality, lin_ds)
        rays = []
        for (vec, zs), d in zip(self.rays, ray_ds):
            if d:
                comb = tuple(d0 * x - d * y for x, y in zip(vec, l0))
                if d0 < 0:
                    comb = tuple(-x for x in comb)
                vec = _primitive(comb)
            rays.append((vec, zs | new_bit))
        rays.append((l0 if d0 > 0 else tuple(-x for x in l0), new_bit - 1))
        self.rays = rays

    def _split(self, ray_ds: list[int], n_rows: int) -> None:
        """Insert a row that leaves the lineality: combine each adjacent positive-negative pair.

        Two rays are adjacent when no other ray is tight on every inserted
        row they are both tight on.  Their common tight rows and the
        equations have rank dim - #lineality - 2, so adjacent rays share at
        least span - #lineality - 2 tight rows; a pair sharing fewer is
        skipped before the loop over the rays.
        """
        new_bit = 1 << (len(self.rows) - 1)
        rays = self.rays
        need = self.span - len(self.lineality) - 2
        pos, zero, neg = [], [], []
        for (vec, zs), d in zip(rays, ray_ds):
            if d > 0:
                pos.append((vec, zs, d))
            elif d < 0:
                neg.append((vec, zs, d))
            else:
                zero.append((vec, zs | new_bit))
        combos = []
        for pv, pz, pd in pos:
            for nv, nz, nd in neg:
                common = pz & nz
                if common.bit_count() < need:
                    continue
                blocked = False
                for vec, zs in rays:
                    if vec is pv or vec is nv:
                        continue
                    if common & zs == common:
                        blocked = True
                        break
                if blocked:
                    continue
                comb = _primitive(tuple(pd * x - nd * y for x, y in zip(nv, pv)))
                combos.append((comb, common | new_bit))
        self.rays = [(v, z) for v, z, _ in pos] + zero + combos
        if len(self.rays) > self.ray_cap:
            raise ResourceLimitError(
                f"cone_dual: ray count {len(self.rays)} exceeds cap {self.ray_cap} after inserting "
                f"{len(self.rows)} of {n_rows} inequalities (dim {self.dim})"
            )

    def result(self) -> tuple[list[IntVec], list[IntVec]]:
        """The sorted extreme rays, reduced modulo the lineality, and the lineality's echelon basis."""
        basis = _echelon(self.lineality)
        seen = set()
        out_rays = []
        for vec, _ in self.rays:
            red = _reduce_mod(vec, basis)
            if any(red) and red not in seen:
                seen.add(red)
                out_rays.append(red)
        return sorted(out_rays), basis


def cone_dual(
    equations: Iterable[Sequence],
    inequalities: Iterable[Sequence] | np.ndarray,
    dim: int,
    ray_cap: int = RAY_CAP,
    inserted: list | None = None,
) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of {x : e.x = 0 for all e, a.x >= 0}.

    The inequalities are one integer matrix of distinct primitive rows in
    lexicographic order: either the matrix ``_row_matrix`` builds, which
    ``hull`` passes and which is used as it is (as is any int64 or
    Python-int matrix of width ``dim``, in its own row order), or rows of
    rationals, as a list or any other array, which go through
    ``_row_matrix`` here: read in blocks, scaled column by column and
    sorted, on one integer key when there are many.  Equations only restrict the lineality
    space, and they are eliminated before any inequality, while there are
    no rays yet.  The inequalities are then inserted in the matrix order
    with the standard double description step, using bitmasks over the
    inserted inequalities for the adjacency test: ``_Cone.insert``, one
    forward scan that passes every row the cone already implies, in blocks
    that start at _SCAN_FIRST rows after each insertion and double while
    the cone implies every row of them.

    The scan's block products run in float64 while max|row| *
    max|generator| * dim is below _FLOAT_EXACT = 2^53, where every partial
    sum is an integer float64 holds exactly, and in int64 or Python ints
    above; the inserted row's products are read back as Python ints, so no
    float reaches a ray or the lineality.  The output is the same as
    inserting every row: extreme rays and lineality depend only on the
    cone, not on redundant rows; the combinatorial adjacency test is valid
    for any system that defines the cone; and the kept rows go in in the
    same order, so the ray count at each step, and with it the ray cap, is
    unchanged.  Each inserted row is appended, as a tuple of ints, to
    ``inserted`` when it is given; every row the scan passes is in the cone
    of the rows inserted before it.
    """
    pending = inequalities
    if not _is_row_matrix(pending, dim):
        rows = list(pending)
        if any(len(row) != dim for row in rows):
            raise ValueError(f"cone_dual: every inequality needs {dim} entries")
        pending = _row_matrix(rows, dim)
    equations = list(equations)
    if any(len(row) != dim for row in equations):
        raise ValueError(f"cone_dual: every equation needs {dim} entries")
    cone = _Cone(dim, equations, ray_cap)
    try:
        cone.insert(pending)
    finally:
        if inserted is not None:
            inserted.extend(cone.rows)
    return cone.result()


@dataclass(frozen=True)
class Polytope:
    """A bounded rational polytope, H and V: ``vertices`` is its exact vertex set, sorted, without repeats."""

    dim: int
    equations: tuple[tuple[IntVec, int | Fraction], ...]
    facets: tuple[tuple[IntVec, int | Fraction], ...]
    vertices: tuple[tuple[Fraction, ...], ...]

    def contains(self, point: Sequence) -> bool:
        p = tuple(Fraction(x) for x in point)
        if len(p) != self.dim:
            raise ValueError(f"point has arity {len(p)}, polytope has {self.dim}")
        for a, b in self.equations:
            if sum(c * x for c, x in zip(a, p)) != b:
                return False
        for a, b in self.facets:
            if sum(c * x for c, x in zip(a, p)) > b:
                return False
        return True


def _vertices_from_h(
    dim: int,
    equations: Sequence[tuple[Sequence[int], int]],
    inequalities: Sequence[tuple[Sequence[int], int]],
) -> tuple[tuple[Fraction, ...], ...]:
    """The sorted vertex set of {x : eq, ineq}, via the homogenization cone; errors if unbounded."""
    eq_rows = [(-b,) + tuple(a) for a, b in equations]
    ineq_rows = [(b,) + tuple(-x for x in a) for a, b in inequalities]
    ineq_rows.append((1,) + (0,) * dim)
    rays, lin = cone_dual(eq_rows, ineq_rows, dim + 1)
    if lin:
        raise ValueError("system is unbounded (contains a line)")
    vertices = []
    for ray in rays:
        if ray[0] == 0:
            raise ValueError("system is unbounded (recession direction)")
        vertices.append(tuple(Fraction(x, ray[0]) for x in ray[1:]))
    return tuple(sorted(set(vertices)))


def _check_cone(cone, dim: int) -> None:
    """Refuse a cone to continue that is not a ``_Cone`` of dimension ``dim``."""
    if not isinstance(cone, _Cone) or cone.dim != dim:
        got = f"dimension {cone.dim}" if isinstance(cone, _Cone) else type(cone).__name__
        raise ValueError(f"the cone to continue must be a _Cone of dimension {dim}, not {got}")


def polytope_from_h(
    dim: int,
    equations: Sequence[tuple[Sequence[int], int]],
    inequalities: Sequence[tuple[Sequence[int], int]],
) -> Polytope:
    """Bounded polytope from an explicit H description (kept as given, bounds exact).

    The vertices are the rays of the homogenization cone (t, x): t b - a.x
    >= 0 for each inequality, = 0 for each equation, and t >= 0, found by
    one ``cone_dual`` pass.
    """
    eqs = tuple((tuple(a), _exact(b)) for a, b in equations)
    ineqs = tuple((tuple(a), _exact(b)) for a, b in inequalities)
    return Polytope(dim, eqs, ineqs, _vertices_from_h(dim, eqs, ineqs))


def hull(points: Iterable[Sequence] | np.ndarray, *, rows: bool = False, cone: _Cone | None = None) -> Polytope:
    """Convex hull with exact facets, equations, and vertices.

    Works in the dual: each point p contributes the constraint c0 + c.p >= 0
    on affine functionals (c0, c); lineality directions of that cone are the
    equations of the hull and extreme rays are its facets.  Coordinates may
    be ints, Fractions, or anything ``Fraction()`` accepts.

    The points go to ``cone_dual`` as one integer matrix of the primitive
    rows (den, x1*den, ...), den the lcm of a point's denominators, without
    repeats and in lexicographic order, so the input order does not matter.
    ``_row_matrix`` reads it in blocks of points, through the Fraction slots
    for a block whose coordinates are all exactly Fractions (one byte a
    value when they are all in 0..255), and sorts it,
    on one integer key when there are many points; it is int64 when
    max|numerator| * lcm(denominators) fits and holds Python ints otherwise.
    With ``rows=True``, ``points`` is that matrix itself, as
    ``inner_points(rows=True)`` builds it, and goes to ``cone_dual`` unread:
    a 2-D array of int64 or Python ints, each row (den, x1*den, ...) with
    den > 0, in the order the rows are to be inserted.  Anything else raises
    ValueError.

    That is the one double description: a point the scan passes lies in
    the hull of the points inserted before it, so every vertex is an
    inserted row, and ``_inserted_vertices`` picks them out by their tight
    facets.

    ``cone``, which only ``pipeline`` passes, is a double description of
    dimension dim + 1 to continue in place, its vertices picked from every
    row it has inserted; every row it holds must be implied by the rows of
    these points, as the rows of a subset of them are.  The hull is the
    same, but its rows go in another order than one sorted pass, so the ray
    count on the way, and with it ``RAY_CAP``, can differ.
    """
    if rows:
        if not isinstance(points, np.ndarray) or points.ndim != 2 or not points.size:
            got = f"shape {points.shape}" if isinstance(points, np.ndarray) else type(points).__name__
            raise ValueError(f"hull: rows=True takes a nonempty 2-D array, not {got}")
        dim = points.shape[1] - 1
        if not _is_row_matrix(points, dim + 1):
            raise ValueError(f"hull: the row matrix holds {points.dtype} entries, not int64 or Python ints")
        bad = points[:, 0] <= 0
        if bad.any():
            row = int(bad.argmax())
            raise ValueError(f"hull: row {row} of the row matrix has lead entry {points[row, 0]}, not above 0")
    else:
        points = list(points)
        arities = set(map(len, points))
        if not arities:
            raise ValueError("need at least one point")
        if len(arities) > 1:
            raise ValueError("points have mixed arity")
        (dim,) = arities
    # a matrix read from the points is freed once the double description returns
    matrix = points if rows else _row_matrix(points, dim, lead=True)
    if cone is None:
        inserted: list[IntVec] = []
        rays, lin = cone_dual([], matrix, dim + 1, inserted=inserted)
    else:
        _check_cone(cone, dim + 1)
        cone.insert(matrix)
        rays, lin = cone.result()
        inserted = cone.rows
    del matrix

    equations = []
    for l in lin:
        coeffs, c0 = l[1:], l[0]
        if not any(coeffs):
            raise AssertionError("hull produced a contradictory equation")
        a, b = coeffs, -c0
        if next(x for x in a if x) < 0:
            a, b = tuple(-x for x in a), -b
        equations.append((a, b))

    # a ray whose functional is constant on the affine hull is the trivial
    # row 1 >= 0 modulo the lineality basis, tight at no point
    normals = _echelon(a for a, _ in equations)
    rays = [ray for ray in rays if any(_reduce_mod(ray[1:], normals))]
    eqs = tuple(sorted(set(equations)))
    fac = tuple(sorted((tuple(-x for x in ray[1:]), ray[0]) for ray in rays))
    vertices = _inserted_vertices(inserted, rays, dim - len(eqs))
    return Polytope(dim, eqs, fac, vertices)


def _inserted_vertices(rows: list[IntVec], facets: list[IntVec], rank: int) -> tuple[tuple[Fraction, ...], ...]:
    """The sorted vertices among a hull's inserted point rows (den, x1*den, ...).

    ``facets`` are the hull's facet rays, each tight at the rows it is
    orthogonal to, and ``rank`` the dimension of the hull.  A vertex is tight
    on at least ``rank`` facets, and no other point of the hull is tight on
    all of those and more; every point that is not a vertex lies inside a
    face of which some vertex, an inserted row too, is such a point.  The
    tight sets are one bool matrix, filled _VERTEX_BLOCK rows at a time, and
    the subset counts go block by block of rows against block by block,
    each block cast to float32 on its own, so a hull of thousands of
    vertices holds no rows-by-rows product, and no float copy of the tight
    sets, whole.
    """
    tight = np.zeros((len(rows), len(facets)), dtype=bool)
    if facets:
        generators = _generators(facets, max(map(abs, chain.from_iterable(rows))))
        points = np.array(rows, dtype=generators.dtype)
        for i in range(0, len(rows), _VERTEX_BLOCK):
            tight[i : i + _VERTEX_BLOCK] = _products(points[i : i + _VERTEX_BLOCK], generators) == 0
    sizes = tight.sum(axis=1)
    kept = np.flatnonzero(sizes >= rank)
    sizes = sizes[kept]
    blocks = [slice(i, i + _VERTEX_BLOCK) for i in range(0, len(kept), _VERTEX_BLOCK)]
    covered = np.zeros(len(kept), dtype=bool)
    # float32 counts |T(p) & T(q)| exactly: there are at most RAY_CAP < 2^24 facets
    for b in blocks:
        block, size = tight[kept[b]].astype(np.float32), sizes[b, None]
        for c in blocks:  # T(p) is inside T(q) when |T(p) & T(q)| = |T(p)|
            common = block @ tight[kept[c]].T.astype(np.float32)
            covered[b] |= ((common == size) & (sizes[c] > size)).any(axis=1)
    return tuple(sorted(tuple(Fraction(x, rows[i][0]) for x in rows[i][1:]) for i in kept[~covered].tolist()))


def polytopes_equal(p: Polytope, q: Polytope) -> bool:
    """Equal dimension and equal vertex sets, which for bounded polytopes is set equality."""
    return p.dim == q.dim and set(p.vertices) == set(q.vertices)


def _coordinate_groups(r: int, n_particles: int, rank_bound: int) -> list[tuple[int, int, int]]:
    """(start, end, trace) per group: the r levels with trace N, then k > 1 ranks with trace 1."""
    return [(0, r, n_particles)] + ([(r, r + rank_bound, 1)] if rank_bound > 1 else [])


def canonical_inequality(
    coeffs: Sequence,
    bound,
    r: int,
    n_particles: int,
    rank_bound: int = 1,
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Normal form of a linear inequality modulo the trace identities.

    The level part is shifted so its minimum is zero (using the fixed level
    trace) and likewise for the rank part (whose trace is one); the result is
    scaled to coprime integers.
    """
    groups = _coordinate_groups(r, n_particles, rank_bound)
    # ints stay ints (the traces are ints too), so integer input makes no Fraction
    *vec, b = map(_exact, (*coeffs, bound))
    if len(vec) != groups[-1][1]:
        raise ValueError(f"expected {groups[-1][1]} coefficients, got {len(vec)}")
    for start, end, trace in groups:
        shift = min(vec[start:end])
        vec[start:end] = [x - shift for x in vec[start:end]]
        b -= shift * trace
    scaled = _scale_to_int(vec + [b])
    return scaled[:r], scaled[r:-1], scaled[-1]


@lru_cache(maxsize=None)
def _ambient_system(r: int, n_particles: int, rank_bound: int):
    """Trace equations (a, b) for a.x = b, and chamber walls (a, b) for a.x <= b, two tuples.

    The walls order each coordinate group and keep its last coordinate
    non-negative.  Both are built once per (r, N, k) and cached, so they
    are tuples.
    """
    groups = _coordinate_groups(r, n_particles, rank_bound)
    d = groups[-1][1]
    equations, walls = [], []
    for start, end, trace in groups:
        equations.append((tuple(int(start <= i < end) for i in range(d)), trace))
        for i in range(start, end):
            vec = [0] * d
            vec[i] = -1
            if i + 1 < end:
                vec[i + 1] = 1
            walls.append((tuple(vec), 0))
    return tuple(equations), tuple(walls)


@lru_cache(maxsize=None)
def _wall_forms(r: int, n_particles: int, rank_bound: int) -> frozenset:
    """The ``canonical_inequality`` of every chamber wall, built once per (r, N, k)."""
    _, walls = _ambient_system(r, n_particles, rank_bound)
    return frozenset(canonical_inequality(a, b, r, n_particles, rank_bound) for a, b in walls)


def _chamber_corners(r: int, n_particles: int, rank_bound: int) -> tuple[tuple[Fraction, ...], ...]:
    """The sorted vertices of the chamber, a product of simplices.

    A coordinate group of g coordinates and trace t has the g corners t / j
    on its first j coordinates and 0 on the rest, j = 1..g; a chamber
    corner is one corner of each group.
    """
    corners = [
        [(Fraction(trace, j),) * j + (Fraction(0),) * (end - start - j) for j in range(1, end - start + 1)]
        for start, end, trace in _coordinate_groups(r, n_particles, rank_bound)
    ]
    return tuple(sorted(tuple(chain.from_iterable(parts)) for parts in product(*corners)))


def facet_match(poly: Polytope, nu, r: int, rank_bound: int = 1) -> dict:
    """Try to certify every nontrivial face constraint of a hull.

    Facets are processed with their outward orientation; every non-ambient
    equation is tried in both orientations, since each side must be a theorem
    for the equation to persist in the limit.  A constraint is matched when
    its triple exists and has a nonzero coefficient.
    """
    nu = normalize(nu)
    n_particles = size(nu)
    wall_forms = _wall_forms(r, n_particles, rank_bound)
    candidates = [(a, b, False) for a, b in poly.facets]
    for a, b in poly.equations:
        candidates.append((a, b, True))
        candidates.append((tuple(-x for x in a), -b, True))
    matched, unmatched = [], []
    ambient = 0
    for a, b, from_eq in candidates:
        gl, gm, bb = canonical_inequality(a, b, r, n_particles, rank_bound)
        if not any(gl) and not any(gm):
            ambient += 1
            continue
        if (gl, gm, bb) in wall_forms:
            ambient += 1
            continue
        entry = {
            "lambda_coeffs": gl,
            "mu_coeffs": gm,
            "bound": bb,
            "from_equation": from_eq,
        }
        try:
            triple = inequality_to_triple(gl, bb, nu, r, mu_coeffs=gm)
            c = coefficient(triple.a, nu, r, triple.v, triple.w)
        except (UnmatchedInequalityError, ValueError) as exc:
            entry["reason"] = str(exc)
            unmatched.append(entry)
            continue
        entry.update(
            {
                "a": triple.a,
                "v": triple.v,
                "w": triple.w,
                "c": c,
            }
        )
        if c:
            matched.append(entry)
        else:
            entry["reason"] = "vanishing coefficient"
            unmatched.append(entry)
    return {"matched": matched, "unmatched": unmatched, "ambient": ambient}


def pipeline(
    nu,
    r: int,
    rank_bound: int,
    m_schedule: Sequence[int],
    level_cap: int = INNER_POINT_LEVEL_CAP,
    degree_cap: int = INNER_POINT_DEGREE_CAP,
) -> dict:
    """Inner-outer moment polytope computation with certificates.

    Every cutoff of the schedule is checked before any degree is built: a
    cutoff, rank bound or level count that is not an integer, a cutoff below
    1, which has no points to hull, or a rank bound below 1, with any
    schedule, raises ValueError, and one over the caps ResourceLimitError.
    Fewer levels than nu has rows raise ValueError when the first cutoff
    builds the character of nu, and with an empty schedule too when the
    level count is below 1.
    One Newton series serves the whole run: each cutoff's ``inner_points``
    call extends it up to that cutoff, so every degree is built and
    decomposed once.  For each cutoff M in the
    schedule, the hull I of the normalized component points is computed, from
    the integer rows ``inner_points(rows=True)`` builds degree by degree, so
    no point becomes a ``Fraction`` on the way; its
    faces are matched against test-spectrum triples (``facet_match``), and
    the run stops at the first M where I equals the outer polytope O, the
    chamber cut by the matched inequalities; the report carries the full
    history either way.  The hull's double description is continued, not
    rebuilt, through the ``cone`` of ``hull``: it carries over from the last
    cutoff when M is not below it, as the points then grow; it starts empty
    on the first cutoff and after a higher one.

    I always lies in O, since every matched row holds on I and the points
    lie in the chamber.  Whether O lies in I is decided from the match, in
    this order (``_converged``); "candidate" and "unmatched" are as
    ``facet_match`` reports them:

    1. No unmatched candidate: converged.  Every candidate is then matched
       or ambient (a wall, or implied by the trace equations), so O's rows
       imply every facet of I and both sides of every equation of I, and O
       lies in I.
    2. I is full-dimensional (its equations are the trace equations only)
       and a candidate is unmatched: not converged.  A facet of a
       full-dimensional polytope appears in every H-description of it, up
       to positive scaling modulo the trace equations, which is what
       ``canonical_inequality`` normalizes; an unmatched facet's form is
       neither a wall nor a matched row, so it is no facet of O.
    3. I is lower-dimensional and a chamber corner (``_chamber_corners``)
       satisfies every matched row but breaks an equation of I: not
       converged, as that corner lies in O and not in I.
    4. Otherwise O is built (``polytope_from_h``) and its vertex set is
       compared with I's.  A lower-dimensional I can equal O with a
       candidate unmatched: its facets have many forms modulo its own
       equations, and the walls and matched rows can imply an unmatched
       form (Lambda^2 C^4 at M = 2, or nu = (1) on three levels at M = 1).
    """
    nu = normalize(nu)
    rank_bound = as_int(rank_bound, "rank bound")
    m_schedule = [as_int(m_cap, "pipeline: the cutoff M") for m_cap in m_schedule]
    r = as_int(r, "level count")
    for m_cap in m_schedule:
        if m_cap < 1:
            raise ValueError(f"pipeline: the cutoff M = {m_cap} is below 1")
        _check_request(nu, r, rank_bound, m_cap, level_cap, degree_cap)
    if rank_bound < 1:  # an empty schedule reaches no _check_request
        raise ValueError("rank bound must be at least 1")
    if r < 1 and len(nu) > r:  # nor any character, which refuses this alike
        raise ValueError(f"shape {nu} needs more than {r} levels")
    n_particles = size(nu)
    history = []
    converged_at = None
    inner = None
    report = None
    series: list = []  # filled on the first cutoff, so an empty schedule builds nothing
    inner_cone = None
    for i, m_cap in enumerate(m_schedule):
        matrix = inner_points(nu, r, rank_bound, m_cap, level_cap, degree_cap, series=series, rows=True)
        if i == 0 or m_cap < m_schedule[i - 1]:
            inner_cone = _Cone(matrix.shape[1])
        inner = hull(matrix, rows=True, cone=inner_cone)
        report = facet_match(inner, nu, r, rank_bound)
        converged = _converged(inner, report, r, n_particles, rank_bound)
        history.append(
            {
                "M": m_cap,
                "points": len(matrix),
                "vertices": len(inner.vertices),
                "facets": len(inner.facets),
                "equations": len(inner.equations),
                "matched": len(report["matched"]),
                "unmatched": len(report["unmatched"]),
                "converged": converged,
            }
        )
        if converged:
            converged_at = m_cap
            break
    return {
        "nu": list(nu),
        "r": r,
        "rank_bound": rank_bound,
        "converged_at": converged_at,
        "history": history,
        "polytope": inner,
        "match": report,
    }


def _converged(inner: Polytope, report: dict, r: int, n_particles: int, rank_bound: int) -> bool:
    """Whether the chamber cut by the rows ``report`` matched is the hull ``inner``, by the cases of ``pipeline``."""
    if not report["unmatched"]:
        return True
    equations, walls = _ambient_system(r, n_particles, rank_bound)
    if len(inner.equations) == len(equations):
        return False
    rows = tuple((e["lambda_coeffs"] + e["mu_coeffs"], e["bound"]) for e in report["matched"])
    for corner in _chamber_corners(r, n_particles, rank_bound):
        den = lcm(*(x.denominator for x in corner))
        scaled = tuple(int(x * den) for x in corner)
        if all(_dot(a, scaled) <= b * den for a, b in rows) and any(
            _dot(a, scaled) != b * den for a, b in inner.equations
        ):
            return False
    return polytopes_equal(inner, polytope_from_h(inner.dim, equations, walls + rows))
