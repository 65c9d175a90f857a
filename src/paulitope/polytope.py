"""Exact convex geometry over the rationals and the moment-polytope loop.

The double description core works on integer vectors with bitmask incidence
sets, so every hull, vertex, and facet computation is exact.  The pipeline
alternates between hulls of representation-theoretic inner points and outer
polytopes cut out by the inequalities those hulls suggest; when the two
coincide the polytope is certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Integral
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .coefficients import coefficient, inequality_to_triple
from .errors import ResourceLimitError, UnmatchedInequalityError
from .plethysm import (
    INNER_POINT_DEGREE_CAP,
    INNER_POINT_LEVEL_CAP,
    _INT64_LIMIT,
    _check_request,
    _entry_dtype,
    inner_points,
)
from .tableaux import normalize, size

RAY_CAP = 20000
# Rows one step of the double description's forward scan takes against the
# cone.  On the hull-mixed rows 128 to 1024 are about equally fast; 2048 is slower.
_SCAN_BLOCK = 512

IntVec = tuple[int, ...]


def _scale_to_int(row: Sequence) -> IntVec:
    """Clear denominators and divide by the content; zero rows stay zero."""
    fracs = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fracs))
    return _primitive(int(x * den) for x in fracs)


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
            if l > _INT64_LIMIT:
                return l
    return l


def _row_matrix(rows: Sequence[Sequence], width: int, lead: bool = False) -> np.ndarray:
    """The distinct primitive integer rows of a rational matrix, in lexicographic order.

    Each row has ``width`` entries; ``lead`` puts a 1 before each, so points
    become the rows (den, x1*den, ...) of their homogenization.  Each row is
    scaled by the lcm of its denominators and divided by the gcd of the
    result; zero rows are dropped and the rest come out in the order
    ``sorted(set(rows))`` gives.  Numerators, then denominators, are read in
    one pass each straight into int64: through the ``_numerator`` and
    ``_denominator`` slots (C-level, where the public properties run Python
    code) when every entry is exactly a ``Fraction``, through the properties
    for other ints and Fractions, and after ``_exact`` for anything else.
    The matrix is int64 when max|numerator| * lcm(denominators), the leading
    1 included, fits; otherwise it holds Python ints (dtype=object), read
    again through ``int()`` so that numpy-int numerators cannot wrap.  Every
    scaled entry, and every lcm on the way, is bounded by that product.
    """
    n = len(rows)
    types = set(map(type, chain.from_iterable(rows)))
    if types <= {Fraction}:
        attrs = ("_numerator", "_denominator")
    else:
        attrs = ("numerator", "denominator")
        if not all(issubclass(t, (int, Fraction)) for t in types):
            rows = [[_exact(x) for x in row] for row in rows]
    try:
        nums, dens = (
            np.fromiter(map(attrgetter(a), chain.from_iterable(rows)), np.int64, n * width) for a in attrs
        )
    except OverflowError:
        dtype = object
    else:
        num_max = max(int(nums.max(initial=0)), -int(nums.min(initial=0)), lead)
        dtype = _entry_dtype(num_max * _lcm_int64(dens))
    if dtype is object:
        nums, dens = (
            np.fromiter(map(int, map(attrgetter(a), chain.from_iterable(rows))), object, n * width)
            for a in attrs
        )
    nums, dens = nums.reshape(n, width), dens.reshape(n, width)
    scale = np.lcm.reduce(dens, axis=1, initial=1)
    np.floor_divide(scale[:, None], dens, out=dens)
    nums *= dens
    del dens
    if lead:
        nums = np.column_stack((scale, nums))
    nums //= np.maximum(np.gcd.reduce(nums, axis=1), 1)[:, None]
    nums = nums[np.lexsort(nums.T[::-1])]
    keep = nums.any(axis=1)
    keep[1:] &= (nums[1:] != nums[:-1]).any(axis=1)
    return nums[keep]


def _products(pending: np.ndarray, row_max: int, gens: list[IntVec]) -> np.ndarray:
    """The matrix of a.g for every pending row a and generator g.

    The product is exact: int64 when max|row| * max|generator| * dim fits,
    Python ints otherwise.
    """
    gen_max = max(map(abs, chain.from_iterable(gens)))
    dtype = _entry_dtype(row_max * gen_max * pending.shape[1])
    return pending.astype(dtype, copy=False) @ np.array(gens, dtype=dtype).T


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


def cone_dual(
    equations: Iterable[Sequence],
    inequalities: Iterable[Sequence] | np.ndarray,
    dim: int,
    ray_cap: int = RAY_CAP,
) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of {x : e.x = 0 for all e, a.x >= 0}.

    The inequalities are one integer matrix of distinct primitive rows in
    lexicographic order: either the matrix ``_row_matrix`` builds, which
    ``hull`` passes and which is used as it is (as is any int64 or
    Python-int matrix of width ``dim``, in its own row order), or rows of
    rationals, as a list or any other array, which go through
    ``_row_matrix`` here.  Equations only restrict the lineality
    space, and they are eliminated before any inequality, while there are
    no rays yet.  The inequalities are then inserted in the matrix order
    with the standard double description step, using bitmasks over the
    inserted inequalities for the adjacency test.

    The rows are read by one forward scan.  A cursor walks the matrix in
    blocks of _SCAN_BLOCK rows, and one matrix product takes each block
    against the current lineality basis and rays.  A row a is implied when
    a.l = 0 for every lineality vector l and a.r >= 0 for every ray r.  A
    row that is implied by the current cone is implied by every later,
    smaller cone, so the cursor passes it for good; the first row that is
    not implied is inserted, driven by its own row of the product, and the
    cursor moves to the row after it.  Every row behind the cursor is thus
    inserted or implied, and each row is read about once, plus one block
    per insertion.  The output is the same as inserting every row: extreme
    rays and lineality depend only on the cone, not on redundant rows; the
    combinatorial adjacency test is valid for any system that defines the
    cone; and the kept rows go in in the same order, so the ray count at each
    step, and with it the ray cap, is unchanged.
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
    n_rows = len(pending)
    row_max = int(np.abs(pending).max(initial=0))
    lineality: list[IntVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[IntVec, int]] = []
    nbits = 0

    def pivot(lin_ds: list[int], ray_ds: list[int], new_bit: int):
        nonlocal lineality, rays
        lineality, l0, d0 = _restrict(lineality, lin_ds)
        new_rays = []
        for (vec, zs), d in zip(rays, ray_ds):
            if d:
                comb = tuple(d0 * x - d * y for x, y in zip(vec, l0))
                if d0 < 0:
                    comb = tuple(-x for x in comb)
                vec = _primitive(comb)
            new_rays.append((vec, zs | new_bit))
        rays = new_rays
        rays.append((l0 if d0 > 0 else tuple(-x for x in l0), new_bit - 1))

    def split(ray_ds: list[int], new_bit: int):
        nonlocal rays
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
        rays = [(v, z) for v, z, _ in pos] + zero + combos
        if len(rays) > ray_cap:
            raise ResourceLimitError(
                f"cone_dual: ray count {len(rays)} exceeds cap {ray_cap} after inserting "
                f"{nbits} of {n_rows} inequalities (dim {dim})"
            )

    for a in map(_scale_to_int, equations):
        ds = [_dot(a, l) for l in lineality]
        if any(ds):
            lineality = _restrict(lineality, ds)[0]

    pos = 0
    while pos < n_rows and (lineality or rays):
        n_lin = len(lineality)
        block = _products(pending[pos : pos + _SCAN_BLOCK], row_max, lineality + [vec for vec, _ in rays])
        live = (block[:, :n_lin] != 0).any(axis=1) | (block[:, n_lin:] < 0).any(axis=1)
        if not live.any():
            pos += len(block)
            continue
        first = int(live.argmax())
        ds = block[first].tolist()
        pos += first + 1
        bit = 1 << nbits
        nbits += 1
        if any(ds[:n_lin]):
            pivot(ds[:n_lin], ds[n_lin:], bit)
        else:
            split(ds[n_lin:], bit)

    basis = _echelon(lineality)
    seen = set()
    out_rays = []
    for vec, _ in rays:
        red = _reduce_mod(vec, basis)
        if any(red) and red not in seen:
            seen.add(red)
            out_rays.append(red)
    return sorted(out_rays), basis


@dataclass(frozen=True)
class Polytope:
    """H and V description of a bounded rational polytope."""

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
    """Vertices of {x : eq, ineq} via the homogenization cone; errors if unbounded."""
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


def polytope_from_h(
    dim: int,
    equations: Sequence[tuple[Sequence[int], int]],
    inequalities: Sequence[tuple[Sequence[int], int]],
) -> Polytope:
    """Bounded polytope from an explicit H description (kept as given, bounds exact)."""
    eqs = tuple((tuple(a), _exact(b)) for a, b in equations)
    ineqs = tuple((tuple(a), _exact(b)) for a, b in inequalities)
    return Polytope(dim, eqs, ineqs, _vertices_from_h(dim, eqs, ineqs))


def hull(points: Iterable[Sequence]) -> Polytope:
    """Convex hull with exact facets, equations, and vertices.

    Works in the dual: each point p contributes the constraint c0 + c.p >= 0
    on affine functionals (c0, c); lineality directions of that cone are the
    equations of the hull and extreme rays are its facets.  Coordinates may
    be ints, Fractions, or anything ``Fraction()`` accepts.

    The points go to ``cone_dual`` as one integer matrix of the primitive
    rows (den, x1*den, ...), den the lcm of a point's denominators, without
    repeats and in lexicographic order, so the input order does not matter.
    ``_row_matrix`` reads it, through the Fraction slots when every
    coordinate is exactly a Fraction; it is int64 when max|numerator| *
    lcm(denominators) fits and holds Python ints otherwise.
    """
    points = list(points)
    arities = set(map(len, points))
    if not arities:
        raise ValueError("need at least one point")
    if len(arities) > 1:
        raise ValueError("points have mixed arity")
    (dim,) = arities
    rays, lin = cone_dual([], _row_matrix(points, dim, lead=True), dim + 1)

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
    facets = []
    for ray in rays:
        coeffs, c0 = ray[1:], ray[0]
        if not any(_reduce_mod(coeffs, normals)):
            continue
        facets.append((tuple(-x for x in coeffs), c0))
    eqs = tuple(sorted(set(equations)))
    fac = tuple(sorted(set(facets)))
    vertices = _vertices_from_h(dim, eqs, fac)
    return Polytope(dim, eqs, fac, vertices)


def polytopes_equal(p: Polytope, q: Polytope) -> bool:
    """Set equality via mutual vertex containment, on integer rows."""
    if p.dim != q.dim:
        return False
    return _vertices_inside(p, q) and _vertices_inside(q, p)


def _vertices_inside(p: Polytope, q: Polytope) -> bool:
    """Whether every vertex of p satisfies the equations and facets of q, exactly.

    Vertices x become the rows (den, x*den); an equation a.x = b becomes the
    row (-b, a) and a facet a.x <= b the row (b, -a), each scaled to
    integers.  One product then holds every vertex against every row: it
    must be 0 for the equations and >= 0 for the facets.
    """
    width = p.dim + 1
    eqs = _row_matrix([(-b, *a) for a, b in q.equations], width).tolist()
    facets = _row_matrix([(b, *(-c for c in a)) for a, b in q.facets], width).tolist()
    if not eqs and not facets:
        return True
    vertices = _row_matrix(p.vertices, p.dim, lead=True)
    products = _products(vertices, int(np.abs(vertices).max(initial=0)), eqs + facets)
    return not products[:, : len(eqs)].any() and bool((products[:, len(eqs) :] >= 0).all())


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
    vec = [Fraction(x) for x in coeffs]
    if len(vec) != groups[-1][1]:
        raise ValueError(f"expected {groups[-1][1]} coefficients, got {len(vec)}")
    b = Fraction(bound)
    for start, end, trace in groups:
        shift = min(vec[start:end])
        vec[start:end] = [x - shift for x in vec[start:end]]
        b -= shift * trace
    scaled = _scale_to_int(vec + [b])
    return scaled[:r], scaled[r:-1], scaled[-1]


def _ambient_system(r: int, n_particles: int, rank_bound: int):
    """Trace equations (a, b) for a.x = b, and chamber walls (a, b) for a.x <= b.

    The walls order each coordinate group and keep its last coordinate
    non-negative.
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
    return equations, walls


def facet_match(poly: Polytope, nu, r: int, rank_bound: int = 1) -> dict:
    """Try to certify every nontrivial face constraint of a hull.

    Facets are processed with their outward orientation; every non-ambient
    equation is tried in both orientations, since each side must be a theorem
    for the equation to persist in the limit.  A constraint is matched when
    its triple exists and has a nonzero coefficient.
    """
    nu = normalize(nu)
    n_particles = size(nu)
    _, walls = _ambient_system(r, n_particles, rank_bound)
    wall_forms = {canonical_inequality(a, b, r, n_particles, rank_bound) for a, b in walls}
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

    Every cutoff of the schedule is checked against the caps before any
    degree is built.  For each cutoff M in the schedule, the hull of the
    normalized component points is computed, its faces are matched against
    test-spectrum triples, and the outer polytope cut by the matched
    inequalities (inside the ambient chamber) is intersected with the
    chamber.  The run stops at the first M where inner and outer polytopes
    agree; the report carries the full history either way.
    """
    nu = normalize(nu)
    m_schedule = list(m_schedule)
    for m_cap in m_schedule:
        _check_request(nu, r, rank_bound, m_cap, level_cap, degree_cap)
    n_particles = size(nu)
    mixed = rank_bound > 1
    ambient_eqs, ambient_ineqs = _ambient_system(r, n_particles, rank_bound)
    history = []
    converged_at = None
    inner = None
    report = None
    for m_cap in m_schedule:
        points = inner_points(nu, r, rank_bound, m_cap, level_cap, degree_cap)
        coords = [lam + mu if mixed else lam for lam, mu in points]
        inner = hull(coords)
        report = facet_match(inner, nu, r, rank_bound)
        extra = [
            (tuple(e["lambda_coeffs"]) + tuple(e["mu_coeffs"]), e["bound"])
            for e in report["matched"]
        ]
        outer = polytope_from_h(inner.dim, ambient_eqs, ambient_ineqs + extra)
        converged = polytopes_equal(inner, outer)
        history.append(
            {
                "M": m_cap,
                "points": len(coords),
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
