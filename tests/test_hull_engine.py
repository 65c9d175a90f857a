"""The double description that skips implied rows against the row-by-row one.

The reference (tests/oracles.py) inserts every inequality, implied or not,
and builds hull rows from Fraction points; the package drops each row the
current cone already implies and builds primitive integer rows directly.
Extreme rays, lineality, and every field of the hull must agree exactly.
The integer helpers (echelon form, reduction, scaling) are checked against
the frozen copies the reference uses.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy

import oracles
from oracles import (
    random_rational_points,
    reference_cone_dual,
    reference_hull,
    reference_point_row,
    reference_vertices_from_h,
)
from paulitope import polytope
from paulitope.errors import ResourceLimitError
from paulitope.fixtures import spin_orbital_inequalities
from paulitope.polytope import _vertices_from_h, cone_dual, hull, pipeline, polytope_from_h
from paulitope.tableaux import partitions_in_box


def assert_same_hull(points):
    got, want = hull(points), reference_hull(points)
    assert got.dim == want.dim
    assert got.equations == want.equations
    assert got.facets == want.facets
    assert got.vertices == want.vertices


def assert_same_cone(equations, inequalities, dim):
    assert cone_dual(equations, inequalities, dim) == reference_cone_dual(
        equations, inequalities, dim
    )


def hull_rows(points):
    return [(Fraction(1),) + tuple(Fraction(x) for x in p) for p in points]


# ------------------------------------------------------------ random clouds

CLOUDS = [(dim, count, seed) for dim, count in ((2, 30), (3, 20), (4, 14), (5, 12)) for seed in range(4)]


@pytest.mark.parametrize("dim,count,seed", CLOUDS, ids=[f"d{d}-n{n}-s{s}" for d, n, s in CLOUDS])
def test_random_cloud_matches_reference(dim, count, seed):
    pts = random_rational_points(np.random.default_rng(1000 * dim + seed), count, dim)
    assert_same_cone([], hull_rows(pts), dim + 1)
    assert_same_hull(pts)


# ------------------------------------------------------- degenerate inputs


def _affine_cloud(rng, count, dim, span):
    """Points of a random span-dimensional affine subspace of Q^dim."""
    base = random_rational_points(rng, 1, dim)[0]
    dirs = random_rational_points(rng, span, dim, denom=2)
    pts = []
    for _ in range(count):
        coeffs = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) for _ in dirs]
        pts.append(tuple(b + sum(c * d[i] for c, d in zip(coeffs, dirs)) for i, b in enumerate(base)))
    return pts


DEGENERATE = {
    "one-point": [(Fraction(3, 2), -1, 4)],
    "one-point-repeated": [(1, 2)] * 5 + [(Fraction(2, 2), Fraction(4, 2))],
    "duplicates": [(0, 0), (1, 0), (0, 1), (1, 0), (Fraction(1), 0), (0, 0), (Fraction(1, 3), Fraction(1, 3))],
    "segment-in-3d": [(0, 0, 0), (2, 4, 6), (1, 2, 3), (Fraction(1, 2), 1, Fraction(3, 2))],
    "square-in-4d": [(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1), (Fraction(1, 2), 0, 1, 1)],
    "plane-in-4d": _affine_cloud(np.random.default_rng(5), 9, 4, 2),
    "solid-in-5d": _affine_cloud(np.random.default_rng(6), 10, 5, 3),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_input_matches_reference(name):
    pts = DEGENERATE[name]
    assert_same_cone([], hull_rows(pts), len(pts[0]) + 1)
    assert_same_hull(pts)


# ----------------------------------------------------------- equations


def _integer_rows(rng, count, dim, lo=-3, hi=4):
    return [tuple(int(x) for x in rng.integers(lo, hi, dim)) for _ in range(count)]


def _equation_cases():
    rng = np.random.default_rng(60)
    cases = {}
    for dim in (2, 3, 4, 5):
        ineqs = _integer_rows(rng, 3 * dim, dim)
        e1, e2 = _integer_rows(rng, 2, dim)
        cases[f"d{dim}-none"] = ([], ineqs, dim)
        cases[f"d{dim}-repeated"] = ([e1, e1, tuple(-2 * x for x in e1)], ineqs, dim)
        dependent = tuple(2 * x - 3 * y for x, y in zip(e1, e2))
        cases[f"d{dim}-dependent"] = ([e1, e2, dependent, (0,) * dim], ineqs, dim)
        halves = [tuple(Fraction(int(x), 2) for x in e) for e in (e1, e2)]
        cases[f"d{dim}-fractions"] = (halves, ineqs, dim)
        unit = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
        cases[f"d{dim}-no-lineality"] = (unit[::-1] + [e1], ineqs, dim)
        cases[f"d{dim}-one-left"] = (unit[1:], ineqs, dim)
    return cases


EQUATION_CASES = _equation_cases()


@pytest.mark.parametrize("name", sorted(EQUATION_CASES))
def test_equations_match_reference(name):
    equations, inequalities, dim = EQUATION_CASES[name]
    assert_same_cone(equations, inequalities, dim)


# ------------------------------------------------------- integer helpers


def _vector_lists():
    """Seeded vector lists with dependent vectors, zero vectors and negative leading entries."""
    rng = np.random.default_rng(61)
    lists = []
    for dim in range(1, 7):
        for _ in range(40):
            vecs = []
            for _ in range(int(rng.integers(0, 8))):
                kind = rng.random()
                if vecs and kind < 0.25:
                    a, b = (vecs[i] for i in rng.integers(0, len(vecs), 2))
                    c, d = (int(x) for x in rng.integers(-2, 3, 2))
                    vecs.append(tuple(c * x + d * y for x, y in zip(a, b)))
                elif kind < 0.35:
                    vecs.append((0,) * dim)
                else:
                    vec = list(_integer_rows(rng, 1, dim, -5, 6)[0])
                    lead = int(rng.integers(0, dim))
                    vec[:lead] = [0] * lead
                    vec[lead] = -abs(vec[lead]) or -1
                    vecs.append(tuple(vec) if kind < 0.7 else tuple(-x for x in vec))
            lists.append((dim, vecs))
    return lists


VECTOR_LISTS = _vector_lists()


def test_vector_lists_cover_every_kind():
    flat = [v for _, vecs in VECTOR_LISTS for v in vecs]
    assert any(not any(v) for v in flat)
    assert any(v[next(i for i, x in enumerate(v) if x)] < 0 for v in flat if any(v))
    assert any(len(oracles._echelon(vecs)) < len(vecs) for _, vecs in VECTOR_LISTS)


def test_echelon_matches_frozen_helper():
    for _, vecs in VECTOR_LISTS:
        basis = polytope._echelon(vecs)
        assert basis == oracles._echelon(vecs)
        pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
        assert pivots == sorted(set(pivots))
        assert all(b[p] > 0 for b, p in zip(basis, pivots))


def test_reduce_mod_matches_frozen_helper():
    rng = np.random.default_rng(62)
    for dim, vecs in VECTOR_LISTS:
        basis = polytope._echelon(vecs)
        probes = vecs + _integer_rows(rng, 3, dim, -9, 10) + [(0,) * dim]
        for vec in probes:
            assert polytope._reduce_mod(vec, basis) == oracles._reduce_mod(vec, basis)


def test_scale_to_int_matches_frozen_helper():
    rng = np.random.default_rng(63)
    rows = [(), (0,), (0, 0, 0), (Fraction(-4, 6), 0, 2), (-6, 9, 12)]
    for dim in range(1, 7):
        for _ in range(60):
            nums = rng.integers(-12, 13, dim)
            dens = rng.integers(1, 7, dim)
            rows.append(tuple(Fraction(int(n), int(d)) for n, d in zip(nums, dens)))
            rows.append(tuple(int(n) for n in nums))
    for row in rows:
        assert polytope._scale_to_int(row) == oracles._scale_to_int(row)


# ------------------------------------------------------------ H-systems


def pipeline_cones(run) -> list[tuple]:
    """What each double description that ``run``'s pipelines build reaches, with its whole system.

    One entry per hull and per outer polytope, in call order: the equations,
    inequalities (as tuples) and dimension of the system the cone stands
    for, written out here from the call's arguments; the rays and lineality
    the cone reached; the rows it inserted; and the Polytope the call
    returned.  A hull's system is its point rows, and its cone the one the
    pipeline continues; an outer polytope's is the homogenization cone
    (t, x) of its H-system: (-b, a) = 0 for each equation, (b, -a) >= 0 for
    each inequality, and t >= 0, which ``polytope_from_h`` builds in one
    ``cone_dual`` pass, as it is repeated here.  An outer polytope's
    vertices must be those of the reference's pass.
    """
    entries = []

    def hull_of(points, *, rows=False, cone=None):
        poly = hull(points, rows=rows, cone=cone)
        matrix = points if rows else polytope._row_matrix(points, len(points[0]), lead=True)
        system = ([], [tuple(row) for row in matrix.tolist()], matrix.shape[1])
        entries.append((*system, cone.result(), cone.rows[:], poly))
        return poly

    def outer_of(dim, equations, inequalities):
        poly = polytope_from_h(dim, equations, inequalities)
        assert poly.vertices == reference_vertices_from_h(dim, equations, inequalities)
        eqs = [(-b, *a) for a, b in equations]
        ineqs = [(b, *(-x for x in a)) for a, b in inequalities] + [(1,) + (0,) * dim]
        rows: list = []
        entries.append((eqs, ineqs, dim + 1, cone_dual(eqs, ineqs, dim + 1, inserted=rows), rows, poly))
        return poly

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "hull", hull_of)
        mp.setattr(polytope, "polytope_from_h", outer_of)
        run()
    return entries


def assert_rows_of_the_system(rows, inequalities) -> None:
    """The inserted rows are distinct primitive rows of the inequalities."""
    assert len(set(rows)) == len(rows)
    assert set(rows) <= {oracles._primitive(oracles._scale_to_int(a)) for a in inequalities}


def test_h_systems_of_random_hulls_match_reference():
    rng = np.random.default_rng(77)
    for dim in (2, 3, 4):
        for _ in range(3):
            poly = hull(random_rational_points(rng, 9, dim))
            assert _vertices_from_h(dim, poly.equations, poly.facets) == reference_vertices_from_h(
                dim, poly.equations, poly.facets
            )


def test_pipeline_h_systems_match_reference():
    def run():
        pipeline((1, 1, 1), 6, 1, [2, 4])
        pipeline((2, 1), 4, 2, [4], degree_cap=36)
        pipeline((1, 1), 4, 1, [2])

    entries = pipeline_cones(run)
    # one continued hull cone per cutoff; the facet match decides every
    # cutoff of the first two runs, and Lambda^2 C^4 at M = 2 builds the one
    # outer polytope, whose match cannot decide it
    assert len(entries) == 5
    assert [bool(equations) for equations, *_ in entries] == [False] * 4 + [True]
    for equations, inequalities, dim, reached, rows, _ in entries:
        assert reached == reference_cone_dual(equations, inequalities, dim)
        # the inserted rows alone cut out the cone of the whole system
        assert reached == reference_cone_dual(equations, rows, dim)
        assert_rows_of_the_system(rows, inequalities)


def test_spin_orbital_outer_polytope_matches_reference():
    table = spin_orbital_inequalities()
    equations, walls = polytope._ambient_system(4, 3, 2)
    rows = [(r["lambda_coeffs"] + r["mu_coeffs"], r["bound"]) for r in table["rows"]]
    poly = polytope_from_h(6, equations, [*walls, *rows])
    assert poly.vertices == reference_vertices_from_h(6, equations, [*walls, *rows])
    assert len(poly.vertices) == 14


# ------------------------------------------------- rank-2 chamber points


def _chamber_points(max_den):
    """Every (2,1), r=4, rank-2 chamber point with denominator <= max_den."""
    pts = set()
    for q in range(1, max_den + 1):
        for lam in partitions_in_box(4, 3 * q, 3 * q):
            lam = lam + (0,) * (4 - len(lam))
            for m2 in range(q // 2 + 1):
                pts.add(tuple(Fraction(x, q) for x in lam + (q - m2, m2)))
    return sorted(pts)


def _inside(point, rows):
    return all(sum(c * x for c, x in zip(coeffs, point)) <= b for coeffs, b in rows)


def test_rank_two_chamber_points_match_reference():
    pts = _chamber_points(6)
    assert len(pts) == 579
    assert_same_hull(pts)


def test_rank_two_five_facet_points_match_reference():
    table = spin_orbital_inequalities()
    rows = [(r["lambda_coeffs"] + r["mu_coeffs"], r["bound"]) for r in table["rows"]]
    pts = [p for p in _chamber_points(6) if _inside(p, rows)]
    assert_same_hull(pts)
    assert len(hull(pts).facets) > 5


# ------------------------------------------------------------ point matrix


def _hull_matrix(monkeypatch, points):
    """The inequality matrix that ``hull`` hands to cone_dual, and the hull."""
    handed = []

    def recording(equations, inequalities, dim, *rest, **kwargs):
        handed.append(inequalities)
        return cone_dual(equations, inequalities, dim, *rest, **kwargs)

    monkeypatch.setattr(polytope, "cone_dual", recording)
    poly = hull(points)
    return handed[0], poly


def assert_reference_rows(matrix, points):
    assert isinstance(matrix, np.ndarray)
    assert [tuple(row) for row in matrix.tolist()] == sorted({reference_point_row(p) for p in points})


@pytest.mark.parametrize("dim,count,seed", CLOUDS, ids=[f"d{d}-n{n}-s{s}" for d, n, s in CLOUDS])
def test_point_matrix_matches_reference_rows(monkeypatch, dim, count, seed):
    pts = random_rational_points(np.random.default_rng(1000 * dim + seed), count, dim)
    matrix, _ = _hull_matrix(monkeypatch, pts)
    assert matrix.dtype == np.int64
    assert_reference_rows(matrix, pts)


def test_rank_two_point_matrix_matches_reference_rows(monkeypatch):
    pts = _chamber_points(6)
    shuffled = [pts[i] for i in np.random.default_rng(8).permutation(len(pts))]
    matrix, _ = _hull_matrix(monkeypatch, shuffled)
    assert matrix.shape == (579, 7)
    assert_reference_rows(matrix, pts)


def test_point_matrix_at_a_patched_limit_takes_the_object_path(monkeypatch):
    # max|numerator| 6 times lcm(1..4) = 72 does not fit under the limit
    pts = random_rational_points(np.random.default_rng(41), 12, 3)
    monkeypatch.setattr("paulitope.plethysm._INT64_LIMIT", 10)
    matrix, _ = _hull_matrix(monkeypatch, pts)
    assert matrix.dtype == object
    assert_reference_rows(matrix, pts)
    assert_same_hull(pts)


def test_point_matrix_beyond_int64_takes_the_object_path(monkeypatch):
    # every coordinate has its own prime denominator near 2^11, so the lcm of
    # a row's six denominators is above 2^66
    rng = np.random.default_rng(42)
    primes = sympy.primerange(2**11, 2**12)
    numerators = [-3, -2, -1, 1, 2, 3]
    pts = [tuple(Fraction(int(rng.choice(numerators)), next(primes)) for _ in range(6)) for _ in range(8)]
    assert min(reference_point_row(p)[0] for p in pts) > 2**63
    matrix, _ = _hull_matrix(monkeypatch, pts)
    assert matrix.dtype == object
    assert_reference_rows(matrix, pts)
    assert_same_hull(pts)


def test_point_matrix_reads_mixed_coordinate_types(monkeypatch):
    point = (-3, Fraction(-5, 6), "-7/4", -0.375, 2, Fraction(9, 4))
    as_fractions = tuple(Fraction(x) for x in point)
    matrix, got = _hull_matrix(monkeypatch, [point, as_fractions])
    assert [tuple(row) for row in matrix.tolist()] == [reference_point_row(point)]
    assert reference_point_row(point) == (24, -72, -20, -42, -9, 48, 54)
    assert got.vertices == (as_fractions,)
    assert_same_hull([point])


def test_numpy_integer_coordinates_do_not_wrap(monkeypatch):
    # Fraction(np.int64(x)) keeps an int64 numerator, which the object path
    # would multiply past 2^63
    pts = [(np.int64(2**62), Fraction(1, 3)), (np.int64(0), np.int64(0)), (np.int64(1), np.int64(5))]
    exact = [tuple(int(x) if isinstance(x, np.integer) else x for x in p) for p in pts]
    matrix, got = _hull_matrix(monkeypatch, pts)
    assert matrix.dtype == object
    assert_reference_rows(matrix, exact)
    assert got == hull(exact)
    assert_same_hull(exact)


def test_row_matrix_matches_the_reference_normalisation():
    # cone_dual's rows: primitive, zero rows dropped, then sorted without repeats
    rng = np.random.default_rng(43)
    rows = [
        tuple(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(4))
        for _ in range(40)
    ]
    rows += [(0, 0, 0, 0), tuple(3 * x for x in rows[0]), rows[1], (Fraction(0), 0, 0, Fraction(0, 7))]
    matrix = polytope._row_matrix(rows, 4)
    want = sorted({r for r in map(polytope._scale_to_int, rows) if any(r)})
    assert [tuple(row) for row in matrix.tolist()] == want


def test_cone_dual_rejects_a_row_of_the_wrong_width():
    with pytest.raises(ValueError, match="needs 2 entries"):
        cone_dual([], [(1, 0), (0, 1, 1)], 2)


@pytest.mark.parametrize("equation", [(1,), (1, 1, 5)], ids=["short", "long"])
def test_cone_dual_rejects_an_equation_of_the_wrong_width(equation):
    with pytest.raises(ValueError, match=r"^cone_dual: every equation needs 2 entries$"):
        cone_dual([equation], [(1, 0)], 2)


# ------------------------------------------------------------ exactness


def _recorded_dtypes(monkeypatch):
    choices = []
    real = polytope._entry_dtype

    def recording(bound):
        dtype = real(bound)
        choices.append((bound, dtype))
        return dtype

    monkeypatch.setattr(polytope, "_entry_dtype", recording)
    return choices


@pytest.mark.parametrize(
    "float_limit,int_limit,dtype",
    [(3, None, np.float64), (2, None, np.int64), (2, 2, np.int64), (2, 1, object)],
    # the last two are named by their int64 limit alone, as before the float64 tier
    ids=["float-3-float64", "float-2-int64", "2-int64", "1-object"],
)
def test_product_dtype_at_the_bound(monkeypatch, float_limit, int_limit, dtype):
    # orthant: rows of size 1 against the identity lineality basis in dim 2,
    # so the first product is bounded by 1 * 1 * 2: float64 below the float
    # limit, else int64 up to the int64 limit (choice 0 is the row matrix)
    choices = _recorded_dtypes(monkeypatch)
    generators = []
    real = polytope._products
    monkeypatch.setattr(polytope, "_products", lambda block, gens: generators.append(gens.dtype) or real(block, gens))
    monkeypatch.setattr(polytope, "_FLOAT_EXACT", float_limit)
    if int_limit is not None:
        monkeypatch.setattr("paulitope.plethysm._INT64_LIMIT", int_limit)
    rays, lin = cone_dual([], [(1, 0), (0, 1)], 2)
    assert generators[0] == dtype
    assert choices[1:2] == ([] if dtype is np.float64 else [(2, dtype)])
    assert (rays, lin) == ([(0, 1), (1, 0)], [])
    assert all(type(x) is int for ray in rays for x in ray)


def test_large_coordinates_take_the_python_int_path(monkeypatch):
    rng = np.random.default_rng(40)
    big = 2**40
    pts = [
        tuple(big + int(rng.integers(-50, 51)) * (1 if i % 2 else -1) for i in range(3))
        for _ in range(8)
    ] + [(big, big, big + 7), (Fraction(big, 3), big, big - 1)]
    choices = _recorded_dtypes(monkeypatch)
    got = hull(pts)
    assert any(dtype is object for _, dtype in choices)
    want = reference_hull(pts)
    assert (got.equations, got.facets, got.vertices) == (want.equations, want.facets, want.vertices)


def test_ray_cap_error_names_the_stage():
    # the 4-cube in homogenized H form has 16 dual rays; each row cuts a new face
    ineqs = []
    for i in range(4):
        for s in (1, -1):
            row = [1, 0, 0, 0, 0]
            row[i + 1] = s
            ineqs.append(tuple(row))
    with pytest.raises(
        ResourceLimitError,
        match=r"^cone_dual: ray count \d+ exceeds cap 8 after inserting \d of 8 inequalities \(dim 5\)$",
    ):
        cone_dual([], ineqs, 5, ray_cap=8)


# ------------------------------------------------------- input contract


def test_hull_accepts_any_iterable():
    pts = random_rational_points(np.random.default_rng(3), 10, 3)
    assert hull(iter(pts)) == hull(pts)
    assert hull(p for p in pts) == hull(pts)
    # the input order does not matter, so callers need not sort
    shuffled = [pts[i] for i in np.random.default_rng(4).permutation(len(pts))]
    assert hull(shuffled) == hull(sorted(set(pts)))


def test_int_and_fraction_coordinates_agree():
    ints = [(0, 0, 0), (3, 0, 1), (0, 2, 5), (1, 1, 1), (4, 4, 0), (2, 0, 3)]
    fracs = [tuple(Fraction(x) for x in p) for p in ints]
    assert hull(ints) == hull(fracs)
    halves = [tuple(Fraction(x, 2) for x in p) for p in ints]
    as_text = [tuple(f"{x}/2" for x in p) for p in ints]
    as_float = [tuple(x / 2 for x in p) for p in ints]
    assert hull(halves) == hull(as_text) == hull(as_float)


def test_hull_rejects_empty_and_mixed_arity():
    with pytest.raises(ValueError, match="at least one point"):
        hull([])
    with pytest.raises(ValueError, match="at least one point"):
        hull(iter(()))
    with pytest.raises(ValueError, match="mixed arity"):
        hull([(0, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="mixed arity"):
        hull(itertools.chain([(Fraction(1, 2), 0)], [(1,)]))


# ------------------------------------------------------------ tight facets


def test_hull_of_one_point_has_no_facets():
    for pts in ([(1, 2, 3)], [(Fraction(3, 2), -1, 4)] * 3):
        poly = hull(pts)
        assert poly.facets == ()
        assert len(poly.equations) == 3
        assert poly.vertices == (tuple(Fraction(x) for x in pts[0]),)
    history = pipeline((1, 1, 1), 6, 1, [1])["history"]
    assert [(h["vertices"], h["facets"], h["equations"]) for h in history] == [(1, 0, 6)]


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_every_facet_is_tight_at_a_vertex(name):
    poly = hull(DEGENERATE[name])
    for a, b in poly.facets:
        assert any(sum(c * x for c, x in zip(a, v)) == b for v in poly.vertices), (a, b)
    assert len(poly.facets) != 1
