"""The forward scan of the double description against the full-product loop it replaced.

The reference (tests/oracles.py) takes every remaining row against the cone
before each insertion, in int64 or Python ints, and copies the rows it does
not imply; the package reads the sorted rows once, block by block, behind a
cursor, in float64 while every product is below 2^53.  Both must insert the
same rows in the same order, so rays, lineality, and the ray-cap error agree
exactly, at every fixed block size, including a block of one row (the
galloping blocks are tested against fixed ones in test_gallop_scan.py).  A hull's
vertices are read off its inserted rows, so they must equal the vertices of
its own H-system.  The pipeline continues its cones across cutoffs, so
their rows go in another order than one pass over the whole system; every
cone it reaches must still be the full-product cone of that system.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from oracles import full_product_cone_dual, random_rational_points, reference_vertices_from_h
from paulitope import polytope
from paulitope.errors import ResourceLimitError
from paulitope.fixtures import spin_orbital_inequalities
from paulitope.polytope import cone_dual, hull, pipeline
from test_hull_engine import DEGENERATE, _chamber_points, assert_rows_of_the_system, hull_rows, pipeline_cones

BLOCKS = [1, 2, 3, 5, 512]


def fixed_blocks(monkeypatch, rows):
    """Make the forward scan read ``rows`` rows a block: its first block, and a cap no larger."""
    monkeypatch.setattr(polytope, "_SCAN_FIRST", rows)
    monkeypatch.setattr(polytope, "_SCAN_ENTRIES", 0)


def assert_same_cone(equations, inequalities, dim):
    got_rows, want_rows = [], []
    got = cone_dual(equations, inequalities, dim, inserted=got_rows)
    assert got == full_product_cone_dual(equations, inequalities, dim, inserted=want_rows)
    assert got_rows == want_rows
    # no float reaches a ray, a lineality vector or an inserted row
    assert all(type(x) is int for x in chain.from_iterable(chain(*got, got_rows)))


def assert_vertices_of_own_h_system(points, **kwargs):
    poly = hull(points, **kwargs)
    assert poly.vertices == reference_vertices_from_h(poly.dim, poly.equations, poly.facets)


# ------------------------------------------------------------ random clouds

CLOUDS = [(dim, dim + 8, seed) for dim in range(2, 8) for seed in range(2)]


@pytest.mark.parametrize("block", BLOCKS)
def test_random_clouds_match_the_full_product_loop(monkeypatch, block):
    fixed_blocks(monkeypatch, block)
    for dim, count, seed in CLOUDS:
        pts = random_rational_points(np.random.default_rng(2000 * dim + seed), count, dim)
        assert_same_cone([], hull_rows(pts), dim + 1)
        if dim <= 5:  # the reference takes seconds on a 6-dimensional vertex system, minutes on a 7-dimensional one
            assert_vertices_of_own_h_system(pts)


@pytest.mark.parametrize("block", BLOCKS)
def test_degenerate_inputs_match_the_full_product_loop(monkeypatch, block):
    fixed_blocks(monkeypatch, block)
    for pts in DEGENERATE.values():
        assert_same_cone([], hull_rows(pts), len(pts[0]) + 1)
        assert_vertices_of_own_h_system(pts)


# ------------------------------------------------------------ pipelines

PIPELINES = {
    "c4": (((1, 1, 1), 6, 1, [2, 4]), {}),
    "mixed-r4-m8": (((2, 1), 4, 2, [4, 8]), {"degree_cap": 36}),
    "c6": (((2, 1), 4, 2, [4, 8, 12]), {"degree_cap": 36}),
}


@pytest.fixture(scope="module")
def pipeline_references():
    """Each pipeline's cone systems, in call order, with the full-product cone of each."""
    references = {}
    for name, ((nu, r, k, schedule), caps) in PIPELINES.items():
        entries = pipeline_cones(lambda: pipeline(nu, r, k, schedule, **caps))
        references[name] = [(eqs, ineqs, dim, full_product_cone_dual(eqs, ineqs, dim)) for eqs, ineqs, dim, *_ in entries]
    return references


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_cone_calls_match_the_full_product_loop(monkeypatch, pipeline_references, name, block):
    (nu, r, k, schedule), caps = PIPELINES[name]
    fixed_blocks(monkeypatch, block)
    entries = pipeline_cones(lambda: pipeline(nu, r, k, schedule, **caps))
    references = pipeline_references[name]
    # one hull and one outer polytope per cutoff, each a continued cone
    assert len(entries) == len(references) == 2 * len(schedule)
    for (equations, inequalities, dim, reached, rows, poly), reference in zip(entries, references):
        assert (equations, inequalities, dim) == reference[:3]
        # every cone the pipeline reaches is the full-product cone of its whole system
        assert reached == reference[3]
        assert_rows_of_the_system(rows, inequalities)
        # no float reaches a ray, a lineality vector or an inserted row
        assert all(type(x) is int for x in chain.from_iterable(chain(*reached, rows)))
        if not equations:  # a hull's vertices are among its inserted rows
            assert poly.vertices == reference_vertices_from_h(poly.dim, poly.equations, poly.facets)


def test_hull_mixed_vertices_in_benchmark_order():
    pts = _mixed_lattice_points(16)
    random.Random(0).shuffle(pts)
    assert_vertices_of_own_h_system(pts)
    assert len(hull(pts).vertices) == 14


# ------------------------------------------------------------ vertex selection


def test_an_inserted_apex_edge_midpoint_is_not_a_vertex():
    # a pyramid over an octahedron in dimension 4, scaled so that the
    # midpoint of the apex edge to (-2, 0, 0, 0) sorts before the apex; the
    # scan inserts it, and it is tight on the 4 facets through that edge,
    # as many as a vertex needs, all of which the apex is tight on too
    octahedron = [tuple(s * (i == j) for j in range(4)) for i in range(3) for s in (2, -2)]
    apex, midpoint = (0, 0, 0, 2), (-1, 0, 0, 1)
    pts = octahedron + [apex, midpoint]
    rows = polytope._row_matrix(pts, 4, lead=True)
    inserted: list = []
    rays, _ = cone_dual([], rows, 5, inserted=inserted)
    assert (1, *midpoint) in inserted and inserted.index((1, *midpoint)) < inserted.index((1, *apex))
    assert sum(sum(a * b for a, b in zip(ray, (1, *midpoint))) == 0 for ray in rays) == 4
    poly = hull(pts)
    assert poly.vertices == tuple(sorted(tuple(map(Fraction, p)) for p in octahedron + [apex]))
    assert poly.vertices == reference_vertices_from_h(4, poly.equations, poly.facets)


@pytest.mark.parametrize("block", [1, 2, 3, 512])
def test_vertex_blocks_of_any_size_pick_the_same_vertices(monkeypatch, block):
    # the tight sets' subset counts go block by block of rows against block by block
    monkeypatch.setattr(polytope, "_VERTEX_BLOCK", block)
    clouds = [random_rational_points(np.random.default_rng(4000 + dim), 12, dim) for dim in (2, 3, 4)]
    curves = [[tuple(i**k for k in range(1, dim + 1)) for i in range(1, 13)] for dim in (2, 3)]
    for pts in clouds + curves + list(DEGENERATE.values()):
        assert_vertices_of_own_h_system(pts)


# ------------------------------------------------------------ product dtype

FLOAT_EXACT = 2**53


def _generator_dtypes(monkeypatch):
    """The dtype of the generator matrix of every ``_products`` call."""
    dtypes = []
    real = polytope._products

    def recording(block, generators):
        dtypes.append(generators.dtype)
        return real(block, generators)

    monkeypatch.setattr(polytope, "_products", recording)
    return dtypes


@pytest.mark.parametrize(
    "rows,dtype",
    [
        # in dimension 1 against the lineality basis (1,), the bound is the row's size
        ([[FLOAT_EXACT - 1], [-(FLOAT_EXACT - 1)]], np.float64),
        ([[FLOAT_EXACT], [-FLOAT_EXACT]], np.int64),
        # row size 2^52 times 1 times dimension 2
        ([[FLOAT_EXACT // 2, 1], [1, -(FLOAT_EXACT // 2)], [0, 1]], np.int64),
        # 3 * (2^53 - 2) / 3, just below
        ([[(FLOAT_EXACT - 2) // 3, 1, 0], [0, -((FLOAT_EXACT - 2) // 3), 1], [1, 1, -1]], np.float64),
    ],
    ids=["2^53-1", "2^53", "2^53-in-dim-2", "2^53-2-in-dim-3"],
)
def test_products_at_the_float_bound_match_the_full_product_loop(monkeypatch, rows, dtype):
    matrix = np.array(rows, dtype=np.int64)
    dtypes = _generator_dtypes(monkeypatch)
    cone_dual([], matrix, matrix.shape[1])
    assert dtypes[0] == dtype
    assert_same_cone([], matrix, matrix.shape[1])


def test_an_odd_product_past_the_float_bound_is_exact(monkeypatch):
    # against the rays (1, 0) and (0, 1) the last row's products are -1 and
    # 2^53 + 1, which float64 would round to 2^53; the new ray is their
    # combination (2^53 + 1, 1)
    matrix = np.array([[1, 0], [0, 1], [-1, FLOAT_EXACT + 1]], dtype=np.int64)
    dtypes = _generator_dtypes(monkeypatch)
    rays, lin = cone_dual([], matrix, 2)
    assert set(dtypes) == {np.dtype(np.int64)}
    assert (rays, lin) == ([(0, 1), (FLOAT_EXACT + 1, 1)], [])
    assert_same_cone([], matrix, 2)


# ------------------------------------------------------------ ray cap


def _five_facet_vertex_system():
    """The homogenized cone ``_vertices_from_h`` builds for the rank-2 five-facet polytope."""
    equations, walls = polytope._ambient_system(4, 3, 2)
    rows = [(r["lambda_coeffs"] + r["mu_coeffs"], r["bound"]) for r in spin_orbital_inequalities()["rows"]]
    eq_rows = [(-b,) + tuple(a) for a, b in equations]
    ineq_rows = [(b,) + tuple(-x for x in a) for a, b in walls + rows] + [(1,) + (0,) * 6]
    return eq_rows, ineq_rows, 7


CAPPED = {
    "cloud-5d": ([], hull_rows(random_rational_points(np.random.default_rng(5005), 12, 5)), 6),
    "five-facet-vertices": _five_facet_vertex_system(),
    "rank-2-points": ([], hull_rows(_chamber_points(6)), 7),
}


def _outcome(engine, equations, inequalities, dim, cap):
    try:
        return engine(equations, inequalities, dim, ray_cap=cap)
    except ResourceLimitError as exc:
        return str(exc)


@pytest.mark.parametrize("block", [3, 512])
@pytest.mark.parametrize("name", sorted(CAPPED))
def test_every_ray_cap_gives_the_same_outcome(monkeypatch, name, block):
    fixed_blocks(monkeypatch, block)
    equations, inequalities, dim = CAPPED[name]
    capped = 0
    for cap in range(1, polytope.RAY_CAP + 1):
        got = _outcome(cone_dual, equations, inequalities, dim, cap)
        assert got == _outcome(full_product_cone_dual, equations, inequalities, dim, cap), cap
        if not isinstance(got, str):
            break
        assert "after inserting" in got
        capped += 1
    # the cap reached the peak ray count, and it bit at least once
    assert capped > 1 and not isinstance(got, str)


# ------------------------------------------------------------ work count


def _mixed_lattice_points(max_den):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rows = workloads.mixed_rows(spin_orbital_inequalities())
    return [
        tuple(Fraction(v, p[-1]) for v in p[:-1])
        for p in workloads.mixed_lattice_points(rows, max_den)
    ]


def test_hull_reads_each_row_about_once(monkeypatch):
    pts = _mixed_lattice_points(12)
    assert len(pts) == 6837
    calls, rows_read = [], []
    real_cone_dual, real_products = polytope.cone_dual, polytope._products

    def recording(equations, inequalities, dim, *rest, **kwargs):
        calls.append((list(equations), inequalities, dim))
        return real_cone_dual(equations, inequalities, dim, *rest, **kwargs)

    def counting(pending, *rest):
        rows_read.append(len(pending))
        return real_products(pending, *rest)

    monkeypatch.setattr(polytope, "cone_dual", recording)
    monkeypatch.setattr(polytope, "_products", counting)
    hull(pts)
    monkeypatch.undo()
    # the point rows alone: the vertices are read off the inserted rows
    assert len(calls) == 1
    n_rows = inserted = 0
    for equations, inequalities, dim in calls:
        order: list = []
        full_product_cone_dual(equations, inequalities, dim, inserted=order)
        n_rows += len(polytope._row_matrix(list(inequalities), dim))
        inserted += len(order)
    assert n_rows == 6837
    # the bound of the fixed 512-row blocks the scan read before it galloped
    assert sum(rows_read) <= n_rows + inserted * 512


# ------------------------------------------------------------ input matrix


def test_a_float_matrix_is_read_exactly():
    rows = np.array([[1, -0.5], [0, 1]])
    assert cone_dual([], rows, 2) == cone_dual([], rows.tolist(), 2) == ([(1, 0), (1, 2)], [])


def test_a_fraction_matrix_is_read_exactly():
    rows = np.array([[Fraction(1), Fraction(-1, 2)], [Fraction(0), Fraction(1)]], dtype=object)
    assert cone_dual([], rows, 2) == ([(1, 0), (1, 2)], [])


def test_an_integer_matrix_of_another_dtype_is_normalised():
    rows = np.array([[2, -1], [0, 3], [0, 1]], dtype=np.int32)
    assert cone_dual([], rows, 2) == cone_dual([], rows.tolist(), 2) == ([(1, 0), (1, 2)], [])


@pytest.mark.parametrize("dtype", [np.int64, np.float64, object])
def test_a_matrix_of_the_wrong_width_is_refused(dtype):
    rows = np.array([[1, 0, 0], [0, 1, 1]], dtype=dtype)
    with pytest.raises(ValueError, match=r"^cone_dual: every inequality needs 2 entries$"):
        cone_dual([], rows, 2)
