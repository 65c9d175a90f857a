"""The forward scan of the double description against the full-product loop it replaced.

The reference (tests/oracles.py) takes every remaining row against the cone
before each insertion and copies the rows it does not imply; the package
reads the sorted rows once, block by block, behind a cursor.  Both must
insert the same rows in the same order, so rays, lineality, and the ray-cap
error agree exactly, at every block size, including a block of one row.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import full_product_cone_dual, random_rational_points
from paulitope import polytope
from paulitope.errors import ResourceLimitError
from paulitope.fixtures import spin_orbital_inequalities
from paulitope.polytope import cone_dual, hull, pipeline
from test_hull_engine import DEGENERATE, _chamber_points, hull_rows

BLOCKS = [1, 2, 3, 5, 512]


def assert_same_cone(equations, inequalities, dim):
    assert cone_dual(equations, inequalities, dim) == full_product_cone_dual(
        equations, inequalities, dim
    )


# ------------------------------------------------------------ random clouds

CLOUDS = [(dim, dim + 8, seed) for dim in range(2, 8) for seed in range(2)]


@pytest.mark.parametrize("block", BLOCKS)
def test_random_clouds_match_the_full_product_loop(monkeypatch, block):
    monkeypatch.setattr(polytope, "_SCAN_BLOCK", block)
    for dim, count, seed in CLOUDS:
        pts = random_rational_points(np.random.default_rng(2000 * dim + seed), count, dim)
        assert_same_cone([], hull_rows(pts), dim + 1)


@pytest.mark.parametrize("block", BLOCKS)
def test_degenerate_inputs_match_the_full_product_loop(monkeypatch, block):
    monkeypatch.setattr(polytope, "_SCAN_BLOCK", block)
    for pts in DEGENERATE.values():
        assert_same_cone([], hull_rows(pts), len(pts[0]) + 1)


# ------------------------------------------------------------ pipelines

PIPELINES = {
    "c4": (((1, 1, 1), 6, 1, [2, 4]), {}),
    "mixed-r4-m8": (((2, 1), 4, 2, [4, 8]), {"degree_cap": 36}),
    "c6": (((2, 1), 4, 2, [4, 8, 12]), {"degree_cap": 36}),
}


@pytest.fixture(scope="module")
def pipeline_calls():
    """Every (equations, inequalities, dim) each pipeline hands to cone_dual, as handed."""
    calls = {}
    for name, ((nu, r, k, schedule), caps) in PIPELINES.items():
        calls[name] = []

        def recording(equations, inequalities, dim, *rest, into=calls[name]):
            equations = list(equations)
            if not isinstance(inequalities, np.ndarray):
                inequalities = list(inequalities)
            into.append((equations, inequalities, dim))
            return cone_dual(equations, inequalities, dim, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polytope, "cone_dual", recording)
            pipeline(nu, r, k, schedule, **caps)
    return calls


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_cone_calls_match_the_full_product_loop(monkeypatch, pipeline_calls, name, block):
    calls = pipeline_calls[name]
    # one hull and its vertex system, one outer system, per cutoff
    assert len(calls) == 3 * len(PIPELINES[name][0][3])
    monkeypatch.setattr(polytope, "_SCAN_BLOCK", block)
    for equations, inequalities, dim in calls:
        assert_same_cone(equations, inequalities, dim)


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
    monkeypatch.setattr(polytope, "_SCAN_BLOCK", block)
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

    def recording(equations, inequalities, dim, *rest):
        calls.append((list(equations), inequalities, dim))
        return real_cone_dual(equations, inequalities, dim, *rest)

    def counting(pending, *rest):
        rows_read.append(len(pending))
        return real_products(pending, *rest)

    monkeypatch.setattr(polytope, "cone_dual", recording)
    monkeypatch.setattr(polytope, "_products", counting)
    hull(pts)
    monkeypatch.undo()
    # the point rows and the vertex system
    assert len(calls) == 2
    n_rows = inserted = 0
    for equations, inequalities, dim in calls:
        order: list = []
        full_product_cone_dual(equations, inequalities, dim, inserted=order)
        n_rows += len(polytope._row_matrix(list(inequalities), dim))
        inserted += len(order)
    assert n_rows > 6837
    assert sum(rows_read) <= n_rows + inserted * polytope._SCAN_BLOCK


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
