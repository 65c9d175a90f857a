"""The galloping forward scan against the fixed-block scan it replaced.

The reference (``oracles.FixedBlockCone``) reads the rows 512 at a time and
finds a live row with two comparisons, a nonzero product with a lineality
vector or a negative one with a ray.  The package's scan takes the negated
lineality basis into the product, so a row is live when one product is
negative, and gallops: _SCAN_FIRST rows after each insertion, each block
that holds no live row followed by one twice as long, up to _SCAN_ENTRIES
products.  Both must insert the same rows in the same order, with the same
ray count after each insertion, so they reach the same cone, and a ray cap
trips on the same insertion with the same message, at any first block and
any cap, a one-row block and a block past the whole matrix included.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest

from oracles import FixedBlockCone, random_rational_points
from paulitope import polytope
from paulitope.errors import ResourceLimitError
from paulitope.polytope import RAY_CAP, _Cone, _row_matrix
from test_cone_scan import CAPPED, _mixed_lattice_points


def _cyclic_points(count, dim):
    return [tuple(i**k for k in range(1, dim + 1)) for i in range(1, count + 1)]


def _point_rows(points):
    return _row_matrix(points, len(points[0]), lead=True)


def _cloud(dim, seed):
    return _point_rows(random_rational_points(np.random.default_rng(3000 * dim + seed), dim + 8, dim))


def _equations(dim, seed, count):
    return np.random.default_rng(seed).integers(-3, 4, (count, dim + 1)).tolist()


SYSTEMS = {
    "hull-mixed-12": lambda: ([], _point_rows(_mixed_lattice_points(12))),
    "cyclic-40x4": lambda: ([], _point_rows(_cyclic_points(40, 4))),
    "cyclic-30x3": lambda: ([], _point_rows(_cyclic_points(30, 3))),
    **{f"cloud-{dim}d-s{seed}": (lambda d=dim, s=seed: ([], _cloud(d, s))) for dim in range(2, 7) for seed in range(2)},
    **{
        f"cloud-{dim}d-{count}eq": (lambda d=dim, c=count: (_equations(d, 40 + d, c), _cloud(d, 0)))
        for dim in range(2, 7)
        for count in (1, 2)
    },
}


def insertions(cls, equations, matrix, ray_cap=RAY_CAP):
    """The cone's result or ray-cap message, its inserted rows, and its ray count after each insertion."""
    counts = []
    with pytest.MonkeyPatch.context() as patch:
        for step in ("_pivot", "_split"):
            real = getattr(_Cone, step)

            def counted(self, *args, real=real):
                try:
                    return real(self, *args)
                finally:
                    counts.append(len(self.rays))

            patch.setattr(_Cone, step, counted)
        cone = cls(matrix.shape[1], equations, ray_cap)
        try:
            cone.insert(matrix)
            outcome = cone.result()
        except ResourceLimitError as exc:
            outcome = str(exc)
    return outcome, cone.rows, counts


def assert_same_insertions(equations, matrix, ray_cap=RAY_CAP):
    got = insertions(_Cone, equations, matrix, ray_cap)
    assert got == insertions(FixedBlockCone, equations, matrix, ray_cap)
    # no float reaches a ray, a lineality vector or an inserted row
    if not isinstance(got[0], str):
        assert all(type(x) is int for x in chain.from_iterable(chain(*got[0], got[1])))
    return got


# the first block and the cap, as (_SCAN_FIRST, _SCAN_ENTRIES): the cap is
# never below the first block, so _SCAN_ENTRIES 0 makes it _SCAN_FIRST rows
# and (1, 0) reads one row at a time; a first block of 10**9 rows, or a cap
# of 10**12 products, reads past every matrix here
SCANS = {
    "default": (polytope._SCAN_FIRST, polytope._SCAN_ENTRIES),
    "first-1-cap-1": (1, 0),
    "first-1-cap-n": (1, 10**12),
    "first-n": (10**9, 0),
    "first-64-cap-64": (64, 0),
}


@pytest.mark.parametrize("scan", sorted(SCANS))
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_the_gallop_inserts_the_rows_of_the_fixed_blocks(monkeypatch, name, scan):
    first, entries = SCANS[scan]
    monkeypatch.setattr(polytope, "_SCAN_FIRST", first)
    monkeypatch.setattr(polytope, "_SCAN_ENTRIES", entries)
    equations, matrix = SYSTEMS[name]()
    result, rows, _ = assert_same_insertions(equations, matrix)
    assert rows and not isinstance(result, str)


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_a_patched_ray_cap_trips_on_the_same_insertion(name):
    equations, inequalities, dim = CAPPED[name]
    matrix = _row_matrix(inequalities, dim)
    capped = 0
    for cap in range(1, RAY_CAP + 1):
        outcome, rows, counts = assert_same_insertions(equations, matrix, cap)
        if not isinstance(outcome, str):
            break
        # the insertion that made the cap's ray count raised
        assert outcome.startswith(f"cone_dual: ray count {counts[-1]} exceeds cap {cap} after inserting {len(rows)} ")
        capped += 1
    assert capped > 1 and not isinstance(outcome, str)


def test_each_block_doubles_until_a_row_is_inserted(monkeypatch):
    # rows read per product: _SCAN_FIRST after each insertion (and at the
    # start), then twice as many while no row is live, cut at the matrix end
    equations, matrix = SYSTEMS["hull-mixed-12"]()
    monkeypatch.setattr(polytope, "_SCAN_FIRST", 8)
    monkeypatch.setattr(polytope, "_SCAN_ENTRIES", 10**12)
    sizes = []
    real = polytope._products

    def counting(block, generators):
        sizes.append(len(block))
        return real(block, generators)

    monkeypatch.setattr(polytope, "_products", counting)
    cone = _Cone(matrix.shape[1], equations)
    cone.insert(matrix)
    index = {row: i for i, row in enumerate(map(tuple, matrix.tolist()))}
    want, pos, n = [], 0, len(matrix)
    for inserted in [index[row] for row in cone.rows] + [n]:
        step = 8
        while pos < n:
            want.append(min(step, n - pos))
            pos, step = (inserted + 1, 8) if pos <= inserted < pos + step else (pos + step, 2 * step)
            if step == 8:
                break
    assert sizes == want
