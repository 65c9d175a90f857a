"""The dense pipeline on Lambda^4 C^8 from plethysm data, up to the bundled tables.

The eight-level four-fermion system converges at M=10 with the caps raised:
its inner hull is then the polytope of ``table_4x8`` and ``vertices_4x8``.
"""

from __future__ import annotations

from fractions import Fraction

from paulitope import polytope
from paulitope.fixtures import coefficient_table, vertex_table
from paulitope.polytope import canonical_inequality, pipeline


def test_lambda4_c8_converges_at_10_onto_the_bundled_tables():
    """About 2.3 s and a 300 MB peak on a 2-vCPU Xeon VM; 5-7 s when every degree was int64."""
    result = pipeline((1, 1, 1, 1), 8, 1, [10], degree_cap=40)
    assert result["converged_at"] == 10
    assert len(result["match"]["matched"]) == 15 and result["match"]["unmatched"] == []
    poly = result["polytope"]
    facets = {canonical_inequality(a, b, 8, 4) for a, b in poly.facets}
    table = {canonical_inequality(row["lambda_coeffs"], row["bound"], 8, 4) for row in coefficient_table("4x8")["rows"]}
    walls = polytope._wall_forms(8, 4, 1)
    # the 15 rows of the table, and every chamber wall, the 7 orderings and lambda_8 >= 0
    assert len(table) == 15 and not table & walls
    assert facets == table | walls and len(poly.facets) == 23
    vertices = {
        tuple(sorted((Fraction(4 * x, sum(row["ratio"])) for x in row["ratio"]), reverse=True))
        for row in vertex_table("4x8")["rows"]
    }
    assert len(vertices) == 22 and set(poly.vertices) == vertices
