"""Loaders for the bundled golden data tables.

Every table ships as JSON under ``paulitope/data`` and is parsed into the
package's own types on load.  The tables cover the reference Schubert
polynomials for S4, the occupation-number inequality systems for the
(3,6), (3,7), (4,8), and (3,8) fermionic systems, extremal states for the
polytope vertices of the larger systems, and the five mixed spin-orbital
facets used by the rank-2 pipeline run.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .permutations import Permutation
from .polynomials import SparsePoly
from .states import WedgeState

COEFFICIENT_TABLES = ("3x6", "3x7", "4x8", "3x8")
VERTEX_TABLES = ("3x7", "3x8", "4x8")


def _load(name: str) -> dict:
    path = resources.files("paulitope.data").joinpath(name)
    return json.loads(path.read_text())


def _poly_from_terms(terms: dict, nvars: int) -> SparsePoly:
    parsed = {}
    for key, coeff in terms.items():
        exps = tuple(int(part) for part in key.split(","))
        parsed[exps] = coeff
    return SparsePoly(nvars, parsed)


def schubert_s4_table() -> list[dict]:
    """All 24 Schubert polynomials of S4 with their one-line labels."""
    raw = _load("schubert_s4.json")
    nvars = raw["variables"]
    rows = []
    for row in raw["rows"]:
        rows.append({
            "label": row["label"],
            "permutation": Permutation(row["one_line"]),
            "poly": _poly_from_terms(row["terms"], nvars),
        })
    return rows


def coefficient_table_raw(name: str) -> dict:
    """Coefficient table in its on-disk form, rows keyed by cycle lists."""
    if name not in COEFFICIENT_TABLES:
        raise KeyError(f"unknown coefficient table {name!r}")
    return _load(f"table_{name}.json")


def coefficient_table(name: str) -> dict:
    """Inequality system for one fermionic setting, keyed by table name.

    Returns a dict with keys nu, r, and rows; each row carries the
    inequality coefficients, its bound, the pinned permutation pair in
    cycle form, and the expected structure coefficient.
    """
    raw = coefficient_table_raw(name)
    return {
        "name": raw["name"],
        "nu": tuple(raw["nu"]),
        "r": raw["r"],
        "rows": [
            {
                "lambda_coeffs": tuple(row["lambda_coeffs"]),
                "bound": row["bound"],
                "v": Permutation.from_cycles(row["v_cycles"]),
                "w": Permutation.from_cycles(row["w_cycles"]),
                "c": row["c"],
            }
            for row in raw["rows"]
        ],
    }


def vertex_table(name: str) -> dict:
    """Extremal states and vertex ratios for one fermionic setting.

    The (3,7) table is the leading block of the (3,8) one: its states use
    only the first seven levels and its ratios drop the trailing zero.
    """
    if name not in VERTEX_TABLES:
        raise KeyError(f"unknown vertex table {name!r}")
    source = "vertices_3x8.json" if name in ("3x7", "3x8") else "vertices_4x8.json"
    raw = _load(source)
    n_particles = raw["n_particles"]
    levels = raw["levels"]
    rows = raw["rows"]
    if name == "3x7":
        rows = rows[: raw["rows_within_rank_7"]]
        levels = 7
    out = []
    for row in rows:
        ratio = list(row["ratio"])
        if name == "3x7":
            ratio = ratio[:7]
        state = WedgeState.from_terms(n_particles, levels, row["terms"])
        out.append({"ratio": tuple(ratio), "state": state})
    return {"name": name, "n_particles": n_particles, "levels": levels, "rows": out}


def spin_orbital_inequalities() -> dict:
    """The five facets of the rank-2 mixed system at nu = (2, 1), r = 4."""
    raw = _load("spin_orbital_rank2.json")
    return {
        "nu": tuple(raw["nu"]),
        "r": raw["r"],
        "rank_bound": raw["rank_bound"],
        "rows": [
            {
                "lambda_coeffs": tuple(row["lambda_coeffs"]),
                "mu_coeffs": tuple(row["mu_coeffs"]),
                "bound": Fraction(row["bound"]),
            }
            for row in raw["rows"]
        ],
    }
