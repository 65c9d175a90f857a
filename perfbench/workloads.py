"""The benchmark's workloads: inputs from a seed, the timed calls, the checks.

Each workload has five parts, run in this order:

* ``inputs(seed)`` runs in the parent process and builds what the seed
  decides: the order in which rows and points are handed to the program.
  The result is plain JSON.
* ``fixtures()`` runs in the pass process before the set-up clock stops: it
  loads the bundled tables the workload needs.
* ``prepare(inputs)`` turns the JSON inputs into the program's argument
  types, outside the timed part.
* ``solve(inputs, fx)`` is the timed part.  It only calls into paulitope,
  through module attributes so that traced wrappers are seen, and stores
  every output under a label that does not depend on the seed.  A call that
  raises stores the exception as its output.
* ``check(outputs, fx)`` compares the outputs with the paper's golden
  answers and returns ``(label, ok)`` pairs, one per checked output.

The full acceptance pipelines c5 and c6 take 40-50 s each here, longer than
one benchmark run may last, so the two pipeline workloads stop their
schedules early (M <= 5 and M <= 8).  What they must reproduce is then what
the golden tables imply for a partial schedule, plus the exact per-cutoff
history the seed commit produced.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple

from paulitope import coefficients, fixtures, generators, polynomials, polytope, states

FLOAT_TOL = 1e-9


class Workload(NamedTuple):
    name: str
    inputs: Callable[[int], dict]
    fixtures: Callable[[], dict]
    prepare: Callable[[dict], dict]
    solve: Callable[[dict, dict], dict]
    check: Callable[[dict, dict], list]


def _shuffled(n: int, rng: random.Random) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def _failure(label: str, exc: BaseException) -> tuple[str, bool]:
    return (f"{label} raised {type(exc).__name__}: {exc}", False)


def _raised(outputs: dict) -> list:
    return [_failure(label, out) for label, out in outputs.items() if isinstance(out, BaseException)]


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed output by check()
        return exc


def _leq(coeffs, point, bound) -> bool:
    return sum(c * x for c, x in zip(coeffs, point)) <= bound


def _in_chamber(point, r: int, n_particles: int, rank_bound: int) -> bool:
    """Sorted, nonnegative, level trace n_particles (and rank trace one)."""
    lam, mu = point[:r], point[r:]
    parts_ok = all(lam[i] >= lam[i + 1] for i in range(r - 1)) and lam[-1] >= 0
    if rank_bound > 1:
        parts_ok = parts_ok and all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))
        parts_ok = parts_ok and mu[-1] >= 0 and sum(mu) == 1
    return parts_ok and sum(lam) == n_particles


# ---------------------------------------------------------------- pipelines

# Per-cutoff history of the partial schedules at the seed commit.  Inner
# points, hulls and matches are exact, so any difference is a change of
# behaviour.
FERMION_HISTORY = [
    {"M": 2, "points": 2, "vertices": 2, "facets": 2, "equations": 6, "matched": 1, "unmatched": 10, "converged": False},
    {"M": 4, "points": 11, "vertices": 6, "facets": 6, "equations": 2, "matched": 2, "unmatched": 5, "converged": False},
    {"M": 5, "points": 23, "vertices": 8, "facets": 8, "equations": 1, "matched": 3, "unmatched": 3, "converged": False},
]
MIXED_HISTORY = [
    {"M": 4, "points": 83, "vertices": 15, "facets": 11, "equations": 2, "matched": 3, "unmatched": 2, "converged": False},
    {"M": 8, "points": 1234, "vertices": 14, "facets": 11, "equations": 2, "matched": 4, "unmatched": 1, "converged": False},
]


def _pipeline_checks(result, history, golden_rows, r, n_particles, rank_bound) -> list:
    """Checks a partial-schedule run against the golden facet system.

    The schedule stops before the convergence depth, so the run must not
    converge; every inner vertex lies in the golden polytope; and every
    matched (certified) inequality is one of the golden facets.
    """
    if isinstance(result, BaseException):
        return [_failure("pipeline", result)]
    checks = [("converged_at", result["converged_at"] is None)]
    for i, expected in enumerate(history):
        got = result["history"][i] if i < len(result["history"]) else None
        checks.append((f"history/M={expected['M']}", got == expected))
    for i, vertex in enumerate(result["polytope"].vertices):
        inside = _in_chamber(vertex, r, n_particles, rank_bound) and all(
            _leq(coeffs, vertex, bound) for coeffs, bound in golden_rows
        )
        checks.append((f"vertex/{i}", inside))
    golden = {polytope.canonical_inequality(c, b, r, n_particles, rank_bound) for c, b in golden_rows}
    for i, m in enumerate(result["match"]["matched"]):
        coeffs = list(m["lambda_coeffs"]) + list(m["mu_coeffs"])
        form = polytope.canonical_inequality(coeffs, m["bound"], r, n_particles, rank_bound)
        checks.append((f"matched/{i}", form in golden))
    return checks


def _fermion_fixtures() -> dict:
    return {"table": fixtures.coefficient_table("3x7")}


def _fermion_solve(inputs: dict, fx: dict) -> dict:
    return {"pipeline": _call(polytope.pipeline, (1, 1, 1), 7, 1, [2, 4, 5])}


def _fermion_check(outputs: dict, fx: dict) -> list:
    rows = [(row["lambda_coeffs"], row["bound"]) for row in fx["table"]["rows"]]
    return _pipeline_checks(outputs["pipeline"], FERMION_HISTORY, rows, 7, 3, 1)


def mixed_rows(table: dict) -> list:
    return [
        (tuple(row["lambda_coeffs"]) + tuple(row["mu_coeffs"]), row["bound"])
        for row in table["rows"]
    ]


def _mixed_fixtures() -> dict:
    return {"facets": fixtures.spin_orbital_inequalities()}


def _mixed_solve(inputs: dict, fx: dict) -> dict:
    return {
        "pipeline": _call(polytope.pipeline, (2, 1), 4, 2, [4, 8], degree_cap=36)
    }


def _mixed_check(outputs: dict, fx: dict) -> list:
    return _pipeline_checks(outputs["pipeline"], MIXED_HISTORY, mixed_rows(fx["facets"]), 4, 3, 2)


# ------------------------------------------------------------------ replay


def _replay_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "schubert": _shuffled(len(fixtures.schubert_s4_table()), rng),
        "tables": {
            name: _shuffled(len(fixtures.coefficient_table_raw(name)["rows"]), rng)
            for name in fixtures.COEFFICIENT_TABLES
        },
        "vertices": {
            name: _shuffled(len(fixtures.vertex_table(name)["rows"]), rng)
            for name in fixtures.VERTEX_TABLES
        },
    }


def _replay_fixtures() -> dict:
    return {
        "schubert": fixtures.schubert_s4_table(),
        "tables": {name: fixtures.coefficient_table_raw(name) for name in fixtures.COEFFICIENT_TABLES},
        "vertices": {name: fixtures.vertex_table(name) for name in fixtures.VERTEX_TABLES},
    }


def _replay_solve(inputs: dict, fx: dict) -> dict:
    out: dict = {}
    for i in inputs["schubert"]:
        row = fx["schubert"][i]
        out[f"schubert/{row['label']}"] = _call(polynomials.schubert_polynomial, row["permutation"], 4)
    for name, order in inputs["tables"].items():
        table = dict(fx["tables"][name], rows=[fx["tables"][name]["rows"][i] for i in order])
        report = _call(coefficients.verify_table, table)
        for pos, i in enumerate(order):
            out[f"table/{name}/{i:02d}"] = (
                report if isinstance(report, BaseException)
                else {k: v for k, v in report["rows"][pos].items() if k != "index"}
            )
    for name, order in inputs["vertices"].items():
        rows = fx["vertices"][name]["rows"]
        for i in order:
            out[f"vertex/{name}/{i:02d}"] = _call(
                states.verify_vertex, rows[i]["state"], rows[i]["ratio"], tolerance=FLOAT_TOL
            )
    for n, p in ((3, 4), (4, 5)):
        fam = _call(generators.grassmann_kind2, n, p)
        out[f"family/kind2({n},{p})"] = fam
        if not isinstance(fam, BaseException):
            for e in fam.excluded:
                out[f"family/kind2({n},{p})/excluded{e.gamma}"] = _call(states.occupation_numbers, e.state)
    return out


KIND2_3_4_ITEMS = {((1, 2, 4, 7), 2), ((1, 2, 5, 6), 2), ((1, 3, 4, 6), 2), ((2, 3, 4, 5), 2)}


def _replay_check(outputs: dict, fx: dict) -> list:
    """The checks of acceptance criteria 1, 2, 3 and 7, one per output."""
    checks = _raised(outputs)
    for row in fx["schubert"]:
        label = f"schubert/{row['label']}"
        poly = outputs[label]
        if not isinstance(poly, BaseException):
            trimmed = polynomials.SparsePoly(3, {e[:3]: c for e, c in poly.terms.items()})
            checks.append((label, trimmed == row["poly"]))
    for label, out in outputs.items():
        if label.startswith("table/") and not isinstance(out, BaseException):
            checks.append((label, out["ok"]))
        elif label.startswith("vertex/") and not isinstance(out, BaseException):
            checks.append((label, out is True))
    fam = outputs["family/kind2(3,4)"]
    if not isinstance(fam, BaseException):
        items = {(i.indices, i.bound): i for i in fam.items}
        for key in sorted(KIND2_3_4_ITEMS):
            checks.append((f"family/kind2(3,4)/{key}", key in items and items[key].c_gamma == 1))
        checks.append(("family/kind2(3,4)/no-extra-items", set(items) == KIND2_3_4_ITEMS))
        # the dropped single row is already false on one Slater determinant
        row = fam.excluded[0] if len(fam.excluded) == 1 else None
        occ = row and outputs.get(f"family/kind2(3,4)/excluded{row.gamma}")
        ok = (
            row is not None
            and row.gamma == (4,)
            and not isinstance(occ, BaseException)
            and sum(occ[i - 1] for i in row.indices) == row.lhs == 3 > row.bound == 2
        )
        checks.append(("family/kind2(3,4)/excluded-row", ok))
    fam = outputs["family/kind2(4,5)"]
    if not isinstance(fam, BaseException):
        # the dropped single column is false on the flat pair-supported spectrum
        column = {e.gamma: e for e in fam.excluded}.get((1, 1, 1, 1, 1))
        occ = column and outputs.get(f"family/kind2(4,5)/excluded{column.gamma}")
        ok = (
            column is not None
            and not isinstance(occ, BaseException)
            and column.state.levels == 6
            and occ == (Fraction(2, 3),) * 6
            and sum(occ[i - 1] for i in column.indices) == column.lhs == Fraction(10, 3)
            and column.lhs > column.bound == 3
        )
        checks.append(("family/kind2(4,5)/excluded-column", ok))
    return checks


# -------------------------------------------------------------- hull-mixed

HULL_MAX_DENOMINATOR = 16


def mixed_chamber_points(max_den: int):
    """Integer points (x, q), q <= max_den, of the rank-2 (2,1), r=4 chamber.

    x = (l1, l2, l3, l4, m1, m2) with l1 >= .. >= l4 >= 0 summing to 3q and
    m1 >= m2 >= 0 summing to q, so x / q is a chamber point with level trace 3
    and rank trace 1.
    """
    for q in range(1, max_den + 1):
        n = 3 * q
        for l1 in range(n, -1, -1):
            for l2 in range(min(l1, n - l1), -1, -1):
                for l3 in range(min(l2, n - l1 - l2), -1, -1):
                    l4 = n - l1 - l2 - l3
                    if l4 > l3:
                        break
                    for m2 in range(q // 2 + 1):
                        yield (l1, l2, l3, l4, q - m2, m2), q


def mixed_lattice_points(rows, max_den: int) -> list[tuple[int, ...]]:
    """Distinct rational points of the five-facet polytope, denominator <= max_den.

    Each point is returned in lowest terms as the integer tuple
    (x1, .., x6, q) standing for x / q.  Only integer arithmetic is used, so
    the program's own geometry is not involved in making its input.
    """
    int_rows = [(tuple(c), Fraction(b)) for c, b in rows]
    out = set()
    for x, q in mixed_chamber_points(max_den):
        if all(sum(c * v for c, v in zip(coeffs, x)) <= b * q for coeffs, b in int_rows):
            g = q
            for v in x:
                g = gcd(g, v)
            out.add(tuple(v // g for v in x) + (q // g,))
    return sorted(out)


def mixed_ambient():
    """Trace equations and chamber walls of the rank-2 system, as (a, b) for a.x <= b."""
    equations = [((1, 1, 1, 1, 0, 0), 3), ((0, 0, 0, 0, 1, 1), 1)]
    walls = [
        ((-1, 1, 0, 0, 0, 0), 0),
        ((0, -1, 1, 0, 0, 0), 0),
        ((0, 0, -1, 1, 0, 0), 0),
        ((0, 0, 0, -1, 0, 0), 0),
        ((0, 0, 0, 0, -1, 1), 0),
        ((0, 0, 0, 0, 0, -1), 0),
    ]
    return equations, walls


def _hull_inputs(seed: int) -> dict:
    points = mixed_lattice_points(mixed_rows(fixtures.spin_orbital_inequalities()), HULL_MAX_DENOMINATOR)
    random.Random(seed).shuffle(points)
    return {"points": points}


def _hull_prepare(inputs: dict) -> dict:
    return {"points": [tuple(Fraction(v, p[-1]) for v in p[:-1]) for p in inputs["points"]]}


def _hull_solve(inputs: dict, fx: dict) -> dict:
    out = {"hull": _call(polytope.hull, inputs["points"])}
    if isinstance(out["hull"], BaseException):
        return out
    out["match"] = _call(polytope.facet_match, out["hull"], (2, 1), 4, 2)
    if isinstance(out["match"], BaseException):
        return out
    equations, walls = mixed_ambient()
    matched = [
        (tuple(m["lambda_coeffs"]) + tuple(m["mu_coeffs"]), m["bound"])
        for m in out["match"]["matched"]
    ]
    out["outer"] = _call(polytope.polytope_from_h, 6, equations, walls + matched)
    if not isinstance(out["outer"], BaseException):
        out["equal"] = _call(polytope.polytopes_equal, out["hull"], out["outer"])
    return out


def _hull_check(outputs: dict, fx: dict) -> list:
    """The hull is the five-facet polytope, and all five facets are certified."""
    checks = _raised(outputs)
    if checks:
        return checks
    rows = mixed_rows(fx["facets"])
    golden = {polytope.canonical_inequality(c, b, 4, 3, 2) for c, b in rows}
    equations, walls = mixed_ambient()
    walls = {polytope.canonical_inequality(c, b, 4, 3, 2) for c, b in walls}
    hull = outputs["hull"]
    facets = {polytope.canonical_inequality(c, b, 4, 3, 2) for c, b in hull.facets}
    # With two equations and every vertex inside the golden polytope, facets
    # drawn only from the chamber walls and the golden rows make it equal.
    checks.append(("hull/facets", facets - walls == golden))
    checks.append(("hull/equations", len(hull.equations) == len(equations)))
    checks.append(("hull/vertices-inside", all(
        _in_chamber(v, 4, 3, 2) and all(_leq(c, v, b) for c, b in rows) for v in hull.vertices
    )))
    match = outputs["match"]
    matched = {
        polytope.canonical_inequality(list(m["lambda_coeffs"]) + list(m["mu_coeffs"]), m["bound"], 4, 3, 2)
        for m in match["matched"]
    }
    checks.append(("match/matched", matched == golden))
    checks.append(("match/unmatched", match["unmatched"] == []))
    checks.append(("outer/equal", outputs["equal"] is True))
    return checks


def _no_inputs(seed: int) -> dict:
    return {}


def _as_is(inputs: dict) -> dict:
    return inputs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fermion-r7-m5", _no_inputs, _fermion_fixtures, _as_is, _fermion_solve, _fermion_check),
        Workload("mixed-r4-m8", _no_inputs, _mixed_fixtures, _as_is, _mixed_solve, _mixed_check),
        Workload("replay", _replay_inputs, _replay_fixtures, _as_is, _replay_solve, _replay_check),
        Workload("hull-mixed", _hull_inputs, _mixed_fixtures, _hull_prepare, _hull_solve, _hull_check),
    )
}
