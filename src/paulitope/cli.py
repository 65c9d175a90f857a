"""Command-line interface.

Subcommands compute single Schubert polynomials or coefficients, occupation
numbers of explicit states, inequality families, and full moment-polytope
runs, and replay the bundled golden tables.  Exit codes: 0 success, 1 a
verification check failed, 2 usage or input error, 3 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import fixtures
from .coefficients import coefficient, verify_table
from .errors import ResourceLimitError
from .generators import (
    InequalityFamily,
    grassmann_kind1,
    grassmann_kind2,
    majorization_constraints,
)
from .permutations import Permutation
from .polynomials import SparsePoly, schubert_polynomial
from .polytope import Polytope, pipeline
from .states import EIGENVALUE_TOLERANCE, WedgeState, occupation_numbers, verify_vertex
from .tableaux import normalize, size


def _parse_ints(text: str) -> list[int]:
    parts = [p for p in text.replace(",", " ").split() if p]
    return [int(p) for p in parts]


def _parse_permutation(text: str) -> Permutation:
    """Accept either one-line form "2,1,4,3" or cycle form "(1 2)(3 4)", spaces between cycles allowed."""
    text = text.strip()
    if not text or text == "()":
        return Permutation.identity()
    if "(" in text or ")" in text:
        # cycles, with or without whitespace between them, and nothing else
        if not re.fullmatch(r"(\([^()]*\)\s*)+", text):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = [_parse_ints(body) for body in re.findall(r"\(([^()]*)\)", text)]
        return Permutation.from_cycles([cycle for cycle in cycles if cycle])
    return Permutation(_parse_ints(text))


def _fraction_str(q: Fraction) -> object:
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def _json_default(obj):
    if isinstance(obj, Fraction):
        return _fraction_str(obj)
    if isinstance(obj, Permutation):
        return obj.cycle_string()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def poly_to_json(poly: SparsePoly) -> dict:
    terms = {
        ",".join(str(e) for e in exps): coeff
        for exps, coeff in sorted(poly.terms.items(), reverse=True)
    }
    return {"nvars": poly.nvars, "terms": terms, "pretty": repr(poly)}


def polytope_to_json(poly: Polytope) -> dict:
    return {
        "dim": poly.dim,
        "equations": [{"coeffs": list(a), "value": b} for a, b in poly.equations],
        "facets": [{"coeffs": list(a), "bound": b} for a, b in poly.facets],
        "vertices": [list(v) for v in poly.vertices],
    }


def state_to_json(psi: WedgeState) -> dict:
    return {
        "n_particles": psi.n_particles,
        "levels": psi.levels,
        "terms": [
            {"subset": list(sub), "sign": amp.sign, "radicand": amp.radicand}
            for sub, amp in sorted(psi.amplitudes.items())
        ],
    }


def family_to_json(family: InequalityFamily) -> dict:
    out = {
        "kind": family.kind,
        "n_particles": family.n_particles,
        "items": [
            {
                "indices": list(item.indices),
                "bound": item.bound,
                "gamma": list(item.gamma) if item.gamma is not None else None,
                "c_gamma": item.c_gamma,
            }
            for item in family.items
        ],
        "exclusions": [
            {
                "gamma": list(exc.gamma),
                "indices": list(exc.indices),
                "bound": exc.bound,
                "reason": exc.reason,
                "counterexample": {
                    "state": state_to_json(exc.state) if exc.state is not None else None,
                    "lhs": exc.lhs,
                },
            }
            for exc in family.excluded
        ],
    }
    for key in ("levels", "frame_rows", "trace", "note"):
        value = getattr(family, key)
        if value is not None:
            out[key] = value
    return out


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, default=_json_default)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ----------------------------------------------------------------- subcommands


def cmd_schubert(args) -> int:
    if args.table_s4:
        rows = []
        ok = True
        for row in fixtures.schubert_s4_table():
            computed = schubert_polynomial(row["permutation"], 4)
            trimmed = SparsePoly(3, {e[:3]: c for e, c in computed.terms.items()})
            match = trimmed.terms == row["poly"].terms
            ok = ok and match
            rows.append(
                {
                    "label": row["label"],
                    "one_line": list(row["permutation"].one_line(4)),
                    "poly": poly_to_json(trimmed),
                    "match": match,
                }
            )
        _emit({"rows": rows, "ok": ok}, args.out)
        return 0 if ok else 1
    if not args.perm:
        print("schubert: provide a permutation or --table-s4", file=sys.stderr)
        return 2
    w = _parse_permutation(args.perm)
    poly = schubert_polynomial(w, args.n)
    _emit({"permutation": w.cycle_string(), "poly": poly_to_json(poly)}, args.out)
    return 0


def cmd_coeff(args) -> int:
    nu = normalize(_parse_ints(args.nu))
    a = tuple(_parse_ints(args.a))
    v = _parse_permutation(args.v)
    w = _parse_permutation(args.w)
    value = coefficient(a, nu, args.r, v, w)
    _emit(
        {
            "a": list(a),
            "nu": list(nu),
            "r": args.r,
            "v": v.cycle_string(),
            "w": w.cycle_string(),
            "c": value,
        },
        args.out,
    )
    return 0


def cmd_occupation(args) -> int:
    if args.state == "-":
        raw = json.load(sys.stdin)
    else:
        with open(args.state) as fh:
            raw = json.load(fh)
    psi = WedgeState.from_terms(raw["n_particles"], raw["levels"], raw["terms"])
    spectrum = occupation_numbers(psi)
    exact = all(isinstance(x, Fraction) for x in spectrum)
    payload = {
        "n_particles": psi.n_particles,
        "levels": psi.levels,
        "occupation_numbers": spectrum if exact else [float(x) for x in spectrum],
        "exact": exact,
    }
    table_name = f"{psi.n_particles}x{psi.levels}"
    if table_name in fixtures.COEFFICIENT_TABLES:
        tol = args.tolerance if not exact else 0
        checks = []
        all_hold = True
        for row in fixtures.coefficient_table(table_name)["rows"]:
            lhs = sum(
                g * x for g, x in zip(row["lambda_coeffs"], spectrum) if g
            )
            holds = lhs <= row["bound"] + tol
            all_hold = all_hold and holds
            checks.append(
                {
                    "lambda_coeffs": list(row["lambda_coeffs"]),
                    "bound": row["bound"],
                    "lhs": lhs if exact else float(lhs),
                    "holds": holds,
                }
            )
        payload["inequalities"] = {"table": table_name, "all_hold": all_hold, "rows": checks}
    _emit(payload, args.out)
    return 0


def cmd_generate(args) -> int:
    if args.family == "kind1":
        if args.r is None:
            print("generate kind1: -r is required", file=sys.stderr)
            return 2
        family = grassmann_kind1(args.N, args.r)
    elif args.family == "kind2":
        if args.p is None:
            print("generate kind2: -p is required", file=sys.stderr)
            return 2
        family = grassmann_kind2(args.N, args.p)
    else:
        if args.nu is None or args.r is None:
            print("generate majorization: --nu and -r are required", file=sys.stderr)
            return 2
        family = majorization_constraints(_parse_ints(args.nu), args.r)
    _emit(family_to_json(family), args.out)
    return 0


def cmd_polytope(args) -> int:
    nu = normalize(_parse_ints(args.nu))
    schedule = [m for m in range(2, args.M + 1) if m % 2 == 0]
    if not schedule or schedule[-1] != args.M:
        schedule.append(args.M)
    report = pipeline(nu, args.r, args.rank_bound, schedule)
    payload = {
        "nu": report["nu"],
        "r": report["r"],
        "rank_bound": report["rank_bound"],
        "converged_at": report["converged_at"],
        "history": report["history"],
        "polytope": polytope_to_json(report["polytope"]),
        "matched": report["match"]["matched"],
        "unmatched": report["match"]["unmatched"],
    }
    _emit(payload, args.out)
    return 0 if report["converged_at"] is not None else 1


def _replay(args, known, default, what: str, label: str, report_of) -> int:
    """Report on each named table (``default`` if none); an unknown name exits 2 first."""
    names = args.tables or default
    for name in names:
        if name not in known:
            print(f"unknown {what} {name!r}", file=sys.stderr)
            return 2
    reports = {}
    for name in names:
        report = reports[name] = report_of(name)
        good = sum(1 for row in report["rows"] if row["ok"])
        status = "ok" if report["ok"] else "FAILED"
        print(f"{label} {name}: {good}/{len(report['rows'])} rows {status}")
    if args.out:
        _emit(reports, args.out)
    return 0 if all(report["ok"] for report in reports.values()) else 1


def cmd_verify_tables(args) -> int:
    tables = fixtures.COEFFICIENT_TABLES
    return _replay(
        args, tables, tables, "table", "table",
        lambda name: verify_table(fixtures.coefficient_table_raw(name)),
    )


def cmd_verify_vertices(args) -> int:
    def report_of(name: str) -> dict:
        rows = []
        for idx, row in enumerate(fixtures.vertex_table(name)["rows"], start=1):
            match = verify_vertex(row["state"], row["ratio"], tolerance=args.tolerance)
            rows.append({"index": idx, "ratio": list(row["ratio"]), "ok": match})
        return {"rows": rows, "ok": all(row["ok"] for row in rows)}

    return _replay(
        args, fixtures.VERTEX_TABLES, ["4x8", "3x8"], "vertex table", "vertices", report_of
    )


# ----------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulitope",
        description="Occupation-number constraints for fermionic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schubert", help="print a Schubert polynomial")
    p.add_argument("perm", nargs="?", help="permutation, one-line or cycles")
    p.add_argument("-n", type=int, default=None, help="ambient size")
    p.add_argument("--table-s4", action="store_true", help="recompute the S4 table")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("coeff", help="compute one structure coefficient")
    p.add_argument("--a", required=True, help="test spectrum, comma separated")
    p.add_argument("--nu", required=True, help="shape, comma separated")
    p.add_argument("-r", type=int, required=True, help="number of levels")
    p.add_argument("--v", required=True, help="permutation v")
    p.add_argument("--w", required=True, help="permutation w")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("occupation", help="occupation numbers of a wedge state")
    p.add_argument("state", help="JSON state file, or - for stdin")
    p.add_argument("--tolerance", type=float, default=EIGENVALUE_TOLERANCE)
    p.set_defaults(func=cmd_occupation)

    p = sub.add_parser("generate", help="emit an inequality family")
    p.add_argument("family", choices=["kind1", "kind2", "majorization"])
    p.add_argument("-N", type=int, default=3, help="particle count")
    p.add_argument("-r", type=int, default=None, help="number of levels")
    p.add_argument("-p", type=int, default=None, help="index count for kind2")
    p.add_argument("--nu", default=None, help="shape for majorization")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("polytope", help="run the moment polytope pipeline")
    p.add_argument("--nu", required=True, help="shape, comma separated")
    p.add_argument("-r", type=int, required=True, help="number of levels")
    p.add_argument("-M", type=int, default=8, help="largest degree cutoff")
    p.add_argument("--rank-bound", type=int, default=1)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("verify-tables", help="replay the coefficient tables")
    p.add_argument("tables", nargs="*", help="table names, default all")
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("verify-vertices", help="replay the extremal state tables")
    p.add_argument("tables", nargs="*", help="table names, default both")
    p.add_argument("--tolerance", type=float, default=EIGENVALUE_TOLERANCE)
    p.set_defaults(func=cmd_verify_vertices)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
