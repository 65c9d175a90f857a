"""Per-stage wall times of a pipeline run or of the table replay, measured in-process.

Usage (from the repository root; point PYTHONPATH at another checkout's
``src`` to time that checkout with the same script):

    PYTHONPATH=src python3 tools/stage_times.py --schedule 8 --runs 11
    PYTHONPATH=src python3 tools/stage_times.py --mode fermion --runs 11
    PYTHONPATH=src python3 tools/stage_times.py --mode fermion-4x8 --runs 3
    PYTHONPATH=src python3 tools/stage_times.py --mode tables --runs 11
    PYTHONPATH=src python3 tools/stage_times.py --mode hull --runs 11
    PYTHONPATH=src python3 tools/stage_times.py --mode curve --points 80 --dim 4 --runs 3
    PYTHONPATH=src python3 tools/stage_times.py --mode vertices --runs 11
    PYTHONPATH=src python3 tools/stage_times.py --mode replay --runs 11
    PYTHONPATH=src python3 tools/stage_times.py --mode series --runs 11

The ``pipeline`` mode (the default) runs ``pipeline((2, 1), 4, 2, schedule,
degree_cap=36)``, the system of the ``mixed-r4-m8`` benchmark workload, once
and then ``--runs`` times; ``--schedule`` defaults to ``8``.  The
``fermion`` mode does the same with ``pipeline((1, 1, 1), 7, 1, schedule)``,
the system of the ``fermion-r7-m5`` benchmark workload, and ``--schedule``
defaults to that workload's ``2 4 5``.  The ``fermion-4x8`` mode does the
same with ``pipeline((1, 1, 1, 1), 8, 1, schedule, degree_cap=40)``, the
eight-level Lambda^4 C^8 system, and ``--schedule`` defaults to ``8``.  The
``tables`` mode runs ``verify_table`` on the four bundled coefficient tables,
the coefficient part of the ``replay`` workload, once and then ``--runs``
times.  The ``replay`` mode runs the timed part of the ``replay`` benchmark
workload from ``perfbench/workloads.py`` (the S4 Schubert rows, the four
coefficient tables, the 70 vertex rows and the two kind-2 families) on
the row order of seed 0, once checked and then ``--runs`` times.  These
five modes clear every ``lru_cache`` of the package before each run, the
ones behind a stage wrapper included, so that each run pays what a fresh
interpreter pays, the orbit tables of the Weyl alternation and the cached
induced spectra included.  The ``hull`` mode runs the timed part of the
``hull-mixed`` benchmark workload (hull, facet match, outer polytope and
equality check) on its 24,526 points, which it builds with the
benchmark's own integer enumeration from ``perfbench/workloads.py``, once
checked and then ``--runs`` times.  The ``vertices`` mode runs
``verify_vertex`` on the 70 rows of the bundled vertex tables, the vertex
part of the ``replay`` workload, once and then ``--runs`` times.  The
``curve`` mode runs ``hull`` of the ``--points`` integer points (i, i^2,
..., i^D), i = 1..N, D the ``--dim`` (40 points in dimension 4 by
default), whose hull is a cyclic polytope with every point a vertex and
many facets, once and then ``--runs`` times.  The ``series`` mode times
``plethysm_h_series`` alone, one degree per call, on the Newton series of
four systems: the fermion system to degree 5, the mixed one to degree 8,
c6 (the mixed system) to degree 12 and Lambda^4 C^8 to degree 8;
``--schedule`` may give the four top degrees instead, in that order.  It
clears every ``lru_cache`` before each run and prints, per system, the
median milliseconds of each degree and of the whole series.  The Newton
step's ``_MERGED_RUN`` was chosen with it: patched before the run (from
``python -c``, through ``runpy``) to 0, 1,024, 4,096, 16,384 and past every
box, and compared degree by degree, then on single degrees with the values
interleaved in one process, since the host's speed drifts between
invocations by more than nearby values differ.  Every other mode prints
one JSON object: the median milliseconds of the whole run and of each stage.  A stage's time is the
time spent in calls to its functions minus the time of other stages' calls
nested in them.  The rest of the run is ``rows`` in the three pipeline modes
(turning components into the hull's integer rows, and the loop itself) and ``rest`` in the
other modes (triple reconstruction outside the stages, and the report, in
the tables mode; the hull's equations, facets and the calls around them in
the hull mode; the reader's scaling and the hull's tail in the curve
mode; the loop over the rows in the vertices mode; in the replay
mode the triples and the reports outside the stages).

A stage lists every function name that has carried it: the Newton
recurrence is ``plethysm_h_series`` and, where the series is built one
degree per call, ``_newton_step``; the decomposition is ``schur_decompose``,
which reads the checked decomposition that ``LatticeCharacter.components``
caches, and, in older checkouts where that property wrapped an
array-level helper holding the checks, ``_components``; the induced
spectrum is ``induced_spectrum`` and, where the coefficient reads content
rows, ``_spectrum``.  Names a checkout does not have are skipped.  In the
three pipeline modes each route of the Weyl alternation is its own stage,
out of ``decompose``: ``direct`` is ``_alternate``, one call per block of
rows (or per degree where it walked the blocks itself), which gathers the
whole orbit and keeps the terms whose keys stay in the box, and
``pruned`` is ``_pruned_block``, one call per block of rows.  Since
``_alternate`` reads the orbit table itself, ``direct`` includes the
first block's ``_orbit`` build, as these modes clear the caches before
each run.  ``decompose`` keeps the dominant weights, their keys and the
masks both routes read, the split into blocks, the negativity check and
the dimension check.  In the
three pipeline modes ``rows`` includes building the hull's integer
matrix, which ``inner_points(rows=True)`` makes degree by degree (in older
checkouts from integer keys) and ``hull`` takes unread; in older
checkouts, whose ``hull`` read Fraction points into that matrix, the read
is in ``hull``, so across that change compare ``rows`` + ``hull``.  Where
the pipeline continues its double descriptions, ``hull`` holds the
insertions into the hull's cone carried over from the last cutoff, and
``outer`` holds both the chamber's cone, built once per run by
``_chamber_cone``, and each cutoff's insertions into a copy of it.  The hull mode, on Fraction points, splits ``hull`` into
``read`` (``_read_entries``, which reads the numerators and denominators
of every point or row into arrays), ``order`` (``_sorted_rows``, which
sorts the scaled rows and drops repeats), ``rows`` (the rest of
``_row_matrix``: the dtype check, the lcm and gcd scaling and the hull's
homogenizing column; in a checkout without the two helpers, the whole
reader), all three for the outer polytope's inequalities too,
``dual`` (``cone_dual``) and ``vertices`` (the hull's
``_inserted_vertices``, which picks the vertices out of the rows
``cone_dual`` inserted, and the rest of the outer polytope's
``_vertices_from_h``; in older checkouts the hull called
``_vertices_from_h`` too, a second double description); ``hull``'s arity
check before the read is in ``rest``.  The curve mode has the hull
mode's ``read``, ``order`` and ``dual`` and, for ``vertices``, the hull's
``_inserted_vertices`` alone.  The table stages are wrapped where ``coefficients`` calls
them, since it imports them by name.  The vertices mode splits each call
into ``gather`` (``_gather``, the one pass over the support that every
state makes: level bitmasks, integer diagonal and coupled pairs),
``decoupled`` (``_diagonal_matches``, the integer comparison that checks a
decoupled support), ``rdm`` (the matrix of a coupled support,
``_assemble``; in checkouts without ``_gather``, ``one_particle_rdm`` of
every row, gathering included), ``spectrum`` (the diagonal read or the
eigensolver on that matrix, ``_matrix_spectrum``, or the rest of
``occupation_numbers``) and ``ratio`` (the rest of ``verify_vertex``: the
ratio checks, and on the matrix route the expected spectrum and the
comparison).  So ``rdm`` and ``spectrum`` time the matrix route only;
across the change that read decoupled supports from their diagonal,
compare the sum of the five.  The replay mode has the tables mode's
``spectrum``, ``schubert`` (with the S4 rows' ``schubert_polynomial``
calls) and ``monk``, the vertices mode's ``rdm``, ``occupation`` (the rest
of ``verify_vertex``: the gathering, the decoupled comparison and the
spectrum of a coupled matrix) and ``families`` (``grassmann_kind2`` and the
``occupation_numbers`` of its witness states).  In checkouts where
``verify_vertex`` called ``occupation_numbers``, ``families`` also holds the
vertex rows' spectra, so across that change compare ``occupation`` +
``families``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

from paulitope import coefficients, fixtures, generators, plethysm, polynomials, polytope, states

PIPELINE_STAGES = {
    "newton": [(plethysm, "_newton_step"), (plethysm, "plethysm_h_series")],
    "decompose": [(plethysm, "_components"), (plethysm, "schur_decompose")],
    "direct": [(plethysm, "_alternate")],
    "pruned": [(plethysm, "_pruned_block")],
    "hull": [(polytope, "hull")],
    "match": [(polytope, "facet_match")],
    "outer": [(polytope, "polytope_from_h"), (polytope, "_chamber_cone")],
    "equal": [(polytope, "polytopes_equal")],
}
# mode -> (pipeline arguments before the schedule, keyword caps, default schedule)
PIPELINES = {
    "pipeline": (((2, 1), 4, 2), {"degree_cap": 36}, [8]),
    "fermion": (((1, 1, 1), 7, 1), {}, [2, 4, 5]),
    "fermion-4x8": (((1, 1, 1, 1), 8, 1), {"degree_cap": 40}, [8]),
}
MODES = {mode: PIPELINE_STAGES for mode in PIPELINES} | {
    "tables": {
        "spectrum": [(coefficients, "_spectrum"), (coefficients, "induced_spectrum")],
        "schubert": [
            (coefficients, "grassmannian_schubert"),
            (coefficients, "schubert_polynomial"),
        ],
        "monk": [(coefficients, "monk_coefficient")],
        "minimal": [(coefficients, "require_minimal")],
    },
    "hull": {
        "read": [(polytope, "_read_entries")],
        "order": [(polytope, "_sorted_rows")],
        "rows": [(polytope, "_row_matrix")],
        "dual": [(polytope, "cone_dual")],
        "vertices": [(polytope, "_vertices_from_h"), (polytope, "_inserted_vertices")],
        "match": [(polytope, "facet_match")],
        "outer": [(polytope, "polytope_from_h")],
        "equal": [(polytope, "polytopes_equal")],
    },
    "curve": {
        "read": [(polytope, "_read_entries")],
        "order": [(polytope, "_sorted_rows")],
        "dual": [(polytope, "cone_dual")],
        "vertices": [(polytope, "_inserted_vertices")],
    },
    "vertices": {
        "gather": [(states, "_gather")],
        "decoupled": [(states, "_diagonal_matches")],
        "rdm": [(states, "one_particle_rdm"), (states, "_assemble")],
        "spectrum": [(states, "occupation_numbers"), (states, "_matrix_spectrum")],
        "ratio": [(states, "verify_vertex")],
    },
    "replay": {
        "spectrum": [(coefficients, "_spectrum"), (coefficients, "induced_spectrum")],
        "schubert": [
            (coefficients, "grassmannian_schubert"),
            (coefficients, "schubert_polynomial"),
            (polynomials, "schubert_polynomial"),
        ],
        "monk": [(coefficients, "monk_coefficient")],
        "rdm": [(states, "one_particle_rdm"), (states, "_assemble")],
        "occupation": [(states, "verify_vertex")],
        "families": [(generators, "grassmann_kind2"), (states, "occupation_numbers")],
    },
    "series": {},  # per-degree times, see series_times
}
# series mode: system -> (pipeline arguments before the schedule, default top degree)
SERIES = {
    "fermion": (PIPELINES["fermion"][0], 5),
    "mixed": (PIPELINES["pipeline"][0], 8),
    "c6": (PIPELINES["pipeline"][0], 12),
    "fermion-4x8": (PIPELINES["fermion-4x8"][0], 8),
}
REST = {mode: "rows" for mode in PIPELINES} | {
    mode: "rest" for mode in ("tables", "hull", "curve", "vertices", "replay")
}
# modes that clear every cache before each run, as a fresh interpreter starts cold
COLD = {*PIPELINES, "tables", "replay"}


def install(stages: dict, totals: dict[str, float]) -> None:
    """Wrap every stage function that exists, adding exclusive times to ``totals``."""
    stack: list[list[float]] = []  # time of the nested stage calls, one entry per open call

    def wrap(stage, fn):
        def timed(*args, **kwargs):
            stack.append([0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()[0]
                totals[stage] += elapsed - nested
                if stack:
                    stack[-1][0] += elapsed

        timed.__wrapped__ = fn  # clear_caches reaches a wrapped lru_cache through it
        return timed

    for stage, names in stages.items():
        for module, name in names:
            if hasattr(module, name):
                setattr(module, name, wrap(stage, getattr(module, name)))


def clear_caches() -> None:
    """Empty every ``lru_cache`` in the package's modules, behind stage wrappers too."""
    for name, module in list(sys.modules.items()):
        if name.startswith("paulitope."):
            for obj in vars(module).values():
                while obj is not None:
                    if hasattr(obj, "cache_clear"):
                        obj.cache_clear()
                    obj = getattr(obj, "__wrapped__", None)


def workload_run(name: str):
    """The timed part of a benchmark workload, on the inputs of seed 0, once checked."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = spec_from_file_location("perfbench_workloads", path)
    workloads = module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    inputs, fx = workload.prepare(workload.inputs(0)), workload.fixtures()
    failed = [label for label, ok in workload.check(workload.solve(inputs, fx), fx) if not ok]
    if failed:
        raise SystemExit(f"{name} failed its checks: {failed}")
    return lambda: workload.solve(inputs, fx)


def series_times(tops: list[int], runs: int) -> dict:
    """Median ms of each degree of each ``SERIES`` system, built one degree per call."""
    if len(tops) != len(SERIES):
        raise SystemExit(f"--schedule in the series mode takes {len(SERIES)} top degrees")
    times = {}
    for (name, ((nu, r, k), _)), top in zip(SERIES.items(), tops):
        samples: dict[str, list[float]] = defaultdict(list)
        for run in range(runs + 1):
            clear_caches()
            f = plethysm.character(nu, r)
            series: list = []
            per_degree = []
            for m in range(top + 1):
                start = time.perf_counter()
                plethysm.plethysm_h_series(m, f, k, series=series)
                per_degree.append(time.perf_counter() - start)
            if run == 0:
                continue
            samples["total"].append(sum(per_degree))
            for m, elapsed in enumerate(per_degree[1:], start=1):
                samples[str(m)].append(elapsed)
        times[name] = {key: round(1000 * statistics.median(v), 2) for key, v in samples.items()}
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="pipeline")
    parser.add_argument(
        "--schedule", type=int, nargs="+", help="pipeline cutoffs, or the series mode's top degrees"
    )
    parser.add_argument("--runs", type=int, default=11)
    parser.add_argument("--points", type=int, default=40, help="the curve mode's point count")
    parser.add_argument("--dim", type=int, default=4, help="the curve mode's dimension")
    args = parser.parse_args()
    if args.mode == "series":
        tops = args.schedule or [top for _, top in SERIES.values()]
        print(json.dumps(series_times(tops, args.runs)))
        return
    stages = MODES[args.mode]
    tables = [fixtures.coefficient_table_raw(name) for name in fixtures.COEFFICIENT_TABLES]
    workload = {"hull": "hull-mixed", "replay": "replay"}.get(args.mode)
    run_workload = workload_run(workload) if workload else None
    vertex_rows = (
        [row for name in fixtures.VERTEX_TABLES for row in fixtures.vertex_table(name)["rows"]]
        if args.mode == "vertices"
        else []
    )
    curve = [tuple(i**k for k in range(1, args.dim + 1)) for i in range(1, args.points + 1)]
    totals: dict[str, float] = defaultdict(float)
    install(stages, totals)
    samples: dict[str, list[float]] = defaultdict(list)
    for run in range(args.runs + 1):
        totals.clear()
        if args.mode in COLD:
            clear_caches()
        start = time.perf_counter()
        if args.mode == "tables":
            for table in tables:
                coefficients.verify_table(table)
        elif run_workload:
            run_workload()
        elif args.mode == "curve":
            polytope.hull(curve)
        elif args.mode == "vertices":
            for row in vertex_rows:
                if not states.verify_vertex(row["state"], row["ratio"]):
                    raise SystemExit(f"vertex row {row['ratio']} failed its check")
        else:
            system, caps, schedule = PIPELINES[args.mode]
            polytope.pipeline(*system, args.schedule or schedule, **caps)
        total = time.perf_counter() - start
        if run == 0:
            continue
        samples["total"].append(total)
        for stage in stages:
            samples[stage].append(totals[stage])
        samples[REST[args.mode]].append(total - sum(totals[stage] for stage in stages))
    print(json.dumps({key: round(1000 * statistics.median(v), 2) for key, v in samples.items()}))


if __name__ == "__main__":
    main()
