"""Per-stage wall times of one pipeline run, measured in-process.

Usage (from the repository root; point PYTHONPATH at another checkout's
``src`` to time that checkout with the same script):

    PYTHONPATH=src python3 tools/stage_times.py --schedule 8 --runs 11

It runs ``pipeline((2, 1), 4, 2, schedule, degree_cap=36)``, the system of
the ``mixed-r4-m8`` benchmark workload, once to warm the caches and then
``--runs`` times, and prints one JSON object: the median milliseconds of
the whole run and of each stage.  A stage's time is the time spent in calls
to its functions minus the time of other stages' calls nested in them.
``rows`` is the rest of the run: turning components into points,
and the loop itself.

A stage lists every function name that has carried it: the Newton
recurrence is ``plethysm_h_series`` and, where the series is built one
degree per call, ``_newton_step``; the decomposition is ``schur_decompose``
and, where the dict is a wrapper over an array-level helper,
``_components``.  Names a checkout does not have are skipped.  ``hull``
includes building its integer matrix from the Fraction points.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from collections import defaultdict

from paulitope import plethysm, polytope

STAGES = {
    "newton": [(plethysm, "_newton_step"), (plethysm, "plethysm_h_series")],
    "decompose": [(plethysm, "_components"), (plethysm, "schur_decompose")],
    "hull": [(polytope, "hull")],
    "match": [(polytope, "facet_match")],
    "outer": [(polytope, "polytope_from_h")],
    "equal": [(polytope, "polytopes_equal")],
}


def install(totals: dict[str, float]) -> None:
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

        return timed

    for stage, names in STAGES.items():
        for module, name in names:
            if hasattr(module, name):
                setattr(module, name, wrap(stage, getattr(module, name)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schedule", type=int, nargs="+", default=[8])
    parser.add_argument("--runs", type=int, default=11)
    args = parser.parse_args()
    totals: dict[str, float] = defaultdict(float)
    install(totals)
    samples: dict[str, list[float]] = defaultdict(list)
    for run in range(args.runs + 1):
        totals.clear()
        start = time.perf_counter()
        polytope.pipeline((2, 1), 4, 2, args.schedule, degree_cap=36)
        total = time.perf_counter() - start
        if run == 0:
            continue
        samples["total"].append(total)
        for stage in STAGES:
            samples[stage].append(totals[stage])
        samples["rows"].append(total - sum(totals[stage] for stage in STAGES))
    print(json.dumps({key: round(1000 * statistics.median(v), 2) for key, v in samples.items()}))


if __name__ == "__main__":
    main()
