"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 perfbench/selftest.py

Checks that the lattice-point generator agrees with ``Polytope.contains``,
that the seed only reorders inputs, that the tracer reaches every binding of
a traced function, that a traced c4 pipeline records the layers it goes
through, and that ``BENCHMARK.json`` lists the metrics the harness prints.
Takes about 15 s.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from paulitope import coefficients, fixtures, plethysm, polytope  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _point(x, q):
    return tuple(Fraction(v, q) for v in x)


def test_generator_matches_contains():
    rows = workloads.mixed_rows(fixtures.spin_orbital_inequalities())
    equations, walls = workloads.mixed_ambient()
    golden = polytope.polytope_from_h(6, equations, walls + rows)
    points = workloads.mixed_lattice_points(rows, 12)
    assert len(points) == 6837, len(points)
    generated = {_point(p[:-1], p[-1]) for p in points}
    for x, q in workloads.mixed_chamber_points(12):
        point = _point(x, q)
        assert golden.contains(point) == (point in generated), (x, q)
    assert polytope.polytopes_equal(polytope.hull(sorted(generated)), golden)


def test_seed_only_reorders_replay():
    replay = workloads.WORKLOADS["replay"]
    assert replay.inputs(1) != replay.inputs(2)
    deadline = time.monotonic() + 120
    first, second = (run.spawn("replay", replay.inputs(seed), deadline) for seed in (1, 2))
    assert first["failures"] == second["failures"] == [], (first["failures"], second["failures"])
    assert first["attempted"] == second["attempted"]
    assert first["digest"] == second["digest"]


def test_every_binding_is_wrapped(tracer):
    originals = {id(fn): op for op, fn in tracer.originals.items()}
    for name, module in list(sys.modules.items()):
        if name == "paulitope" or name.startswith("paulitope.") or module is workloads:
            for attr, value in vars(module).items():
                assert id(value) not in originals, f"{name}.{attr} is the unwrapped {originals[id(value)]}"
    # polytope binds these through ``from ... import``
    assert polytope.inner_points is plethysm.inner_points
    assert polytope.coefficient is coefficients.coefficient
    assert polytope.inequality_to_triple is coefficients.inequality_to_triple
    assert set(tracing.COUNTERS) <= set(tracer.originals)


def test_c4_trace(tracer):
    tracer.run = "solve"
    result = polytope.pipeline((1, 1, 1), 6, 1, [2, 4])
    tracer.run = None
    assert result["converged_at"] == 4
    spans = [s for s in tracer.spans if s.run == "solve"]
    got = tracing.metrics(spans, [])
    for key in ("plethysm.newton_calls", "polytope.hull_points_in", "coefficients.coefficient_calls"):
        assert got[key][0] > 0, key
    summary = tracing.summary(spans)
    for name, entry in list(summary["layers"].items()) + list(summary["ops"].items()):
        assert 0 <= entry["self_s"] <= entry["busy_s"] + 1e-9, name


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    printed = list(tracing.metrics([], [])) + list(run.TRACE_EXTRA)
    assert [m["name"] for m in spec["per_layer"]] == printed


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install([workloads])  # wrappers pass calls straight through until tracer.run is set
    steps = [
        ("generator matches Polytope.contains at denominator <= 12", test_generator_matches_contains),
        ("replay under seeds 1 and 2 gives identical outputs", test_seed_only_reorders_replay),
        ("every binding of a traced function is wrapped", lambda: test_every_binding_is_wrapped(tracer)),
        ("c4 trace reaches plethysm, polytope and coefficients", lambda: test_c4_trace(tracer)),
        ("BENCHMARK.json lists the harness's workloads and metrics", test_benchmark_json_matches_harness),
    ]
    failed = 0
    for label, fn in steps:
        start = time.monotonic()
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"PASS {label} ({time.monotonic() - start:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
