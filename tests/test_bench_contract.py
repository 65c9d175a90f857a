"""The names the benchmark's tracer hooks into (perfbench/tracing.py).

The traced benchmark run wraps the layers' public functions and reads sizes
off their arguments and results.  This runs the six-level pipeline under the
tracer in this process, so an engine change that renames a traced function
or changes what a counter reads fails here instead of in the traced run.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def _installed_tracer(tracing):
    """Install a tracer; every wrapped binding is put back on exit."""
    for layer in tracing.LAYERS:
        importlib.import_module(f"paulitope.{layer}")
    modules = [m for n, m in sys.modules.items() if n == "paulitope" or n.startswith("paulitope.")]
    saved = [(module, dict(vars(module))) for module in modules]
    saved_methods = []
    for layer, entries in tracing.METHODS.items():
        for cls_name, name in entries:
            cls = getattr(sys.modules[f"paulitope.{layer}"], cls_name)
            saved_methods.append((cls, name, vars(cls)[name]))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.run = None
        for module, attrs in saved:
            for name, value in attrs.items():
                if vars(module).get(name) is not value:
                    setattr(module, name, value)
        for cls, name, value in saved_methods:
            setattr(cls, name, value)


def test_traced_c4_run_feeds_every_counter():
    from paulitope import plethysm, polynomials, polytope, states

    tracing = _load_tracing()
    with _installed_tracer(tracing) as tracer:
        assert hasattr(polytope.inner_points, "__wrapped__")
        tracer.run = "solve"
        result = polytope.pipeline((1, 1, 1), 6, 1, [2, 4])
        states.one_particle_rdm(states.slater_determinant(3, 6))
        # coefficients no longer expand S_w, so the substitution counter is fed here
        polynomials.SparsePoly(2, {(1, 1): 1}).substitute_linear([(1, 0, 1), (0, 1, 1)], 3)
        tracer.run = None
    assert result["converged_at"] == 4
    spans = [s for s in tracer.spans if s.run == "solve"]
    # a counter runs only after its call returned, and must not raise itself
    assert not [s for s in spans if s.op in tracing.COUNTERS and s.error]
    got = tracing.metrics(spans, [])
    for key in ("plethysm.newton_calls", "polytope.hull_points_in", "coefficients.coefficient_calls"):
        assert got[key][0] > 0, key
    counted = {s.op for s in spans if s.counts is not None}
    assert set(tracing.COUNTERS) <= counted, set(tracing.COUNTERS) - counted
    summary = tracing.summary(spans)
    points = sum(h["points"] for h in result["history"])
    assert summary["ops"]["plethysm.inner_points"]["sum"]["points"] == points
    assert summary["ops"]["plethysm.schur_decompose"]["sum"]["components"] > 0
    # the wrappers are gone again
    assert not hasattr(plethysm.inner_points, "__wrapped__")
    assert not hasattr(polytope.inner_points, "__wrapped__")
    assert not hasattr(polynomials.SparsePoly.substitute_linear, "__wrapped__")


def test_traced_kind2_expansion_feeds_the_decompose_counter():
    from paulitope import generators

    tracing = _load_tracing()
    with _installed_tracer(tracing) as tracer:
        tracer.run = "solve"
        family = generators.grassmann_kind2(2, 4)
        tracer.run = None
    [span] = [s for s in tracer.spans if s.op == "plethysm.schur_decompose"]
    assert span.error is None
    assert span.counts["components"] == len(family.items) and span.counts["dominant"] > 0
