"""Span tracing of paulitope's layers, installed from outside the package.

Every public module-level function of each layer module is replaced by a
wrapper that records one span per call: span id, parent span id, run id
("setup" or "solve"), operation name, start and end.  A function is replaced
under every name it is reachable by, so a ``from .plethysm import
inner_points`` binding inside ``polytope`` is traced too.  Spans stay in
memory; ``summary`` reduces them to per-operation and per-layer numbers and
``metrics`` maps those onto the benchmark's per-layer metric names.

A layer's busy time is the time some call into it is open; its self time is
that minus the time covered by spans it opened into other traced calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, NamedTuple

LAYERS = (
    "plethysm",
    "polytope",
    "coefficients",
    "polynomials",
    "states",
    "tableaux",
    "generators",
    "fixtures",
)

# Methods traced in addition to the module-level functions.
METHODS = {"polynomials": (("SparsePoly", "substitute_linear"),)}


def _dominant(weights) -> int:
    return sum(1 for wt in weights if all(wt[i] >= wt[i + 1] for i in range(len(wt) - 1)))


# Sizes recorded with a span, computed from (args, kwargs, result) once the
# call has returned.  Their cost falls into the caller's span, which is part
# of the reported tracing overhead.
COUNTERS: dict[str, Callable] = {
    "plethysm.plethysm_h_series": lambda a, k, r: {"top_weights": len(r[-1].weights)},
    "plethysm.schur_decompose": lambda a, k, r: {
        "dominant": _dominant(a[0].weights),
        "components": len(r),
    },
    "plethysm.inner_points": lambda a, k, r: {"points": len(r)},
    "polytope.hull": lambda a, k, r: {"points_in": len(a[0]), "vertices": len(r.vertices)},
    "polytope.facet_match": lambda a, k, r: {
        "matched": len(r["matched"]),
        "unmatched": len(r["unmatched"]),
    },
    "polynomials.SparsePoly.substitute_linear": lambda a, k, r: {"terms": len(r.terms)},
    "states.one_particle_rdm": lambda a, k, r: {"exact": int(r.exact), "float": int(not r.exact)},
}


class Span(NamedTuple):
    id: int
    parent: int | None
    run: str
    op: str
    start: float
    end: float
    error: str | None
    counts: dict | None


class Tracer:
    """Wraps the layers' public functions and records spans while ``run`` is set."""

    def __init__(self) -> None:
        self.run: str | None = None
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.originals: dict[str, Callable] = {}

    def install(self, extra_modules=()) -> None:
        """Wrap every traced function under every module attribute bound to it."""
        replaced: dict[int, Callable] = {}  # id of an original -> its wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"paulitope.{layer}")
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                op = f"{layer}.{name}"
                self.originals[op] = obj
                replaced[id(obj)] = self._wrap(op, obj)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                op = f"{layer}.{cls_name}.{meth}"
                self.originals[op] = getattr(cls, meth)
                setattr(cls, meth, self._wrap(op, getattr(cls, meth)))
        modules = [m for n, m in sys.modules.items() if n == "paulitope" or n.startswith("paulitope.")]
        for module in modules + list(extra_modules):
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap(self, op: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(op)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = counter(args, kwargs, result) if counter and error is None else None
                self.spans.append(Span(span_id, parent, self.run, op, start, end, error, counts))

        return traced

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _busy(spans: list[Span], by_id: dict[int, Span], ops: set[str]) -> float:
    """Time covered by spans of ``ops``, counting nested calls among them once."""
    total = 0.0
    for span in spans:
        if span.op not in ops:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.op not in ops:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += span.end - span.start
    return total


def summary(spans: list[Span]) -> dict:
    """Per-operation and per-layer calls, busy and self times, errors and counts."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    ops: dict[str, dict] = {}
    for s in spans:
        entry = ops.setdefault(
            s.op, {"calls": 0, "self_s": 0.0, "errors": {}, "sum": {}, "max": {}}
        )
        entry["calls"] += 1
        entry["self_s"] += (s.end - s.start) - child_time.get(s.id, 0.0)
        if s.error:
            entry["errors"][s.error] = entry["errors"].get(s.error, 0) + 1
        for key, value in (s.counts or {}).items():
            entry["sum"][key] = entry["sum"].get(key, 0) + value
            entry["max"][key] = max(entry["max"].get(key, 0), value)
    for op, entry in ops.items():
        entry["busy_s"] = _busy(spans, by_id, {op})
    layers = {}
    for layer in LAYERS:
        members = {op for op in ops if op.split(".", 1)[0] == layer}
        layers[layer] = {
            "busy_s": _busy(spans, by_id, members),
            "self_s": sum((ops[op]["self_s"] for op in members), 0.0),
        }
    return {"ops": ops, "layers": layers, "spans": len(spans)}


def _calls(summ, *ops):
    return sum(summ["ops"].get(op, {}).get("calls", 0) for op in ops)


def _sum(summ, op, key):
    return summ["ops"].get(op, {}).get("sum", {}).get(key, 0)


def _errors(summ, op, kind):
    return summ["ops"].get(op, {}).get("errors", {}).get(kind, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(solve: list[Span], setup: list[Span]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, name -> (value, unit).

    Fixture loading happens during set-up, so ``fixtures.load_s`` comes from
    the set-up spans; every other metric comes from the solve spans.
    """
    s = summary(solve)
    by_id = {sp.id: sp for sp in solve}

    def busy(*ops):
        return _busy(solve, by_id, set(ops))

    h = "plethysm.plethysm_h_series"
    dec = "plethysm.schur_decompose"
    out = {
        "plethysm.newton_s": (busy(h), "s"),
        "plethysm.newton_calls": (_calls(s, h), "count"),
        "plethysm.newton_weights": (s["ops"].get(h, {}).get("max", {}).get("top_weights", 0), "count"),
        "plethysm.schur_functor_s": (busy("plethysm.plethysm_schur"), "s"),
        "plethysm.schur_functor_calls": (_calls(s, "plethysm.plethysm_schur"), "count"),
        "plethysm.decompose_s": (busy(dec), "s"),
        "plethysm.dominant_weights": (_sum(s, dec, "dominant"), "count"),
        "plethysm.components": (_sum(s, dec, "components"), "count"),
        "plethysm.decompose_yield": (_ratio(_sum(s, dec, "components"), _sum(s, dec, "dominant")), "ratio"),
        "plethysm.points": (_sum(s, "plethysm.inner_points", "points"), "count"),
        "polytope.hull_s": (busy("polytope.hull"), "s"),
        "polytope.cone_dual_s": (busy("polytope.cone_dual"), "s"),
        "polytope.hull_points_in": (_sum(s, "polytope.hull", "points_in"), "count"),
        "polytope.hull_yield": (
            _ratio(_sum(s, "polytope.hull", "vertices"), _sum(s, "polytope.hull", "points_in")),
            "ratio",
        ),
        "polytope.match_s": (busy("polytope.facet_match"), "s"),
        "polytope.matched": (_sum(s, "polytope.facet_match", "matched"), "count"),
        "polytope.unmatched": (_sum(s, "polytope.facet_match", "unmatched"), "count"),
        "polytope.outer_s": (busy("polytope.polytope_from_h"), "s"),
        "polytope.equal_s": (busy("polytope.polytopes_equal"), "s"),
        "coefficients.coefficient_s": (busy("coefficients.coefficient"), "s"),
        "coefficients.coefficient_calls": (_calls(s, "coefficients.coefficient"), "count"),
        "coefficients.triple_s": (busy("coefficients.inequality_to_triple"), "s"),
        "coefficients.triple_failures": (
            _errors(s, "coefficients.inequality_to_triple", "UnmatchedInequalityError"),
            "count",
        ),
        "polynomials.schubert_s": (
            busy("polynomials.schubert_polynomial", "polynomials.grassmannian_schubert"),
            "s",
        ),
        "polynomials.substitute_s": (busy("polynomials.SparsePoly.substitute_linear"), "s"),
        "polynomials.substituted_terms": (
            _sum(s, "polynomials.SparsePoly.substitute_linear", "terms"),
            "count",
        ),
        "polynomials.divided_difference_s": (
            busy("polynomials.divided_difference", "polynomials.divided_difference_word"),
            "s",
        ),
        "states.rdm_s": (busy("states.one_particle_rdm"), "s"),
        "states.occupation_s": (busy("states.occupation_numbers"), "s"),
        "states.exact_rows": (_sum(s, "states.one_particle_rdm", "exact"), "count"),
        "states.float_rows": (_sum(s, "states.one_particle_rdm", "float"), "count"),
        "tableaux.ssyt_s": (busy("tableaux.enumerate_ssyt"), "s"),
        "tableaux.ssyt_calls": (_calls(s, "tableaux.enumerate_ssyt"), "count"),
        "generators.family_s": (
            busy("generators.grassmann_kind1", "generators.grassmann_kind2"),
            "s",
        ),
        "fixtures.load_s": (summary(setup)["layers"]["fixtures"]["busy_s"], "s"),
    }
    for layer in LAYERS:
        if layer == "fixtures":
            continue
        out[f"{layer}.busy_s"] = (s["layers"][layer]["busy_s"], "s")
        out[f"{layer}.self_s"] = (s["layers"][layer]["self_s"], "s")
    out["trace.spans"] = (s["spans"], "count")
    return out
