"""One benchmark pass of one workload, in a fresh interpreter.

Usage: worker.py WORKLOAD [--setup-only] [--trace SPANS_FILE]

The pass imports paulitope and loads the workload's fixtures, then notes the
monotonic clock (the parent subtracts its spawn time to get ``setup_s``).
With ``--setup-only`` it stops there.  Otherwise it reads the generated
inputs as JSON from stdin, times ``solve``, takes the process's peak
resident memory, runs the checks and prints one JSON reply on stdout.
With ``--trace`` the layers are wrapped before the fixtures load, and the
spans are written to SPANS_FILE at the end of the pass.

The host probe (``hostprobe.py``) runs from the first line to the end of
``solve``.  The reply carries the speed factor of the set-up and of the
solve; ``solve_s`` and the traced times are already multiplied by it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from hostprobe import HostProbe

SRC = Path(__file__).resolve().parent.parent / "src"


def plain(x):
    """A JSON-able form of an output that depends only on its value."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, BaseException):
        return f"{type(x).__name__}: {x}"
    if isinstance(x, dict):
        return sorted([json.dumps(plain(k)), plain(v)] for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return sorted(json.dumps(plain(v)) for v in x)
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [plain(getattr(x, f.name)) for f in dataclasses.fields(x)]
    slots = getattr(type(x), "__slots__", None)
    if slots:
        return [type(x).__name__] + [plain(getattr(x, name)) for name in slots]
    return [type(x).__name__, plain(vars(x))]


def main(argv: list[str]) -> int:
    name = argv[0]
    setup_only = "--setup-only" in argv
    spans_file = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    probe = HostProbe()
    probe.start()

    import paulitope
    import paulitope.fixtures  # noqa: F401  (not imported by the package itself)

    if Path(paulitope.__file__).resolve().parent != SRC / "paulitope":
        print(f"paulitope imported from {paulitope.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if spans_file:
        import tracing

        tracer = tracing.Tracer()
        tracer.install([workloads])
        tracer.run = "setup"
    wl = workloads.WORKLOADS[name]
    fx = wl.fixtures()
    ready_at = time.monotonic()
    setup_speed = probe.take()
    if tracer:
        tracer.run = None
    if setup_only:
        probe.stop()
        print(json.dumps({"ready_at": ready_at, "setup_speed": setup_speed}))
        return 0

    inputs = wl.prepare(json.loads(sys.stdin.read()))
    probe.take()  # the solve phase starts here
    if tracer:
        tracer.run = "solve"
    start = time.perf_counter()
    outputs = wl.solve(inputs, fx)
    solve_wall_s = time.perf_counter() - start
    solve_speed = probe.take()
    probe.stop()
    if tracer:
        tracer.run = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        checks = wl.check(outputs, fx)
    except Exception as exc:  # an output of an unexpected shape is a wrong output
        checks = [(f"check raised {type(exc).__name__}: {exc}", False)]
    reply = {
        "ready_at": ready_at,
        "setup_speed": setup_speed,
        "solve_speed": solve_speed,
        "solve_wall_s": solve_wall_s,
        "solve_s": solve_wall_s * solve_speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(checks),
        "failures": [label for label, ok in checks if not ok],
        "digest": hashlib.sha256(json.dumps(plain(outputs)).encode()).hexdigest(),
    }
    if tracer:
        runs = {"setup": [], "solve": []}
        for span in tracer.spans:
            runs[span.run].append(span)
        speed = {"fixtures.load_s": setup_speed}  # the one metric taken from the set-up spans
        reply["trace"] = {
            k: v * speed.get(k, solve_speed) if unit == "s" else v
            for k, (v, unit) in tracing.metrics(runs["solve"], runs["setup"]).items()
        }
        reply["top_self"] = sorted(
            ((op, e["self_s"] * solve_speed, e["calls"]) for op, e in tracing.summary(runs["solve"])["ops"].items()),
            key=lambda t: -t[1],
        )[:8]
        tracer.write(spans_file)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
