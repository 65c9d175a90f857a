"""paulitope benchmark: runs one workload for a fixed time and reports metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn.  Every pass of a workload is a fresh interpreter (``worker.py``), so
each pays the imports and the ``lru_cache`` warm-up a command-line user
pays.  Passes run one after another, single-threaded, until the next one
would end after S seconds.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s``,
``solve_s`` and ``peak_rss_mb`` as medians over the run, with the error rate
on its own line and as ``failed`` / ``attempted`` in the result.  Times are
wall times rescaled to a reference host speed by the probe in
``hostprobe.py``; the raw wall times are printed beside them.  With
``--trace 1`` untraced and traced passes alternate; the per-layer metrics
are medians over the traced passes and ``trace.overhead_s`` is the traced
minus the untraced median ``solve_s``.  The last line of standard output is
the JSON result.  A wrong or missing output exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = ("setup_s", "solve_s", "peak_rss_mb")
TRACE_EXTRA = ("trace.solve_s", "trace.untraced_solve_s", "trace.overhead_s")
SETUP_SAMPLES = 5  # extra set-up-only interpreters per untraced run
HARD_LIMIT_S = 170.0  # a run never lasts longer than this


class BenchError(Exception):
    """The benchmark itself could not run a pass."""


def conditions() -> dict:
    """Machine and software the numbers were measured on."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def spawn(name: str, request: dict | None, deadline: float, trace_file: Path | None = None) -> dict:
    """Run one worker pass and return its reply, with ``setup_s`` filled in."""
    cmd = [sys.executable, str(HERE / "worker.py"), name]
    if request is None:
        cmd.append("--setup-only")
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            input=json.dumps(request) if request is not None else "",
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: pass did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{name}: pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    reply["setup_wall_s"] = reply.pop("ready_at") - started
    reply["setup_s"] = reply["setup_wall_s"] * reply["setup_speed"]
    reply["wall_s"] = time.monotonic() - started
    return reply


def high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if above the median."""
    n = len(samples)
    if n < 20:
        return f"no percentile above the median has 10 samples beyond it at n={n}"
    value = sorted(samples)[n - 11]
    return f"p{100 * (n - 10) / n:.0f} {value:.4f} s"


def run_workload(name: str, seed: int, seconds: float, traced: bool, hard_deadline: float) -> dict:
    import workloads

    start = time.monotonic()
    stop = min(start + seconds, hard_deadline)
    request = workloads.WORKLOADS[name].inputs(seed)
    spawn(name, None, hard_deadline)  # warm-up: byte-compiles and fills the file cache
    setup = [] if traced else [spawn(name, None, hard_deadline) for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    spans_file = OUT / f"{name}.spans.jsonl"
    if traced:
        OUT.mkdir(exist_ok=True)
    while True:
        trace_this = traced and len(passes) % 2 == 1
        reply = spawn(name, request, hard_deadline, spans_file if trace_this else None)
        reply["traced"] = trace_this
        passes.append(reply)
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.monotonic() + typical > stop and len(passes) >= (2 if traced else 1):
            break
    plain = [p for p in passes if not p["traced"]]
    return {
        "name": name,
        "setup": setup + plain,
        "solve": plain,
        "rss": [p["peak_rss_mb"] for p in plain],
        "traced": [p for p in passes if p["traced"]],
        "attempted": sum(p["attempted"] for p in passes),
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "failed": sum(len(p["failures"]) for p in passes),
    }


def _medians(replies: list[dict], phase: str) -> tuple[list[float], float, float, float]:
    """The phase's rescaled times, and the medians of rescaled time, wall time and speed factor."""
    times = [r[f"{phase}_s"] for r in replies]
    walls = statistics.median(r[f"{phase}_wall_s"] for r in replies)
    speed = statistics.median(r[f"{phase}_speed"] for r in replies)
    return times, statistics.median(times), walls, speed


def end_to_end(res: dict) -> dict:
    name = res["name"]
    _, setup, setup_wall, setup_speed = _medians(res["setup"], "setup")
    solves, solve, solve_wall, solve_speed = _medians(res["solve"], "solve")
    rss = statistics.median(res["rss"])
    print(f"{name}  setup_s      {setup:.4f} s   median of {len(res['setup'])} interpreter starts "
          f"(wall {setup_wall:.4f} s, host speed factor {setup_speed:.3f})")
    quartiles = statistics.quantiles(solves, n=4) if len(solves) > 1 else solves * 3
    print(f"{name}  solve_s      {solve:.4f} s   median of {len(solves)} passes "
          f"(quartiles {quartiles[0]:.4f} to {quartiles[2]:.4f} s; wall {solve_wall:.4f} s, "
          f"host speed factor {solve_speed:.3f}); {high_percentile(solves)}")
    print(f"{name}  peak_rss_mb  {rss:.1f} MB   median of {len(res['rss'])} passes")
    print(f"{name}  error_rate   {res['failed'] / res['attempted']:.4f}   {res['failed']} of {res['attempted']} checked outputs wrong or raised")
    values = dict(zip(END_TO_END, ((setup, "s"), (solve, "s"), (rss, "MB"))))
    return {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}


def per_layer(res: dict) -> dict:
    import tracing

    units = {k: unit for k, (_, unit) in tracing.metrics([], []).items()}
    traced = res["traced"]
    traced_solve = statistics.median(p["solve_s"] for p in traced)
    untraced_solve = statistics.median(p["solve_s"] for p in res["solve"])
    out = {}
    for key, unit in units.items():
        values = [p["trace"][key] for p in traced]
        if unit == "count" and len(set(values)) > 1:
            res["failures"].append(f"trace count {key} differs between passes: {values}")
            res["failed"] += 1
        out[key] = {"value": statistics.median(values), "unit": unit}
    for key, value in zip(TRACE_EXTRA, (traced_solve, untraced_solve, traced_solve - untraced_solve)):
        out[key] = {"value": value, "unit": "s"}
    name = res["name"]
    print(f"{name}  solve_s traced {traced_solve:.4f} s vs untraced {untraced_solve:.4f} s "
          f"({len(traced)} and {len(res['solve'])} passes): tracing overhead {traced_solve - untraced_solve:+.4f} s")
    print(f"{name}  largest self times (last traced pass):")
    for op, self_s, calls in traced[-1]["top_self"]:
        print(f"{name}    {op:44s} {self_s:9.4f} s  {calls:7d} calls")
    for key, metric in out.items():
        print(f"{name}  {key:34s} {metric['value']:.6g} {metric['unit']}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so that subprocess.run kills and reaps a running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "paulitope" / "__init__.py").is_file():
        print(f"perfbench: no paulitope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    hard_deadline = time.monotonic() + HARD_LIMIT_S * len(names)
    print(json.dumps({"conditions": conditions(), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    metrics = {}
    attempted = failed = 0
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), hard_deadline)
            got = per_layer(res) if args.trace else end_to_end(res)
            for failure in res["failures"]:
                print(f"{name}  FAILED {failure}")
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += res["attempted"]
            failed += res["failed"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
