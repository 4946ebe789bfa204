#!/usr/bin/env python3
"""The repo's performance ledger: one command, four workloads.

    python3 benchmarks/ledger/run.py                       # all four, untraced
    python3 benchmarks/ledger/run.py --workload wide_mem --seed 2 --seconds 10 --trace 1
    python3 benchmarks/ledger/run.py --list

Untraced (``--trace 0``) it measures the end-to-end metrics; ``--trace 1``
is the second kind of run, which gives the per-layer numbers from timing
wrappers placed around ``repro``'s layer boundaries from outside (see
``layers.py``).  Every metric is printed by name with its unit, outputs are
checked, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  README.md defines
every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
from hostspeed import NoCorrection, SpeedSampler  # noqa: E402
from spans import Tracer, write_chrome_trace  # noqa: E402


def import_repro() -> float:
    """Import the simulator from this checkout's ``src/``; seconds taken.

    The ledger measures the tree it sits in, never an installed copy: a
    checkout without ``src/repro`` is an error, not a fallback.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: {src / 'repro'} not found; run from a checkout of the repo")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import repro
    import repro.experiments.runner  # noqa: F401
    import repro.serve.server  # noqa: F401
    import repro.trace  # noqa: F401

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"ledger: imported repro from {repro.__file__}, not from {src}")
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0   # Linux reports KiB


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    import numpy

    return {
        "commit": commit, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba_imports": has_numba, "load_1min_start": os.getloadavg()[0],
    }


# ----------------------------------------------------------------------
# One workload, one kind of run
# ----------------------------------------------------------------------
def run_untraced(cls, seed: int, seconds: float, scratch: str, tracer: Tracer) -> dict:
    from workloads import SETUP_REPEATS, Ctx

    workload = cls(seed, scratch)
    sampler = SpeedSampler() if workload.corrected else NoCorrection()
    ctx = Ctx(sampler, tracer)
    sampler.start()
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            _, corrected, _ = ctx.timed(f"setup{repeat}", workload.setup)
            setups.append(corrected)
        passes = []
        cpu0, started = time.process_time(), time.perf_counter()
        with tracer.span("timed_region", workload=workload.name):
            while True:
                with tracer.span(f"pass{len(passes)}"):
                    passes.append(workload.run_pass(ctx, len(passes)))
                elapsed = time.perf_counter() - started
                if elapsed >= seconds and len(passes) >= workload.min_passes:
                    break
        cpu_share = (time.process_time() - cpu0) / elapsed
        host_speed = sampler.host_speed()
        sampler.stop()
        attempted, failed, notes = workload.check(passes)
        metrics = workload.end_to_end(passes, elapsed) if failed == 0 else {}
    finally:
        sampler.stop()
        workload.teardown()
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    extra = dict(workload.free)
    extra.update({
        "bench.cpu_share": cpu_share, "bench.host_speed": host_speed,
        "bench.raw_wall_s": elapsed, "bench.passes": len(passes),
        "bench.operations": sum(len(ops) for ops in passes),
    })
    return {"workload": workload.name, "trace": 0, "corrected": workload.corrected,
            "cpu_share": cpu_share, "attempted": attempted, "failed": failed, "notes": notes,
            "metrics": metrics, "extra": extra}


def run_traced(cls, seed: int, scratch: str, tracer: Tracer, import_s: float) -> dict:
    """One pass untraced, the same pass traced, then the workload's probes."""
    from workloads import Ctx

    workload = cls(seed, scratch)
    plain = Tracer()   # coarse spans of the untraced half; not exported
    sampler = SpeedSampler() if workload.corrected else NoCorrection()
    notes = []
    try:
        workload.setup()
        sampler.start()
        cpu0, started = time.process_time(), time.perf_counter()
        untraced = workload.run_pass(Ctx(sampler, plain, built=True), 0)
        untraced_wall = time.perf_counter() - started
        cpu_share = (time.process_time() - cpu0) / untraced_wall
        # The speedometer keeps running so both halves compare at one host
        # speed; its slices are kept out of every span's self time.
        sampler.on_slice = tracer.exclude
        with tracer.span("traced_pass", workload=workload.name) as traced_span:
            traced = workload.run_pass(Ctx(sampler, tracer, built=True, fine=True), 1)
        sampler.stop()
        traced_wall = traced_span["end"] - traced_span["start"]
        accounted = (tracer.layer_self_total() + tracer.excluded_s
                     + sum(s.get("self_s", 0.0) for s in tracer.spans)) / traced_wall
        attempted, failed, notes = workload.check([untraced, traced])
        probe_metrics, probe_attempted, probe_notes = workload.probes(Ctx(NoCorrection(), tracer))
        attempted += probe_attempted
        failed += len(probe_notes)
        notes += probe_notes
    finally:
        sampler.stop()
        workload.teardown()
    measured = workload.per_layer(tracer)   # after teardown: serve.stop_s is known by now
    measured.update(probe_metrics)
    measured.update({
        "bench.import_s": import_s,
        # Same operations back to back (the traced pass's extra phases excluded).
        "bench.trace_overhead_ratio": (sum(op.seconds for op in traced)
                                       / sum(op.seconds for op in untraced)),
        "bench.accounted_share": accounted,
        "bench.cpu_share": cpu_share,
        "bench.host_speed": sampler.host_speed(),
    })
    # Every run reports every per-layer name; a layer this workload does not
    # exercise did no work and reads 0.
    metrics = {m.name: float(measured.get(m.name, 0.0)) for m in catalog.PER_LAYER}
    return {"workload": workload.name, "trace": 1, "corrected": False,
            "cpu_share": cpu_share, "attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics,
            "extra": {"bench.untraced_wall_s": untraced_wall, "bench.traced_wall_s": traced_wall},
            "cells": per_cell_table(tracer)}


def per_cell_table(tracer: Tracer) -> dict:
    """``cell -> layer -> [self_s, calls, counted]`` of the traced pass."""
    return {str(cell): {layer: [stat.self_s, stat.calls, stat.counted]
                        for layer, stat in sorted(layers.items())}
            for cell, layers in tracer.layers.items()}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def units() -> dict:
    table = {m.name: m.unit for m in catalog.END_TO_END}
    table.update({m.name: m.unit for m in catalog.PER_LAYER})
    table.update({"bench.raw_wall_s": "s", "bench.passes": "count", "bench.operations": "count",
                  "bench.untraced_wall_s": "s", "bench.traced_wall_s": "s"})
    return table


def print_result(result: dict) -> None:
    unit = units()
    kind = "traced (per-layer)" if result["trace"] else "untraced (end-to-end)"
    seconds = "nominal-speed seconds" if result["corrected"] else "raw seconds"
    print(f"== {result['workload']} | {kind} | host times in {seconds} ==")
    for name, value in list(result["metrics"].items()) + sorted(result["extra"].items()):
        print(f"  {name:<44} {value:>16.6g} {unit.get(name, '')}")
    if "cawa_speedup" in result["metrics"]:
        print("  (cawa_speedup: the paper reports 1.23 over its seven Sens apps at full size; "
              "EXPERIMENTS.md 1.443 — the gap is the model's stated error)")
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_share':<44} {share:>16.6g} ratio   "
          f"({result['failed']} of {result['attempted']} operations)")
    for note in result["notes"]:
        print(f"  FAILED {note}")
    for cell, layers in result.get("cells", {}).items():
        tick = layers.get("sm.tick")
        if tick and tick[1]:
            total = sum(v[0] for v in layers.values())
            print(f"  cell {cell:<28} layer self {total:8.3f} s  sm.tick.useful_ratio "
                  f"{tick[2] / tick[1]:.4f}")


def last_line(result: dict, wanted) -> str:
    metrics = {m.name: {"value": result["metrics"][m.name], "unit": m.unit}
               for m in wanted if m.name in result["metrics"]}
    return json.dumps({"correct": result["failed"] == 0 and len(metrics) == len(wanted),
                       "attempted": max(1, result["attempted"]), "failed": result["failed"],
                       "metrics": metrics})


def list_metrics() -> None:
    print("workloads:")
    for name, why in catalog.WORKLOADS.items():
        print(f"  {name}: {why}")
    print("end-to-end metrics (every workload, --trace 0):")
    for m in catalog.END_TO_END:
        print(f"  {m.name} [{m.unit}, {m.better} is better, bound {m.bound}, {m.time}] {m.definition}")
    print("per-layer metrics (--trace 1; 0 on workloads outside the list):")
    for m in catalog.PER_LAYER:
        print(f"  {m.name} [{m.unit}, {m.better} is better, {m.time}; "
              f"{', '.join(m.workloads)}] {m.definition} -> moves {m.moves}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS), default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes until this much time has elapsed "
                             "(--trace 1 always runs one pass untraced and one traced)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run (per-layer metrics) instead of the end-to-end one")
    parser.add_argument("--out", default=None, help="write the result JSON here")
    parser.add_argument("--spans-out", default=None, help="write the coarse spans (Chrome trace) here")
    parser.add_argument("--list", action="store_true", help="print the metric catalogue and exit")
    args = parser.parse_args(argv)
    if args.list:
        list_metrics()
        return 0

    import_s = import_repro()
    import workloads

    env = environment(args.seed)
    scratch = ROOT / ".ledger_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    tracers = []
    results = []
    try:
        for name in names:
            tracer = Tracer()   # aggregates are per workload; the span file joins them
            tracers.append(tracer)
            with tracer.span(name):
                if args.trace:
                    result = run_traced(workloads.ALL[name], args.seed, str(scratch), tracer, import_s)
                else:
                    result = run_untraced(workloads.ALL[name], args.seed, args.seconds,
                                          str(scratch), tracer)
                    result["extra"]["bench.import_s"] = import_s
            results.append(result)
            print_result(result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()   # only when no other run is using it
        except OSError:
            pass
    env["load_1min_end"] = os.getloadavg()[0]
    # serve_mix sleeps and waits on its worker by design; the others should own a core.
    env["noisy"] = (max(env["load_1min_start"], env["load_1min_end"]) > (os.cpu_count() or 1)
                    or any(r["cpu_share"] < 0.9 for r in results if r["workload"] != catalog.SERVE))
    print(f"environment: {json.dumps(env)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"environment": env, "trace": args.trace, "seconds": args.seconds,
                       "results": results}, handle, indent=1)
    if args.spans_out:
        write_chrome_trace(args.spans_out, tracers)
    wanted = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    for result in results:
        print(last_line(result, wanted))
    return 0   # a failed check is reported as "correct": false, not as a crash


if __name__ == "__main__":
    sys.exit(main())
