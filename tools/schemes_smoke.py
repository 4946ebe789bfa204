#!/usr/bin/env python
"""CI smoke test for the co-design scheme lineup (docs/schemes.md).

Runs every feedback-consuming scheme (``ccws``, ``wasp``, ``ciao``) on
two tier-1 workloads and asserts the subsystem's headline guarantees
end to end:

1. each scheme completes recorded in place (a GPU handed no trace) and
   replayed from the stored trace with *identical* cycle counts and
   identical canonically sorted streams of the cache records on the event
   bus — the records the schemes read;
2. every cache record validates against the event schema, and the
   stream's L1 miss count agrees with the cache counters;
3. the trace store is hit, not re-recorded, across schemes — each
   workload's functional streams are recorded exactly once and replayed
   for every scheme (the cache-aware path CI depends on for speed).

Usage::

    python tools/schemes_smoke.py          # (sets PYTHONPATH=src itself)

Exit status 0 on success; any violation prints a diagnostic and exits
non-zero.  Run via ``make schemes-smoke``.
"""

import os
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

SCHEMES = ("ccws", "wasp", "ciao")
CELLS = (("backprop", 0.25), ("kmeans", 0.125))


def fail(message):
    print(f"schemes-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    scratch = tempfile.mkdtemp(prefix="schemes_smoke_")
    os.environ["REPRO_CACHE_DIR"] = scratch

    from repro import GPU
    from repro import trace as trace_mod
    from repro.config import GPUConfig
    from repro.core.cawa import apply_scheme
    from repro.experiments.runner import scheme_oracle
    from repro.obs import (Ev, bus_from_spec, record_events, sort_events,
                           validate_events)
    from repro.obs.events import LEVEL_L1D
    from repro.workloads import make_workload

    cache_kinds = {int(kind) for kind in Ev if kind.name.startswith("CACHE_")}
    miss = int(Ev.CACHE_MISS)

    def in_place(workload, scheme, scale):
        """The cell on a GPU handed no trace: it records each launch in
        place and never touches the trace store."""
        base = GPUConfig.default_sim().with_events("on")
        cfg = apply_scheme(base, scheme)
        bus = bus_from_spec(cfg.events)
        gpu = GPU(cfg, oracle=scheme_oracle(workload, scale, base, cfg), obs=bus)
        return make_workload(workload, scale=scale).run(gpu, scheme=scheme), bus

    def cache_stream(workload, scheme, scale, replayed):
        if replayed:
            result, bus = record_events(workload, scheme, scale=scale)
        else:
            result, bus = in_place(workload, scheme, scale)
        if len(bus.events()) != bus.emitted:
            fail(f"{workload} x {scheme}: the event ring dropped records")
        return result, sort_events(ev for ev in bus.events() if ev[0] in cache_kinds)

    started = time.time()
    for workload, scale in CELLS:
        # Record the functional streams once; every scheme replays them.
        _, program = trace_mod.record_workload(
            workload, scale=scale, config=GPUConfig.default_sim()
        )
        trace_mod.store_program(program, workload, scale, GPUConfig.default_sim())
        print(f"[{workload} @ {scale}] trace recorded "
              f"({len(program.launches)} launch(es))")
        for scheme in SCHEMES:
            exec_result, exec_records = cache_stream(
                workload, scheme, scale, replayed=False)
            trace_result, trace_records = cache_stream(
                workload, scheme, scale, replayed=True)
            if (exec_result.frontend, trace_result.frontend) != ("execute", "trace"):
                fail(f"{workload} x {scheme}: expected an in-place and a "
                     f"replayed run, got {exec_result.frontend} / "
                     f"{trace_result.frontend}")
            cell = f"{workload} x {scheme}"
            if exec_result.cycles != trace_result.cycles:
                fail(f"{cell}: in place {exec_result.cycles} cycles != "
                     f"replayed {trace_result.cycles}")
            if exec_records != trace_records:
                fail(f"{cell}: cache record streams diverge between in-place "
                     f"and replayed runs "
                     f"({len(exec_records)} vs {len(trace_records)} records)")
            count = validate_events(exec_records)
            if count == 0:
                fail(f"{cell}: no cache records")
            l1_misses = sum(
                1 for r in exec_records
                if r[0] == miss and r[3] == LEVEL_L1D
            )
            if l1_misses != exec_result.l1_stats.misses:
                fail(f"{cell}: stream has {l1_misses} L1 CACHE_MISS records, "
                     f"counters say {exec_result.l1_stats.misses}")
            print(f"  {cell}: {exec_result.cycles} cycles, "
                  f"ipc {exec_result.ipc:.2f}, {count} cache records — OK")

    print(f"schemes-smoke: all {len(CELLS) * len(SCHEMES)} cells passed "
          f"in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
