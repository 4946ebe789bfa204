#!/usr/bin/env python
"""CI smoke test for the co-design scheme lineup (docs/schemes.md).

Runs every feedback-consuming scheme (``ccws``, ``wasp``, ``ciao``) on
two tier-1 workloads and asserts the subsystem's headline guarantees
end to end:

1. each scheme completes on both the execute and trace frontends with
   *identical* cycle counts and identical canonical signal streams
   (the FeedbackChannel determinism contract);
2. every recorded signal validates against the schema, and the stream's
   L1 miss count agrees with the cache counters;
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

    from repro import trace as trace_mod
    from repro.config import GPUConfig
    from repro.feedback import record_signals
    from repro.feedback.signals import LEVEL_L1D, Sig, validate_signals

    sig_miss = int(Sig.MISS)
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
            exec_result, exec_signals = record_signals(
                workload, scheme, scale=scale,
                config=GPUConfig.default_sim().with_frontend("execute"),
            )
            trace_result, trace_signals = record_signals(
                workload, scheme, scale=scale,
                config=GPUConfig.default_sim(),
            )
            if (exec_result.frontend, trace_result.frontend) != ("execute", "trace"):
                fail(f"{workload} x {scheme}: expected an executed and a "
                     f"replayed run, got {exec_result.frontend} / "
                     f"{trace_result.frontend}")
            cell = f"{workload} x {scheme}"
            if exec_result.cycles != trace_result.cycles:
                fail(f"{cell}: execute {exec_result.cycles} cycles != "
                     f"trace {trace_result.cycles}")
            if exec_signals != trace_signals:
                fail(f"{cell}: signal streams diverge between frontends "
                     f"({len(exec_signals)} vs {len(trace_signals)} records)")
            count = validate_signals(exec_signals)
            if count == 0:
                fail(f"{cell}: no feedback signals recorded")
            l1_misses = sum(
                1 for r in exec_signals
                if r[0] == sig_miss and r[3] == LEVEL_L1D
            )
            if l1_misses != exec_result.l1_stats.misses:
                fail(f"{cell}: stream has {l1_misses} L1 MISS signals, "
                     f"counters say {exec_result.l1_stats.misses}")
            print(f"  {cell}: {exec_result.cycles} cycles, "
                  f"ipc {exec_result.ipc:.2f}, {count} signals — OK")

    print(f"schemes-smoke: all {len(CELLS) * len(SCHEMES)} cells passed "
          f"in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
