#!/usr/bin/env python
"""Where the replay kernel's CPU time goes: a SIGPROF stack sampler.

Examples::

    python tools/sample_profile.py                  # the ledger's 15 narrow_figs cells
    python tools/sample_profile.py --budget-cell    # bfs x gto @ 0.5 only
    python tools/sample_profile.py --top 40 --interval 0.5 --json samples.json

Each cell's trace is loaded (or recorded) into a private cache directory
and replayed once unsampled, so a kernel's decode records are built first;
then one more replay runs with an ``ITIMER_PROF`` timer that interrupts the
process every ``--interval`` ms of CPU time.  Each interrupt charges its
sample to the function running (*self*) and once to every function on the
stack (*inclusive*).  Python runs signal handlers between bytecodes, so a
C call — a builtin, ``bisect.insort``, an iterator's allocation — is
charged to the Python function that made it, and a sample costs one short
stack walk, where ``cProfile``'s per-call hooks nearly triple the replay.

Shares are of the samples taken inside replays.  The kernel may deliver
the timer no more often than its scheduler tick (the header prints the
interval asked and the one taken; 4 ms on a 250 Hz kernel).  Sampling is
statistical: over the 15 cells (~3 s of replay CPU) at 4 ms, a function
with a 1% share rests on ~8 samples, so compare shares of a few percent
and up, or lengthen the run with ``--repeat``.  ``tools/opcount.py`` is
the deterministic count; this is the time.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from opcount import NARROW_CELLS, SRC, _where

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class StackSampler:
    """Counts self and inclusive samples per code object under SIGPROF."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples = 0
        self.self_counts: Counter = Counter()
        self.inclusive_counts: Counter = Counter()

    def _on_signal(self, signum, frame) -> None:
        if frame is None:
            return
        self.samples += 1
        self.self_counts[frame.f_code] += 1
        seen = set()
        while frame is not None:
            code = frame.f_code
            if code not in seen:  # a recursive function counts once
                seen.add(code)
                self.inclusive_counts[code] += 1
            frame = frame.f_back

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def sample_cell(workload, scheme, scale, sampler, repeat):
    """Replay one cell ``repeat`` times under ``sampler``; returns
    ``(warp instructions, CPU seconds)`` of the sampled replays."""
    from repro import trace as trace_mod
    from repro.config import GPUConfig
    from repro.core.cawa import apply_scheme
    from repro.experiments import runner

    cfg = GPUConfig.default_sim()
    program = runner.load_or_record_program(workload, scheme, scale, cfg)
    run_cfg = apply_scheme(cfg, scheme)
    trace_mod.replay_program(program, run_cfg, scheme=scheme)
    winst = 0
    start = time.process_time()
    with sampler:
        for _ in range(repeat):
            results = trace_mod.replay_program(program, run_cfg, scheme=scheme)
            winst += sum(result.warp_instructions for result in results)
    return winst, time.process_time() - start


def report(cells, interval_s, repeat):
    sampler = StackSampler(interval_s)
    per_cell = []
    winst = 0
    cpu_s = 0.0
    for workload, scheme, scale in cells:
        before = sampler.samples
        n, seconds = sample_cell(workload, scheme, scale, sampler, repeat)
        winst += n
        cpu_s += seconds
        per_cell.append({"cell": f"{workload}/{scheme}@{scale}", "warp_instructions": n,
                         "cpu_s": seconds, "samples": sampler.samples - before})
    total = sampler.samples or 1
    functions = {}
    for code, count in sampler.inclusive_counts.items():
        entry = functions.setdefault(_where(code), [0, 0])
        entry[0] += sampler.self_counts.get(code, 0)
        entry[1] += count
    return {
        "python": sys.version.split()[0],
        "interval_ms": interval_s * 1e3,
        "samples": sampler.samples,
        "warp_instructions": winst,
        "cpu_s": cpu_s,
        "cells": per_cell,
        "functions": sorted(
            ({"function": name, "self": s, "inclusive": i,
              "self_share": s / total, "inclusive_share": i / total}
             for name, (s, i) in functions.items()),
            key=lambda row: (-row["self"], -row["inclusive"], row["function"])),
    }


def format_report(data, top):
    effective_ms = 1e3 * data["cpu_s"] / max(data["samples"], 1)
    lines = [
        f"CPython {data['python']}: {data['samples']:,} samples over "
        f"{data['cpu_s']:.2f} s of replay CPU ({data['interval_ms']:g} ms asked, "
        f"{effective_ms:.1f} ms taken), {data['warp_instructions']:,} warp instructions",
        "",
        f"{'cell':<28} {'winst':>9} {'cpu s':>7} {'samples':>8}",
    ]
    for cell in data["cells"]:
        lines.append(f"{cell['cell']:<28} {cell['warp_instructions']:>9,} "
                     f"{cell['cpu_s']:>7.2f} {cell['samples']:>8,}")
    lines += ["", f"{'function':<60} {'self':>7} {'incl':>7}"]
    for row in data["functions"][:top]:
        lines.append(f"{row['function']:<60} {100 * row['self_share']:>6.1f}% "
                     f"{100 * row['inclusive_share']:>6.1f}%")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget-cell", action="store_true",
                        help="sample the call-budget cell (bfs x gto @ 0.5) only")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="CPU milliseconds between samples (default 1)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sampled replays per cell (default 1)")
    parser.add_argument("--top", type=int, default=30, help="functions to list")
    parser.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    args = parser.parse_args()
    if args.interval <= 0 or args.repeat < 1:
        parser.error("--interval must be positive and --repeat at least 1")

    from repro.experiments import profiling, result_cache

    cells = [profiling.CALL_BUDGET_CELL] if args.budget_cell else NARROW_CELLS
    with tempfile.TemporaryDirectory(prefix="sample-profile-") as scratch:
        result_cache.set_cache_dir(scratch)
        try:
            data = report(cells, args.interval / 1e3, args.repeat)
        finally:
            result_cache.set_cache_dir(None)
    print(format_report(data, args.top))
    if args.json:
        Path(args.json).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
