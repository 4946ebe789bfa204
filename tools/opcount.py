#!/usr/bin/env python
"""Bytecodes and Python calls per replayed warp instruction, by function.

Examples::

    python tools/opcount.py                       # the ledger's 15 narrow_figs cells
    python tools/opcount.py --budget-cell         # bfs x gto @ 0.5 only
    python tools/opcount.py --top 40 --json opcount.json

Each cell's trace is loaded (or recorded) into a private cache directory
and replayed once untraced, so a kernel's decode records are built before
counting; then one more replay runs under ``sys.settrace`` with opcode
events on.  Every executed bytecode of a Python frame is one opcode event
and every frame entered (a generator resumed included) one call, charged to
the function's code object.  Work done inside C (builtins, ``heapq``,
``min`` with an ``attrgetter`` key) costs one call site's bytecodes and
nothing more — which is what this tool is for: counting the interpreter's
work on the replay kernel, not timing it.

The counts repeat exactly run to run and host to host under one CPython
minor version (the hash seed is pinned: the script re-executes itself with
``PYTHONHASHSEED=0`` if needed).  They move with the interpreter's bytecode,
so they are a report to compare across commits, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments import profiling, result_cache  # noqa: E402
from repro.experiments.profiling import warm_replay, where  # noqa: E402

HASH_SEED = "0"
#: The performance ledger's ``narrow_figs`` cells (workload, scheme, scale)
#: on the default 2-SM device, at each workload's default input seed.
NARROW_CELLS = tuple((w, s, 0.5)
                     for w in ("bfs", "kmeans", "needle", "strcltr_small", "backprop")
                     for s in ("rr", "gto", "cawa"))


def _counting_tracer(ops, calls):
    """A ``sys.settrace`` function counting into ``ops`` / ``calls``, which
    map each code object to a one-item list.  Each code object gets its own
    opcode counter, so an opcode event costs one closure call and no hash."""
    local_of = {}

    def enter(frame, event, arg):
        code = frame.f_code
        local = local_of.get(code)
        if local is None:
            count = ops.setdefault(code, [0])
            calls.setdefault(code, [0])

            def local(frame, event, arg):
                if event == "opcode":
                    count[0] += 1

            local_of[code] = local
        calls[code][0] += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    return enter


def count_cell(workload, scheme, scale, ops, calls):
    """Replay one cell under the counter; returns its warp instructions."""
    replay = warm_replay(workload, scheme, scale)
    sys.settrace(_counting_tracer(ops, calls))
    try:
        results = replay()
    finally:
        sys.settrace(None)
    return sum(result.warp_instructions for result in results)


def report(cells):
    """Count every cell; returns the report as a dict."""
    ops, calls = {}, {}
    per_cell = []
    winst = 0

    def totals():
        return (sum(count for count, in ops.values()),
                sum(count for count, in calls.values()))

    for workload, scheme, scale in cells:
        before_ops, before_calls = totals()
        n = count_cell(workload, scheme, scale, ops, calls)
        after_ops, after_calls = totals()
        winst += n
        per_cell.append({
            "cell": f"{workload}/{scheme}@{scale}", "warp_instructions": n,
            "opcodes_per_winst": (after_ops - before_ops) / n,
            "calls_per_winst": (after_calls - before_calls) / n,
        })
    functions = {}
    for code, (count,) in ops.items():
        entry = functions.setdefault(where(code), [0, 0])
        entry[0] += count
        entry[1] += calls[code][0]
    total_ops, total_calls = totals()
    return {
        "python": sys.version.split()[0],
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "warp_instructions": winst,
        "opcodes": total_ops,
        "calls": total_calls,
        "opcodes_per_winst": total_ops / winst,
        "calls_per_winst": total_calls / winst,
        "cells": per_cell,
        "functions": sorted(
            ({"function": name, "opcodes": o, "calls": c,
              "opcodes_per_winst": o / winst, "calls_per_winst": c / winst,
              "share": o / total_ops}
             for name, (o, c) in functions.items()),
            key=lambda row: (-row["opcodes"], row["function"])),
    }


def format_report(data, top):
    lines = [
        f"CPython {data['python']}, PYTHONHASHSEED={data['hash_seed']}: "
        f"{data['opcodes']:,} opcodes, {data['calls']:,} calls over "
        f"{data['warp_instructions']:,} replayed warp instructions",
        f"per warp instruction: {data['opcodes_per_winst']:.1f} opcodes, "
        f"{data['calls_per_winst']:.2f} calls",
        "",
        f"{'cell':<28} {'winst':>9} {'ops/winst':>10} {'calls/winst':>12}",
    ]
    for cell in data["cells"]:
        lines.append(f"{cell['cell']:<28} {cell['warp_instructions']:>9,} "
                     f"{cell['opcodes_per_winst']:>10.1f} {cell['calls_per_winst']:>12.2f}")
    lines += ["", f"{'function':<60} {'ops/winst':>10} {'calls/winst':>12} {'share':>7}"]
    for row in data["functions"][:top]:
        lines.append(f"{row['function']:<60} {row['opcodes_per_winst']:>10.1f} "
                     f"{row['calls_per_winst']:>12.3f} {100 * row['share']:>6.1f}%")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget-cell", action="store_true",
                        help="count the call-budget cell (bfs x gto @ 0.5) only")
    parser.add_argument("--top", type=int, default=25, help="functions to list")
    parser.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])

    cells = [profiling.CALL_BUDGET_CELL] if args.budget_cell else NARROW_CELLS
    with tempfile.TemporaryDirectory(prefix="opcount-") as scratch:
        result_cache.set_cache_dir(scratch)
        try:
            data = report(cells)
        finally:
            result_cache.set_cache_dir(None)
    print(format_report(data, args.top))
    if args.json:
        Path(args.json).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
