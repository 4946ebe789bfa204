#!/usr/bin/env python
"""A/B replay timing of two checkouts in one process, cell by cell.

Examples::

    python tools/ab_replay.py ../parent .                  # 15 narrow cells, 6 reps
    python tools/ab_replay.py ../parent . --cells wide --reps 4
    python tools/ab_replay.py ../parent . --cells paper --reps 5
    python tools/ab_replay.py . .                          # an A/A run: the noise floor

``--cells paper`` times three cells at the paper's width — kmeans x cawa,
kmeans x gto and bfs x cawa at scale 34 on the 15-SM ``fermi_gtx480()``
device, three waves of blocks — where a replay costs seconds, not tenths:
recording takes a few minutes and each rep a minute or more.

Separate ledger runs of one commit disagree by more than most replay-kernel
changes are worth: whole-process runs pick up a different host state each
time.  This tool takes the host out of the comparison instead.  It copies
each checkout's ``src/repro`` under its own package name (``repro_parent``,
``repro_change``; the package imports itself relatively, so both load side
by side), records each cell's trace once per side into a private cache
directory, replays every cell once per side untimed (building each
kernel's decode records), and then times replays alternately, cell by
cell, flipping which side goes first on every cell.  A replay is timed in
process CPU seconds, after a ``gc.collect()``.

A cell is timed only if both sides simulate it identically: ``(cycles,
warp instructions, L1 misses, DRAM accesses)``, summed over its launches.
A cell that differs is refused — named, left out of every ratio — and the
exit status is 1.

Reported per rep: change seconds / parent seconds over all timed cells;
then the median of those ratios and how many reps the change won
(ratio < 1).  Each cell's median ratio follows.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: The performance ledger's ``narrow_figs`` cells on the default 2-SM
#: device: ``(workload, scheme, scale, device)``, where the device is
#: ``None`` (``default_sim()``), an SM count (``default_sim(num_sms=N)``)
#: or ``"gtx480"`` (``fermi_gtx480()``, the paper's Table 1).
NARROW = tuple((w, s, 0.5, None)
               for w in ("bfs", "kmeans", "needle", "strcltr_small", "backprop")
               for s in ("rr", "gto", "cawa"))
#: The ledger's ``wide_mem`` cells: 64- and 160-SM memory-stalled devices.
WIDE = (("strcltr_mid", "rr", 4.0, 64), ("strcltr_mid", "cawa", 4.0, 64),
        ("synthetic_memstress", "gto", 6.0, 160))
#: Paper width: 15 SMs, three waves of blocks.
PAPER = (("kmeans", "cawa", 34.0, "gtx480"), ("kmeans", "gto", 34.0, "gtx480"),
         ("bfs", "cawa", 34.0, "gtx480"))
CELLS = {"narrow": NARROW, "wide": WIDE, "paper": PAPER}
SIDES = ("parent", "change")


class Side:
    """One checkout's package, loaded as ``repro_<name>``, and its cells'
    recorded programs."""

    def __init__(self, name, checkout, scratch):
        package = f"repro_{name}"
        source = Path(checkout).resolve() / "src" / "repro"
        if not (source / "__init__.py").exists():
            raise SystemExit(f"ab_replay: {checkout}: no src/repro package")
        shutil.copytree(source, Path(scratch) / "pkgs" / package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        importlib.invalidate_caches()
        self.name = name
        self.config = importlib.import_module(f"{package}.config")
        self.cawa = importlib.import_module(f"{package}.core.cawa")
        self.trace = importlib.import_module(f"{package}.trace")
        self.runner = importlib.import_module(f"{package}.experiments.runner")
        result_cache = importlib.import_module(f"{package}.experiments.result_cache")
        result_cache.set_cache_dir(str(Path(scratch) / "cache" / name))
        self.programs = {}

    def _config(self, device):
        GPUConfig = self.config.GPUConfig
        if device == "gtx480":
            return GPUConfig.fermi_gtx480()
        return (GPUConfig.default_sim() if device is None
                else GPUConfig.default_sim(num_sms=device))

    def record(self, cell):
        workload, scheme, scale, device = cell
        base = self._config(device)
        program = self.runner.load_or_record_program(workload, scheme, scale, base)
        self.programs[cell] = (program, self.cawa.apply_scheme(base, scheme))

    def replay(self, cell):
        """``(cpu seconds, signature)`` of one replay of ``cell``."""
        program, cfg = self.programs[cell]
        gc.collect()
        start = time.process_time()
        results = self.trace.replay_program(program, cfg, scheme=cell[1])
        seconds = time.process_time() - start
        return seconds, (sum(r.cycles for r in results),
                         sum(r.warp_instructions for r in results),
                         sum(r.l1_stats.misses for r in results),
                         sum(r.dram_accesses for r in results))


def label(cell):
    workload, scheme, scale, device = cell
    if device == "gtx480":
        return f"{workload}/{scheme}@{scale} on gtx480"
    return f"{workload}/{scheme}@{scale}" + (f"x{device}SM" if device else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout timed as the parent")
    parser.add_argument("change", help="checkout timed as the change")
    parser.add_argument("--cells", choices=sorted(CELLS), default="narrow")
    parser.add_argument("--reps", type=int, default=6)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="ab_replay-") as scratch:
        sys.path.insert(0, str(Path(scratch) / "pkgs"))
        sides = [Side(name, checkout, scratch)
                 for name, checkout in zip(SIDES, (args.parent, args.change))]
        cells, refused = [], []
        for cell in CELLS[args.cells]:
            signatures = set()
            for side in sides:
                side.record(cell)
                signatures.add(side.replay(cell)[1])
            if len(signatures) == 1:
                cells.append(cell)
            else:
                refused.append(cell)
                print(f"refused {label(cell)}: the sides simulate it "
                      f"differently {sorted(signatures)}")
        if not cells:
            print("ab_replay: no cell simulates identically on both sides")
            return 1

        per_cell = {cell: [] for cell in cells}
        rep_ratios = []
        for rep in range(args.reps):
            total = dict.fromkeys(SIDES, 0.0)
            for index, cell in enumerate(cells):
                order = sides if (rep + index) % 2 == 0 else sides[::-1]
                seconds = {side.name: side.replay(cell)[0] for side in order}
                for name in SIDES:
                    total[name] += seconds[name]
                per_cell[cell].append(seconds["change"] / seconds["parent"])
            ratio = total["change"] / total["parent"]
            rep_ratios.append(ratio)
            print(f"rep {rep + 1}: parent {total['parent']:.3f} s, change "
                  f"{total['change']:.3f} s, change/parent {ratio:.3f}")

    wins = sum(ratio < 1.0 for ratio in rep_ratios)
    print(f"median change/parent {statistics.median(rep_ratios):.3f} over "
          f"{len(rep_ratios)} reps of {len(cells)} cells; the change won "
          f"{wins} of {len(rep_ratios)}")
    for cell, ratios in per_cell.items():
        print(f"  {label(cell):<32} {statistics.median(ratios):.3f}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
