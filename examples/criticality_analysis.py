#!/usr/bin/env python
"""Warp-criticality analysis of an irregular workload (paper Section 2).

Runs the bfs benchmark under the baseline scheduler and reproduces the
paper's motivation analysis on it: per-block warp execution-time
disparity (Figure 1/2), the stall breakdown of each block's critical warp
(Figures 2c and 4), and the criticality-prediction accuracy of CPL
(Figure 11).

Run:  python examples/criticality_analysis.py
"""

from repro import GPU, GPUConfig
from repro.obs import EventBus
from repro.stats.accuracy import CriticalityAccuracyTracker
from repro.stats.disparity import (
    block_disparity,
    critical_warp_of,
    memory_stall_share,
    scheduler_stall_share,
)
from repro.stats.report import format_table
from repro.workloads import make_workload


def main() -> None:
    # The tracker reads CPL's periodic verdicts off the event bus (its own
    # ring keeps a single record).
    tracker = CriticalityAccuracyTracker()
    bus = EventBus(capacity=1)
    bus.attach(tracker)
    gpu = GPU(GPUConfig.default_sim(), obs=bus)

    workload = make_workload("bfs", scale=0.5)
    result = workload.run(gpu, scheme="rr")

    rows = []
    for block in result.blocks:
        if block.num_warps < 2:
            continue
        critical = critical_warp_of(block)
        rows.append([
            block.block_id,
            f"{block_disparity(block):.1%}",
            f"{critical.execution_time:.0f}",
            f"{memory_stall_share(critical):.1%}",
            f"{scheduler_stall_share(critical):.1%}",
        ])
    print("Per-block warp criticality under the baseline RR scheduler (bfs):\n")
    print(format_table(
        ["block", "warp time disparity", "critical warp cycles",
         "mem-stall share", "sched-wait share"],
        rows,
    ))
    print(f"\nCPL would have identified the critical warp as a slow warp in "
          f"{tracker.report(result):.0%} of its periodic verdicts.")
    print("This is the execution-time gap CAWA attacks: see "
          "examples/scheduler_comparison.py for the fix.")


if __name__ == "__main__":
    main()
