"""Figure 4 — stall cycles the warp scheduler adds to the critical warp.

Criticality-oblivious schedulers make a ready critical warp wait for its
turn; the paper measures the additional wait the baseline RR imposes at up
to 52.4% of the critical warp's time.  We report, per scheduler, the mean
scheduler-induced-wait share of each block's critical warp.
"""

from __future__ import annotations

from typing import Dict, List

from ..stats.disparity import critical_warp_of, scheduler_stall_share
from ..stats.report import format_table
from .runner import Cell

SCHEDULERS = ["rr", "two_level", "gto", "gcaws"]


def cells(workload: str = "bfs") -> List[Cell]:
    return [(workload, scheme) for scheme in SCHEDULERS]


def reduce(results) -> Dict[str, float]:
    data = {}
    for (_, scheme), result in results.items():
        shares = [
            scheduler_stall_share(critical_warp_of(block))
            for block in result.blocks
            if block.num_warps > 1
        ]
        data[scheme] = sum(shares) / len(shares) if shares else 0.0
    return data


def render(data: Dict[str, float]) -> str:
    rows = [[scheme, f"{share:.1%}"] for scheme, share in data.items()]
    return (
        "Figure 4: scheduler-induced wait share of the critical warp (bfs)\n"
        + format_table(["scheduler", "critical-warp wait share"], rows)
    )
