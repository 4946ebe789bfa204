"""Figure 1 — warp execution time disparity across GPGPU applications.

The paper reports, per application, the *highest* per-thread-block gap
between the slowest and fastest warp (as a fraction of the slowest warp's
time), averaging 45% across applications and peaking at ~70% for srad_1.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..stats.disparity import max_block_disparity
from ..stats.report import format_table
from ..workloads import NON_SENS_WORKLOADS, SENS_WORKLOADS
from .runner import Cell


def cells(workloads: Optional[List[str]] = None) -> List[Cell]:
    return [(name, "rr")
            for name in workloads or (SENS_WORKLOADS + NON_SENS_WORKLOADS)]


def reduce(results) -> Dict[str, float]:
    """Max per-block warp execution-time disparity under the baseline RR."""
    return {name: max_block_disparity(result)
            for (name, _), result in results.items()}


def render(data: Dict[str, float]) -> str:
    rows = [[name, f"{value:.1%}"] for name, value in data.items()]
    average = sum(data.values()) / len(data) if data else 0.0
    rows.append(["average", f"{average:.1%}"])
    return "Figure 1: max warp execution time disparity (baseline RR)\n" + format_table(
        ["benchmark", "disparity"], rows
    )
