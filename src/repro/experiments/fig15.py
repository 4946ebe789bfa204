"""Figure 15 — critical-warp cache lines evicted with zero reuse.

In the baseline, 44.3% of lines brought in by (or for) critical warps are
evicted before any reuse, due to interference from non-critical blocks;
CAWA's explicit prioritization cuts that fraction down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..stats.report import format_table
from ..workloads import SENS_WORKLOADS
from .runner import Cell

SCHEMES = ["rr", "cawa"]


def cells(workloads: Optional[List[str]] = None) -> List[Cell]:
    return [(name, scheme) for name in workloads or SENS_WORKLOADS
            for scheme in SCHEMES]


def reduce(results) -> Dict[Tuple[str, str], float]:
    return {cell: result.l1_stats.critical_zero_reuse_fraction
            for cell, result in results.items()}


def render(data: Dict[Tuple[str, str], float]) -> str:
    names = sorted({name for name, _ in data}, key=SENS_WORKLOADS.index)
    rows = [
        [name] + [f"{data[(name, s)]:.1%}" for s in SCHEMES]
        for name in names
    ]
    means = [sum(data[(n, s)] for n in names) / len(names) for s in SCHEMES]
    rows.append(["mean"] + [f"{m:.1%}" for m in means])
    return (
        "Figure 15: critical-warp lines evicted with zero reuse\n"
        + format_table(["benchmark", "baseline RR", "CAWA"], rows)
    )
