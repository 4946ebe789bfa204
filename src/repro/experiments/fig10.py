"""Figure 10 — L1D cache MPKI under the 2-level, GTO, and CAWA schemes.

CAWA reduces miss rates the most overall (kmeans by 26.2% in the paper);
for a few applications (heartwall, strcltr_small) MPKI *increases* under
CAWA while IPC still improves, because CACP deliberately trades
better-locality blocks for latency-critical ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..stats.report import format_table
from ..workloads import NON_SENS_WORKLOADS, SENS_WORKLOADS
from .runner import Cell

SCHEMES = ["rr", "two_level", "gto", "cawa"]


def cells(workloads: Optional[List[str]] = None) -> List[Cell]:
    return [(name, scheme)
            for name in workloads or (SENS_WORKLOADS + NON_SENS_WORKLOADS)
            for scheme in SCHEMES]


def reduce(results) -> Dict[Tuple[str, str], float]:
    return {cell: result.l1_mpki for cell, result in results.items()}


def render(data: Dict[Tuple[str, str], float]) -> str:
    names = sorted({name for name, _ in data},
                   key=(SENS_WORKLOADS + NON_SENS_WORKLOADS).index)
    rows = [
        [name] + [f"{data[(name, s)]:.2f}" for s in SCHEMES]
        for name in names
    ]
    table = format_table(["benchmark"] + SCHEMES, rows)
    kmeans_delta = ""
    if ("kmeans", "rr") in data and ("kmeans", "cawa") in data:
        change = 1 - data[("kmeans", "cawa")] / data[("kmeans", "rr")]
        kmeans_delta = f"\nkmeans MPKI reduction under CAWA: {change:.1%}"
    return "Figure 10: L1D MPKI per scheduler\n" + table + kmeans_delta
