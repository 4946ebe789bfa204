"""Figure 14 — L1D hit rate of critical-warp requests, normalized to RR.

CACP's explicit prioritization lifts the critical warps' hit rate by 2.46x
on average (7.22x for kmeans) in the paper, while criticality-oblivious
schedulers improve it less consistently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..stats.report import format_table
from ..workloads import SENS_WORKLOADS
from . import fig09
from .runner import Cell

SCHEMES = ["two_level", "gto", "cawa"]


def cells(workloads: Optional[List[str]] = None) -> List[Cell]:
    return fig09.cells(workloads or SENS_WORKLOADS, SCHEMES)


def reduce(results) -> Dict[Tuple[str, str], float]:
    return {(name, scheme): result.critical_hit_rate
            / (results[(name, "rr")].critical_hit_rate or 1e-9)
            for (name, scheme), result in results.items() if scheme != "rr"}


def render(data: Dict[Tuple[str, str], float]) -> str:
    names = sorted({name for name, _ in data}, key=SENS_WORKLOADS.index)
    rows = [
        [name] + [f"{data[(name, s)]:.2f}x" for s in SCHEMES]
        for name in names
    ]
    means = [sum(data[(n, s)] for n in names) / len(names) for s in SCHEMES]
    rows.append(["mean"] + [f"{m:.2f}x" for m in means])
    return (
        "Figure 14: critical-warp L1D hit rate normalized to baseline RR\n"
        + format_table(["benchmark"] + SCHEMES, rows)
    )
