"""Figure 16 — L1D MPKI when CACP assists each warp scheduler.

CACP is scheduler-independent (it consumes CPL's criticality verdicts), so
the paper applies it under RR, GTO, and the 2-level scheduler and measures
the MPKI reduction in each pairing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..stats.report import format_table
from ..workloads import SENS_WORKLOADS
from .runner import Cell

PAIRINGS = [
    ("rr", "rr+cacp"),
    ("gto", "gto+cacp"),
    ("two_level", "two_level+cacp"),
    ("gcaws", "cawa"),
]


def cells(workloads: Optional[List[str]] = None) -> List[Cell]:
    """Every scheduler with and without CACP (Figure 17's cells too)."""
    return [(name, scheme) for name in workloads or SENS_WORKLOADS
            for pair in PAIRINGS for scheme in pair]


def reduce(results) -> Dict[Tuple[str, str], float]:
    return {cell: result.l1_mpki for cell, result in results.items()}


def render(data: Dict[Tuple[str, str], float], metric: str = "mpki") -> str:
    names = sorted({name for name, _ in data}, key=SENS_WORKLOADS.index)
    schemes: List[str] = []
    for pair in PAIRINGS:
        schemes.extend(pair)
    rows = [
        [name] + [f"{data[(name, s)]:.2f}" for s in schemes]
        for name in names
    ]
    title = "Figure 16: L1D MPKI" if metric == "mpki" else "Figure 17: IPC"
    return f"{title} with CACP under different schedulers\n" + format_table(
        ["benchmark"] + schemes, rows
    )
