"""Figure 9 — overall performance of CAWA vs. baseline schedulers.

The paper's headline result: normalized IPC over the baseline RR scheduler
for the 2-level scheduler, GTO, and CAWA across all benchmarks.  CAWA
improves Sens applications by 23% on average (GTO 16%, 2-level -2%), with
kmeans speeding up 3.13x.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..stats.report import format_table
from ..workloads import NON_SENS_WORKLOADS, SENS_WORKLOADS
from .runner import Cell

SCHEMES = ["two_level", "gto", "cawa"]


def cells(workloads: Optional[List[str]] = None,
          schemes: Optional[List[str]] = None) -> List[Cell]:
    """Each workload under ``rr``, the baseline, then under ``schemes``."""
    return [(name, scheme)
            for name in workloads or (SENS_WORKLOADS + NON_SENS_WORKLOADS)
            for scheme in ["rr"] + (schemes or SCHEMES)]


def reduce(results) -> Dict[Tuple[str, str], float]:
    """Speedup over RR for every (workload, scheme) pair but the baseline's."""
    return {(name, scheme): result.speedup_over(results[(name, "rr")])
            for (name, scheme), result in results.items() if scheme != "rr"}


def summarize(data: Dict[Tuple[str, str], float]) -> Dict[Tuple[str, str], float]:
    """Mean speedups per scheme over Sens / Non-sens / all groups."""
    summary = {}
    groups = {
        "Sens": SENS_WORKLOADS,
        "Non-sens": NON_SENS_WORKLOADS,
        "all": SENS_WORKLOADS + NON_SENS_WORKLOADS,
    }
    schemes = sorted({scheme for _, scheme in data})
    for label, names in groups.items():
        for scheme in schemes:
            values = [data[(n, scheme)] for n in names if (n, scheme) in data]
            if values:
                summary[(label, scheme)] = sum(values) / len(values)
    return summary


def render(data: Dict[Tuple[str, str], float]) -> str:
    schemes = sorted({scheme for _, scheme in data})
    names = [n for n in SENS_WORKLOADS + NON_SENS_WORKLOADS
             if any((n, s) in data for s in schemes)]
    rows = [
        [name] + [f"{data[(name, s)]:.2f}x" for s in schemes if (name, s) in data]
        for name in names
    ]
    table = format_table(["benchmark"] + schemes, rows)
    summary = summarize(data)
    lines = ["Figure 9: IPC normalized to baseline RR", table, ""]
    for (label, scheme), value in summary.items():
        lines.append(f"{label:<9} {scheme:<10} mean speedup: {value:.2f}x "
                     f"({value - 1:+.1%})")
    return "\n".join(lines)
