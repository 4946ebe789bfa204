"""Figure 17 — IPC when CACP assists each warp scheduler.

The companion of Figure 16: adding CACP to RR, GTO, and the 2-level
scheduler gains 2%-16.5% IPC in the paper, with the fully coordinated CAWA
(gCAWS + CACP) performing best.
"""

from __future__ import annotations

from typing import Dict, Tuple

from . import fig16

cells = fig16.cells


def reduce(results) -> Dict[Tuple[str, str], float]:
    return {cell: result.ipc for cell, result in results.items()}


def cacp_gains(data: Dict[Tuple[str, str], float]) -> Dict[str, float]:
    """Mean IPC gain CACP adds to each scheduler."""
    names = sorted({name for name, _ in data})
    gains = {}
    for base_scheme, cacp_scheme in fig16.PAIRINGS:
        ratios = [
            data[(n, cacp_scheme)] / data[(n, base_scheme)]
            for n in names
            if data.get((n, base_scheme))
        ]
        if ratios:
            gains[base_scheme] = sum(ratios) / len(ratios) - 1.0
    return gains


def render(data: Dict[Tuple[str, str], float]) -> str:
    body = fig16.render(data, metric="ipc")
    lines = [body, "", "mean IPC gain from adding CACP:"]
    for scheduler, gain in cacp_gains(data).items():
        lines.append(f"  {scheduler:<10} {gain:+.1%}")
    return "\n".join(lines)
