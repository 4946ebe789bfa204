"""Figure 13 — oracle CAWS vs. gCAWS vs. full CAWA.

Oracle CAWS (offline per-warp execution times) wins on small kernels where
CPL's online training overhead is relatively large (bfs, b+tree, needle);
gCAWS/CAWA win on large kernels (heartwall, srad_1) and on kmeans, where
the greedy scheme's active-warp limiting beats the oracle's pure
criticality order.  CAWA adds about 5% over gCAWS from cache
prioritization, with slight regressions on b+tree and strcltr_small.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..stats.report import format_table
from ..workloads import SENS_WORKLOADS
from . import fig09
from .runner import Cell

SCHEMES = ["caws", "gcaws", "cawa"]


def cells(workloads: Optional[List[str]] = None) -> List[Cell]:
    return fig09.cells(workloads or SENS_WORKLOADS, SCHEMES)


#: Speedup over RR, as in Figure 9.
reduce = fig09.reduce


def render(data: Dict[Tuple[str, str], float]) -> str:
    names = sorted({name for name, _ in data}, key=SENS_WORKLOADS.index)
    rows = [
        [name] + [f"{data[(name, s)]:.2f}x" for s in SCHEMES]
        for name in names
    ]
    means = [
        sum(data[(n, s)] for n in names) / len(names) for s in SCHEMES
    ]
    rows.append(["mean"] + [f"{m:.2f}x" for m in means])
    return (
        "Figure 13: oracle CAWS vs gCAWS vs CAWA (speedup over RR)\n"
        + format_table(["benchmark"] + SCHEMES, rows)
    )
