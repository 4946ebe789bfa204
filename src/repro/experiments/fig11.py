"""Figure 11 — CPL warp-criticality prediction accuracy.

Accuracy is the frequency at which the block's true critical warp (slowest
by measured execution time) was flagged as a slow warp by CPL's periodic
verdicts.  The paper reports an average of 73%, with needle at 100%
because its blocks hold only one or two warps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..stats.accuracy import CriticalityAccuracyTracker
from ..stats.report import format_table
from ..workloads import SENS_WORKLOADS
from .runner import cell_report


def run(
    scale: float = 1.0,
    config=None,
    workloads: Optional[List[str]] = None,
) -> Dict[str, float]:
    return {name: cell_report(name, "cawa", scale, config,
                              CriticalityAccuracyTracker)
            for name in workloads or SENS_WORKLOADS}


def render(data: Dict[str, float]) -> str:
    rows = [[name, f"{acc:.1%}"] for name, acc in data.items()]
    average = sum(data.values()) / len(data) if data else 0.0
    rows.append(["average", f"{average:.1%}"])
    return "Figure 11: CPL criticality prediction accuracy\n" + format_table(
        ["benchmark", "accuracy"], rows
    )


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
