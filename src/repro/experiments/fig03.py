"""Figure 3 — reuse-distance analysis for critical-warp cache lines in bfs.

The paper shows that over 60% of the cache blocks that would be reused by
slower-running (critical) warps are evicted before the re-reference, using
a 16KB 4-way/128B cache for the analysis.  We run the reuse-distance
profiler on bfs's L1 access stream and report, per criticality class, the
fraction of re-references whose stack distance exceeds that cache's line
capacity (so they would miss).  The profiler is a collector on the cell's
event bus; its report is cached (:func:`repro.experiments.runner.cell_report`).

The same profiler data reproduces Figure 8's per-PC reuse breakdown (the
memory instructions of the bfs kernel have very different reuse behaviour).
"""

from __future__ import annotations

from typing import Dict

from ..stats.report import format_table
from ..stats.reuse import ReuseDistanceProfiler
from .runner import cell_report


def run(scale: float = 1.0, config=None) -> Dict[str, object]:
    return cell_report("bfs", "rr", scale, config, ReuseDistanceProfiler)


def render(data: Dict[str, object]) -> str:
    lines = [
        "Figure 3: reuse distance of critical-warp lines in bfs",
        f"critical-warp re-references beyond 16KB/4-way capacity: "
        f"{data['critical_evicted_before_reuse']:.1%}",
        f"non-critical re-references beyond capacity:             "
        f"{data['noncritical_evicted_before_reuse']:.1%}",
        "",
        "Figure 8 companion: per-memory-instruction (PC) reuse behaviour",
    ]
    rows = [
        [f"PC-{pc}", stats["references"], stats["rereferences"],
         f"{stats['beyond_capacity']:.1%}"]
        for pc, stats in data["per_pc"].items()
    ]
    lines.append(format_table(["insertion PC", "refs", "reuses", "beyond cap"], rows))
    return "\n".join(lines)
