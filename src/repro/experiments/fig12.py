"""Figure 12 — the critical warp's scheduling priority over time (bfs).

Under the criticality-oblivious RR baseline the eventual critical warp sits
at an arbitrary, roughly uniform priority; under gCAWS its CPL rank climbs
so the scheduler serves it more often.  We trace the CPL criticality rank
of each block's eventually-critical warp at every refresh of its block's
verdicts (every ``cpl_update_period`` = 64 issues of the block) for both
schemes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..obs.events import Ev
from ..stats.disparity import critical_warp_of
from .runner import cell_report

_EV_CPL_VERDICT = int(Ev.CPL_VERDICT)


class PriorityTrace:
    """Bus collector recording per-warp CPL ranks at each verdict refresh.

    A warp's rank is how many of its block's unfinished peers have a lower
    criticality (0 = least critical).
    """

    def __init__(self) -> None:
        #: (sm, block) -> list of (cycle, {warp_id: rank})
        self.samples: Dict[Tuple[int, int], List] = {}

    def append(self, ev: tuple) -> None:
        if ev[0] != _EV_CPL_VERDICT:
            return
        warps = ev[4]
        snapshot = {
            warp: sum(1 for _, peer, _ in warps if peer < criticality)
            for warp, criticality, _ in warps
        }
        self.samples.setdefault((ev[2], ev[3]), []).append((ev[1], snapshot))

    def report(self, result) -> List[List]:
        """The cell's Fig 12 trace: ``[cycle, rank]`` of the eventually-
        critical warp of the first multi-warp block of ``result`` that has
        samples."""
        for block in result.blocks:
            if block.num_warps < 2:
                continue
            critical = critical_warp_of(block).warp_id_in_block
            for key, block_samples in self.samples.items():
                if key[1] != block.block_id:
                    continue
                points = [[cycle, snapshot[critical]] for cycle, snapshot
                          in block_samples if critical in snapshot]
                if points:
                    return points
                break
        return []


def run(scale: float = 1.0, config=None, workload: str = "bfs") -> Dict[str, List]:
    return {scheme: cell_report(workload, scheme, scale, config, PriorityTrace)
            for scheme in ("rr", "gcaws")}


def render(data: Dict[str, List]) -> str:
    lines = ["Figure 12: critical warp's CPL priority rank over time (bfs)"]
    for scheme, trace in data.items():
        if not trace:
            lines.append(f"{scheme}: no samples")
            continue
        ranks = [rank for _, rank in trace]
        mean = sum(ranks) / len(ranks)
        top_share = sum(1 for r in ranks if r >= max(ranks) * 0.75) / len(ranks)
        lines.append(
            f"{scheme:<6} samples={len(ranks):<4} mean rank={mean:5.2f} "
            f"time in top-quartile priority={top_share:.0%}"
        )
        spark = "".join(str(min(9, r)) for _, r in trace[:72])
        lines.append(f"       rank trace: {spark}")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
