"""Oracle criticality-aware warp scheduler (CAWS, Lee & Wu [20]).

CAWS prioritizes critical warps, but needs criticality knowledge it cannot
compute online — the paper calls it impractical for that reason and uses it
as the oracle upper bound in Figure 13.  The oracle table maps
``(block_id, warp_id_in_block)`` to the warp's measured execution time from
a profiling run (see :func:`repro.experiments.runner.build_oracle`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..simt.warp import Warp
from .base import WarpScheduler

OracleTable = Dict[Tuple[int, int], float]


class OracleCAWSScheduler(WarpScheduler):
    name = "caws"
    DESCRIPTION = "oracle criticality priority from profiled per-warp times"

    def __init__(self, oracle: Optional[OracleTable] = None) -> None:
        super().__init__()
        #: Measured per-warp execution times from a profiling run; larger
        #: means more critical.  Missing warps rank lowest.
        self.oracle: OracleTable = oracle or {}

    def _criticality(self, warp: Warp) -> float:
        return self.oracle.get((warp.block.block_id, warp.warp_id_in_block), 0.0)

    def select(self, ready: List[Warp], now: float) -> Warp:
        # Most critical first; the first maximum is the oldest on ties.
        return max(ready, key=self._criticality)
