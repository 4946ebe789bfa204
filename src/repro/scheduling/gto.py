"""Greedy-then-oldest scheduler (Rogers et al. [34]).

Keeps issuing from one warp until it stalls, then falls back to the oldest
ready warp.  The greedy phase shrinks the active working set, which is why
GTO alleviates L1 thrashing for streaming workloads (Section 5.1).
"""

from __future__ import annotations

from typing import List, Optional

from ..simt.warp import Warp
from .base import WarpScheduler


class GTOScheduler(WarpScheduler):
    name = "gto"
    DESCRIPTION = "greedy-then-oldest: issue one warp until it stalls, then oldest"

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        last = self.last
        return last if last in ready else ready[0]  # oldest: dispatch order
