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

    def __init__(self) -> None:
        self._greedy_target: Optional[Warp] = None

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        if self._greedy_target is not None and self._greedy_target in ready:
            return self._greedy_target
        return ready[0]  # oldest: candidates arrive in dispatch order

    def notify_issue(self, warp: Warp, now: float) -> None:
        self._greedy_target = warp

    def notify_warp_finished(self, warp: Warp) -> None:
        if self._greedy_target is warp:
            self._greedy_target = None
