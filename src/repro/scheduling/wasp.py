"""WaSP: warp scheduling with prefetch-mimicking priority.

A fixed subset of warps (one in four, by dispatch order) is designated as
*prefetcher* warps.  Prefetchers get priority so they run ahead of the
pack and warm the caches for the follower warps behind them — mimicking a
hardware prefetcher without issuing a single extra memory request.  The
run-ahead distance is bounded by a lead limit (in issued instructions) so
prefetched lines are not evicted again before the followers arrive.

The lead limit adapts to eviction feedback from the FeedbackChannel:
every window of evictions of prefetcher-filled L1 lines, the scheduler
checks how many were evicted *unreused* (the prefetch was wasted — the
line died before any follower touched it).  A mostly-wasted window means
the prefetchers are running too far ahead for the cache to hold their
output, so the limit halves; a mostly-useful window lets it creep back
up.
"""

from __future__ import annotations

from typing import List, Optional

from ..feedback.signals import LEVEL_L1D, Sig
from ..simt.warp import Warp, WarpStatus
from .base import WarpScheduler

#: Every PREFETCHER_STRIDE-th warp (by dynamic id) is a prefetcher.
PREFETCHER_STRIDE = 4
#: Lead-limit bounds and adaptation step (issued instructions).
MIN_LEAD = 8
MAX_LEAD = 64
LEAD_STEP = 8
#: Evictions of prefetcher-filled lines per adaptation window.
ADAPT_WINDOW = 32

_EVICT = int(Sig.EVICT)


def _is_prefetcher(warp: Warp) -> bool:
    return warp.dynamic_id % PREFETCHER_STRIDE == 0


class WaSPScheduler(WarpScheduler):
    name = "wasp"
    DESCRIPTION = (
        "prefetch-mimicking priority: designated warps run ahead within "
        "an eviction-feedback-adapted lead limit"
    )
    FEEDBACK_KINDS = (_EVICT,)

    def __init__(self) -> None:
        super().__init__()
        self._max_lead = MAX_LEAD
        self._window_evictions = 0
        self._window_wasted = 0

    # -- feedback ----------------------------------------------------------

    def on_signal(self, record: tuple) -> None:
        # (kind, cycle, sm, level, victim_block, victim_warp, line_addr,
        #  reused, evictor_block, evictor_warp)
        if record[3] != LEVEL_L1D:
            return
        victim = self.warps.get((record[4], record[5]))
        if victim is None or not _is_prefetcher(victim):
            return
        self._window_evictions += 1
        if not record[7]:
            self._window_wasted += 1
        if self._window_evictions >= ADAPT_WINDOW:
            if self._window_wasted * 2 > self._window_evictions:
                self._max_lead = max(MIN_LEAD, self._max_lead // 2)
            else:
                self._max_lead = min(MAX_LEAD, self._max_lead + LEAD_STEP)
            self._window_evictions = 0
            self._window_wasted = 0

    # -- selection ---------------------------------------------------------

    def _follower_floor(self) -> Optional[int]:
        """Fewest issued instructions among live follower warps."""
        floor: Optional[int] = None
        for warp in self.warps.values():
            if _is_prefetcher(warp) or warp.status is not WarpStatus.RUNNING:
                continue
            issued = warp.issued_instructions
            if floor is None or issued < floor:
                floor = issued
        return floor

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        floor = self._follower_floor()
        if floor is not None:
            limit = floor + self._max_lead
            for warp in ready:  # dispatch order: the first runner is the oldest
                if _is_prefetcher(warp) and warp.issued_instructions < limit:
                    return warp
        return self.greedy(ready) or ready[0]
