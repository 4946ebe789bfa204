"""Two-level warp scheduler (Narasiman et al. [24]).

Warps are statically split into fetch groups; only one group is *active* at
a time and issues round-robin.  When no warp in the active group is ready
(typically because they all hit long-latency memory operations together),
the scheduler rotates to the next group.  Staggering groups this way
prevents all warps from stalling simultaneously.
"""

from __future__ import annotations

from typing import List, Optional

from ..simt.warp import Warp
from .base import WarpScheduler


class TwoLevelScheduler(WarpScheduler):
    name = "two_level"
    DESCRIPTION = "two-level fetch groups: round-robin inside one active group"

    def __init__(self, fetch_group_size: int = 8) -> None:
        if fetch_group_size <= 0:
            raise ValueError("fetch_group_size must be positive")
        self.fetch_group_size = fetch_group_size
        self._active_group = 0
        self._last_id = -1

    def _group_of(self, warp: Warp) -> int:
        return warp.dynamic_id // self.fetch_group_size

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        in_active = [w for w in ready if self._group_of(w) == self._active_group]
        if not in_active:
            # Rotate to the group owning the oldest ready warp.
            self._active_group = self._group_of(ready[0])
            in_active = [w for w in ready if self._group_of(w) == self._active_group]
        # Round-robin within the active group (filtered in order, so still
        # ascending): first id past the pointer, else wrap to the oldest.
        last_id = self._last_id
        for warp in in_active:
            if warp.dynamic_id > last_id:
                return warp
        return in_active[0]

    def notify_issue(self, warp: Warp, now: float) -> None:
        self._last_id = warp.dynamic_id
        self._active_group = self._group_of(warp)
