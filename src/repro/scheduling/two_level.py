"""Two-level warp scheduler (Narasiman et al. [24]).

Warps are statically split into fetch groups; only one group is *active* at
a time and issues round-robin.  When no warp in the active group is ready
(typically because they all hit long-latency memory operations together),
the scheduler rotates to the next group.  Staggering groups this way
prevents all warps from stalling simultaneously.
"""

from __future__ import annotations

from typing import List

from ..simt.warp import Warp
from .base import WarpScheduler, rotate

#: Warps per fetch group, by dynamic id.
FETCH_GROUP_SIZE = 8


def _in_group(ready: List[Warp], warp: Warp) -> List[Warp]:
    """The candidates in ``warp``'s fetch group (still ascending)."""
    group = warp.dynamic_id // FETCH_GROUP_SIZE
    return [w for w in ready if w.dynamic_id // FETCH_GROUP_SIZE == group]


class TwoLevelScheduler(WarpScheduler):
    name = "two_level"
    DESCRIPTION = "two-level fetch groups: round-robin inside one active group"

    def select(self, ready: List[Warp], now: float) -> Warp:
        # The active group is the last issued warp's; when none of it is
        # ready, rotate to the group owning the oldest ready warp.
        last = self.last
        in_active = _in_group(ready, last) if last is not None else None
        return rotate(in_active or _in_group(ready, ready[0]), last)
