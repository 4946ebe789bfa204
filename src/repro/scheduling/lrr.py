"""Loose round-robin scheduler — the paper's baseline RR policy.

Warps take fair turns: after warp *i* issues, the search for the next ready
warp starts at *i+1* (wrapping).  Criticality-oblivious by construction;
Figure 4 of the paper measures the extra wait it imposes on critical warps.
"""

from __future__ import annotations

from typing import List, Optional

from ..simt.warp import Warp
from .base import WarpScheduler


class LRRScheduler(WarpScheduler):
    name = "lrr"
    DESCRIPTION = "loose round-robin: fair turns, criticality-oblivious baseline"

    def __init__(self) -> None:
        self._last_id: int = -1

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        # Rotate: the ready warp with the smallest id strictly greater than
        # the last issued id; wrap to the smallest id if none.  ``ready``
        # is in ascending id order.
        last_id = self._last_id
        for warp in ready:
            if warp.dynamic_id > last_id:
                return warp
        return ready[0]

    def notify_issue(self, warp: Warp, now: float) -> None:
        self._last_id = warp.dynamic_id
