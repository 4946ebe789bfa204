"""Loose round-robin scheduler — the paper's baseline RR policy.

Warps take fair turns: after warp *i* issues, the search for the next ready
warp starts at *i+1* (wrapping).  Criticality-oblivious by construction;
Figure 4 of the paper measures the extra wait it imposes on critical warps.
"""

from __future__ import annotations

from typing import List

from ..simt.warp import Warp
from .base import WarpScheduler


class LRRScheduler(WarpScheduler):
    name = "lrr"
    DESCRIPTION = "loose round-robin: fair turns, criticality-oblivious baseline"

    def select(self, ready: List[Warp], now: float) -> Warp:
        # base.rotate, inlined: this select runs once per issue.
        last = self.last
        if last is not None:
            last_id = last.dynamic_id
            for warp in ready:
                if warp.dynamic_id > last_id:
                    return warp
        return ready[0]
