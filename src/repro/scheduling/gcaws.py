"""greedy Criticality-Aware Warp Scheduler — gCAWS (paper Section 3.2).

Combines CAWS's criticality priority with GTO's greedy time slice: at each
issue opportunity pick the ready warp with the highest CPL criticality
counter; on ties pick the oldest (GTO); then keep issuing from the selected
warp greedily until it can issue no further instruction.
"""

from __future__ import annotations

import math

from typing import List, Optional

from ..simt.warp import Warp
from .base import WarpScheduler

#: Criticality counters are compared as logarithmic buckets of this base (a
#: hardware implementation compares the counters' leading-bit position).  A
#: warp only outranks its peers when its counter is *proportionally* larger
#: — the genuine tail-warp case — so near-equal warps fall through to the
#: oldest-first tie-break and gCAWS keeps GTO's working-set concentration.
RATIO = 2.0
_LOG_RATIO = math.log(RATIO)
_log = math.log


class GCAWSScheduler(WarpScheduler):
    """greedy Criticality-Aware Warp Scheduler (paper Section 3.2).

    Ranks ready warps by their CPL criticality counters (log-ratio
    buckets, gated to the block's tail phase), breaks ties oldest-first
    like GTO, and greedily retains the selected warp while it stays ready.
    """

    name = "gcaws"
    DESCRIPTION = "CAWA's online CPL criticality priority + GTO greedy slice"

    def _bucket(self, warp: Warp) -> int:
        """``warp``'s rank, from scratch — the definition :meth:`select`
        computes inline.

        Criticality only outranks age once the warp's block is in its
        tail phase (at least half the warps already finished).  Early in
        a block every warp still has bulk work and the best schedule is
        GTO-style concentration; at the tail, the laggards' remaining
        latency is exactly the block's commit delay, so they get boosted.
        """
        block = warp.block
        if block.live_warps > max(1, block.num_warps // 2):
            return 0
        criticality = warp.criticality
        if criticality < 1.0:
            return 0
        return int(math.log(criticality) / _LOG_RATIO) + 1

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        last = self.last
        if last in ready:  # the greedy slice
            return last
        # Highest bucket first; the first maximum is the oldest on ties.
        # Bucket 0 unless the block is in its tail phase (its flag, kept
        # by the block) and the counter is at least 1.
        best = ready[0]
        top = 0
        for warp in ready:
            if warp.block.tail:
                criticality = warp.criticality
                if criticality >= 1.0:
                    bucket = int(_log(criticality) / _LOG_RATIO) + 1
                    if bucket > top:
                        best = warp
                        top = bucket
        return best
