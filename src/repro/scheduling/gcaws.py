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


class GCAWSScheduler(WarpScheduler):
    """greedy Criticality-Aware Warp Scheduler (paper Section 3.2).

    Ranks ready warps by their CPL criticality counters (log-ratio
    buckets, gated to the block's tail phase), breaks ties oldest-first
    like GTO, and greedily retains the selected warp while it stays ready.
    """

    name = "gcaws"
    DESCRIPTION = "CAWA's online CPL criticality priority + GTO greedy slice"

    def __init__(self, greedy: bool = True, ratio: float = 2.0) -> None:
        #: Disabling ``greedy`` yields the pure criticality-priority ablation
        #: (criticality order, no extended time slice).
        self.greedy = greedy
        #: Criticality counters are compared as logarithmic buckets of base
        #: ``ratio`` (a hardware implementation compares the counters'
        #: leading-bit position).  A warp only outranks its peers when its
        #: counter is *proportionally* larger — the genuine tail-warp case —
        #: so near-equal warps fall through to the oldest-first tie-break
        #: and gCAWS keeps GTO's working-set concentration.
        self.ratio = ratio
        self._log_ratio = math.log(ratio)
        self._greedy_target: Optional[Warp] = None

    def _bucket(self, warp: Warp) -> int:
        # Criticality only outranks age once the warp's block is in its
        # tail phase (at least half the warps already finished).  Early in
        # a block every warp still has bulk work and the best schedule is
        # GTO-style concentration; at the tail, the laggards' remaining
        # latency is exactly the block's commit delay, so they get boosted.
        block = warp.block
        if block.live_warps > max(1, block.num_warps // 2):
            return 0
        criticality = warp.criticality
        if criticality < 1.0:
            return 0
        return int(math.log(criticality) / self._log_ratio) + 1

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        if self.greedy and self._greedy_target is not None and self._greedy_target in ready:
            return self._greedy_target
        # Highest criticality bucket first; oldest (smallest dynamic id)
        # breaks ties, mirroring GTO: in dispatch order that is the first
        # warp of the best bucket.
        best = None
        best_bucket = -1  # buckets are >= 0
        for warp in ready:
            bucket = self._bucket(warp)
            if bucket > best_bucket:
                best, best_bucket = warp, bucket
        return best

    def notify_issue(self, warp: Warp, now: float) -> None:
        if self.greedy:
            self._greedy_target = warp

    def notify_warp_finished(self, warp: Warp) -> None:
        if self._greedy_target is warp:
            self._greedy_target = None
