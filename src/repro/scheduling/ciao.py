"""CIAO: cache interference-aware warp scheduling and throttling.

The FeedbackChannel's EVICT signals carry both the victim's and the
evictor's warp identity, which makes cross-warp L1 interference directly
observable: warp A evicting warp B's line is interference, and evicting a
line B had already reused is worse (demonstrated locality destroyed).
CIAO accumulates a lazily-decaying interference score per warp and
throttles the heavy interferers with hysteresis — a warp is benched when
its score crosses the high-water mark and released only after decaying
below the low-water mark, preventing throttle flapping.  Non-throttled
warps issue greedy-then-oldest; if every ready warp is throttled the
least-interfering one issues anyway, so the scheme can never deadlock.
"""

from __future__ import annotations

from typing import List, Optional

from ..feedback.signals import LEVEL_L1D, Sig
from ..simt.warp import Warp
from .base import WarpScheduler, warp_key

#: Interference points: evicting a reused line destroys proven locality.
BUMP_REUSED = 2.0
BUMP_UNUSED = 1.0
#: Cycles for one interference point to decay.
DECAY_PERIOD = 64.0
#: Hysteresis thresholds: throttle at >= HI, release at <= LO.
SCORE_HI = 8.0
SCORE_LO = 2.0

_EVICT = int(Sig.EVICT)


class _Interference:
    """Lazily-decayed interference score + hysteresis throttle latch."""

    __slots__ = ("warp", "score", "stamp", "throttled")

    def __init__(self, warp: Warp) -> None:
        self.warp = warp
        self.score = 0.0
        self.stamp = 0.0
        self.throttled = False

    def _decay_to(self, cycle: float) -> None:
        if cycle > self.stamp:
            self.score = max(0.0, self.score - (cycle - self.stamp) / DECAY_PERIOD)
            self.stamp = cycle

    def bump(self, amount: float, cycle: float) -> None:
        self._decay_to(cycle)
        self.score += amount

    def is_throttled(self, now: float) -> bool:
        self._decay_to(now)
        if self.throttled:
            if self.score <= SCORE_LO:
                self.throttled = False
        elif self.score >= SCORE_HI:
            self.throttled = True
        return self.throttled


class CIAOScheduler(WarpScheduler):
    name = "ciao"
    DESCRIPTION = (
        "cache interference detection via cross-warp eviction feedback + "
        "hysteresis throttling of heavy interferers"
    )
    FEEDBACK_KINDS = (_EVICT,)
    TRACK = _Interference

    # -- feedback ----------------------------------------------------------

    def on_signal(self, record: tuple) -> None:
        # (kind, cycle, sm, level, victim_block, victim_warp, line_addr,
        #  reused, evictor_block, evictor_warp)
        if record[3] != LEVEL_L1D:
            return
        victim_key = (record[4], record[5])
        evictor_key = (record[8], record[9])
        if victim_key == evictor_key or victim_key[0] < 0 or evictor_key[0] < 0:
            return  # self-eviction or unattributed line: not interference
        entry = self.warps.get(evictor_key)
        if entry is None:
            return  # other slot's warp — its own scheduler instance scores it
        entry.bump(BUMP_REUSED if record[7] else BUMP_UNUSED, record[1])

    # -- selection ---------------------------------------------------------

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        warps = self.warps
        pool = []
        for warp in ready:
            entry = warps.get(warp_key(warp))
            if entry is None or not entry.is_throttled(now):
                pool.append(warp)
        if not pool:
            # Every ready warp is benched (so each has an entry): let the
            # least-interfering one issue anyway so the SM always makes
            # progress — oldest on ties, i.e. the first minimum.
            return min(ready, key=lambda w: warps[warp_key(w)].score)
        # Greedy, else the oldest: ``pool`` was filtered in dispatch order.
        return self.greedy(pool) or pool[0]
