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

from typing import Dict, List, Optional, Tuple

from ..feedback.signals import LEVEL_L1D, Sig
from ..simt.warp import Warp
from .base import WarpScheduler

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

    def __init__(self) -> None:
        self._warps: Dict[Tuple[int, int], _Interference] = {}
        self._greedy_target: Optional[Warp] = None

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
        entry = self._warps.get(evictor_key)
        if entry is None:
            return  # other slot's warp — its own scheduler instance scores it
        entry.bump(BUMP_REUSED if record[7] else BUMP_UNUSED, record[1])

    # -- lifecycle ---------------------------------------------------------

    def notify_warp_added(self, warp: Warp) -> None:
        self._warps[(warp.block.block_id, warp.warp_id_in_block)] = _Interference(warp)

    def notify_warp_finished(self, warp: Warp) -> None:
        self._warps.pop((warp.block.block_id, warp.warp_id_in_block), None)
        if self._greedy_target is warp:
            self._greedy_target = None

    # -- selection ---------------------------------------------------------

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        pool = []
        for warp in ready:
            entry = self._warps.get((warp.block.block_id, warp.warp_id_in_block))
            if entry is None or not entry.is_throttled(now):
                pool.append(warp)
        if not pool:
            # Every ready warp is benched (so each has an entry): let the
            # least-interfering one issue anyway so the SM always makes
            # progress — oldest on ties, i.e. the first minimum.
            return min(
                ready,
                key=lambda w: self._warps[(w.block.block_id, w.warp_id_in_block)].score,
            )
        if self._greedy_target is not None and self._greedy_target in pool:
            return self._greedy_target
        return pool[0]  # oldest: ``pool`` was filtered in dispatch order

    def notify_issue(self, warp: Warp, now: float) -> None:
        self._greedy_target = warp
