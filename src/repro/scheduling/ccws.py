"""CCWS: cache-conscious wavefront scheduling (Rogers et al., MICRO 2012).

Each warp owns a small Victim Tag Array (VTA) remembering the line tags
it recently lost from the L1.  When a warp misses on a line still in its
VTA, the miss is *lost locality* — the line would have hit had the warp's
working set stayed resident — and the warp's Lost-Locality Score (LLS)
jumps.  The scheduler sorts warps by LLS and walks the list accumulating
scores until the running sum reaches a cutoff proportional to the number
of live warps; only the warps inside that prefix may issue.  A warp with
heavy lost locality therefore shrinks the active warp set around itself,
protecting its working set, while scores decay back toward the baseline
so throttling releases once locality is re-established.

This implementation is a pure consumer of its SM's L1 records
(:mod:`repro.feedback`): ``CACHE_EVICT`` feeds the VTAs and
``CACHE_MISS`` is the probe point; the scheduler never touches the
cache.  Scores use only integer arithmetic scaled by ``DECAY_PERIOD``
division of integer cycle deltas, so the arithmetic is bit-deterministic.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..obs.events import Ev
from ..simt.warp import Warp, WarpStatus
from .base import WarpScheduler, rotate, warp_key

#: Every live warp's floor score; the cutoff is BASE_SCORE x live warps,
#: so with no lost locality anywhere the prefix covers all warps and CCWS
#: degenerates to plain round-robin.
BASE_SCORE = 100
#: LLS bump on a VTA hit (a detected lost-locality miss).
VTA_BUMP = 128
#: Cycles for one point of LLS bonus to decay.
DECAY_PERIOD = 8.0
#: Victim Tag Array entries per warp (LRU replacement).
VTA_ENTRIES = 8

_EVICT = int(Ev.CACHE_EVICT)
_MISS = int(Ev.CACHE_MISS)


class _WarpLocality:
    """Per-warp VTA + lazily-decayed lost-locality bonus."""

    __slots__ = ("warp", "vta", "bonus", "stamp")

    def __init__(self, warp: Warp) -> None:
        self.warp = warp
        self.vta: List[int] = []  # LRU order, most recent last
        self.bonus = 0.0
        self.stamp = 0.0

    def _decay_to(self, cycle: float) -> None:
        if cycle > self.stamp:
            self.bonus = max(0.0, self.bonus - (cycle - self.stamp) / DECAY_PERIOD)
            self.stamp = cycle

    def record_victim(self, tag: int) -> None:
        try:
            self.vta.remove(tag)
        except ValueError:
            if len(self.vta) >= VTA_ENTRIES:
                self.vta.pop(0)
        self.vta.append(tag)

    def probe(self, tag: int, cycle: float) -> None:
        """On an L1 miss: a VTA hit is lost locality — bump the score."""
        try:
            self.vta.remove(tag)
        except ValueError:
            return
        self._decay_to(cycle)
        self.bonus += VTA_BUMP

    def score(self, now: float) -> float:
        pending = self.bonus
        if now > self.stamp:
            pending = max(0.0, pending - (now - self.stamp) / DECAY_PERIOD)
        return BASE_SCORE + pending


class CCWSScheduler(WarpScheduler):
    name = "ccws"
    DESCRIPTION = (
        "per-warp victim tag arrays + lost-locality score cutoff "
        "throttling (Rogers MICRO'12)"
    )
    FEEDBACK_KINDS = (_EVICT, _MISS)
    TRACK = _WarpLocality

    # -- feedback ----------------------------------------------------------

    def on_signal(self, record: tuple) -> None:
        if record[0] == _EVICT:
            # (kind, cycle, sm, level, line_addr, reused, victim_block,
            #  victim_warp, evictor_block, evictor_warp)
            loc = self.warps.get((record[6], record[7]))
            if loc is not None:
                loc.record_victim(record[4])
        else:
            # (kind, cycle, sm, level, pc, line_addr, critical, block, warp)
            loc = self.warps.get((record[7], record[8]))
            if loc is not None:
                loc.probe(record[5], record[1])

    # -- selection ---------------------------------------------------------

    def _allowed(self, now: float) -> Optional[Set[Tuple[int, int]]]:
        """Keys of warps inside the LLS cutoff prefix (None = no throttle)."""
        live = [
            (key, loc.score(now), loc.warp.dynamic_id)
            for key, loc in self.warps.items()
            if loc.warp.status is WarpStatus.RUNNING
        ]
        if not live:
            return None
        cutoff = BASE_SCORE * len(live)
        live.sort(key=lambda item: (-item[1], item[2]))
        allowed: Set[Tuple[int, int]] = set()
        cum = 0.0
        for key, score, _ in live:
            allowed.add(key)
            cum += score
            if cum >= cutoff:
                break
        if len(allowed) == len(live):
            return None
        return allowed

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        allowed = self._allowed(now)
        if allowed is None:
            pool = ready
        else:
            pool = [w for w in ready if warp_key(w) in allowed]
            if not pool:
                # Decline the slot: the SM re-ticks next cycle.  Liveness:
                # the prefix always contains the top-score RUNNING warps,
                # which eventually become ready or finish, and warps at a
                # barrier leave the live set so throttled peers re-enter.
                return None
        # Round-robin over the allowed warps (filtered in order, so still
        # ascending).
        return rotate(pool, self.last)
