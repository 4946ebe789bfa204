"""Cache replacement: the policy interface, LRU, and SRRIP's victim search.

Policies own the per-line recency/RRPV state and the fill-way choice within
a set.  A scheme picks one of two L1D policies: :class:`LRUPolicy` (the
GPGPU-sim baseline, also the L2's) or CACP (the paper's contribution,
:mod:`repro.core.cacp`), which builds its SHiP-guided SRRIP insertion and
criticality partitioning on :func:`srrip_victim` and the RRPV constants.
"""

from __future__ import annotations

from typing import List

from .request import MemRequest

#: 2-bit re-reference prediction values (RRIP [12]).
RRPV_MAX = 3
RRPV_LONG = 2
RRPV_NEAR = 0


def first_invalid(lines: List, lo: int, hi: int) -> int:
    """The first invalid way in ``[lo, hi)``, or -1."""
    for way in range(lo, hi):
        if not lines[way].valid:
            return way
    return -1


def srrip_victim(lines: List, lo: int, hi: int) -> int:
    """SRRIP's victim in ways ``[lo, hi)``: the first way at ``RRPV_MAX``,
    after aging the range until one is there — one step of ``RRPV_MAX -
    max`` (no RRPV is ever above ``RRPV_MAX``), then the first way at the
    old maximum."""
    for way in range(lo, hi):
        if lines[way].rrpv >= RRPV_MAX:
            return way
    window = lines[lo:hi]
    rrpvs = [line.rrpv for line in window]
    top = max(rrpvs)
    step = RRPV_MAX - top
    for line in window:
        line.rrpv += step
    return lo + rrpvs.index(top)


class ReplacementPolicy:
    """Interface: pick fill ways, maintain per-line promotion state."""

    name = "base"
    #: Ways ``[0, critical_ways)`` are the critical partition: a fill into
    #: one of them is marked ``in_critical_partition``.  Only CACP has one.
    critical_ways = 0

    def choose_way(self, lines: List, req: MemRequest, full: bool) -> int:
        """The way of ``lines`` (one set) to fill for ``req``: an invalid
        way if there is one, else the policy's victim.  ``full`` is the
        cache's promise that the set has no invalid way, so the scan for
        one is skipped."""
        raise NotImplementedError

    def on_fill(self, line, req: MemRequest) -> None:
        """Initialize policy state for a just-filled line."""

    def on_hit(self, line, req: MemRequest) -> None:
        """Promote a line on a hit."""

    def on_evict(self, line, req: MemRequest) -> None:
        """Learn from an eviction (CACP).  A cache does not call a
        policy that keeps this no-op."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used via a monotone access stamp."""

    name = "lru"

    def __init__(self) -> None:
        self._clock = 0

    def choose_way(self, lines: List, req: MemRequest, full: bool) -> int:
        if not full:
            way = first_invalid(lines, 0, len(lines))
            if way >= 0:
                return way
        # First minimum: ties go to the lowest way.
        victim = 0
        oldest = lines[0].last_use
        for way in range(1, len(lines)):
            last_use = lines[way].last_use
            if last_use < oldest:
                victim, oldest = way, last_use
        return victim

    def on_fill(self, line, req: MemRequest) -> None:
        self._clock = line.last_use = self._clock + 1

    def on_hit(self, line, req: MemRequest) -> None:
        self._clock = line.last_use = self._clock + 1
