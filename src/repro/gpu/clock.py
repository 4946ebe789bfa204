"""The time-skipping device clock (``GPUConfig.clock='skip'``, the default).

The per-cycle reference loop (``clock='cycle'``) ticks *every* SM at every
cycle on which *any* SM can issue, and only jumps the clock when the whole
device is stalled.  On memory-bound workloads most of those ticks are
no-ops: a handful of warps issue while every other SM sits scoreboard- or
MSHR-blocked, yet each one still pays a Python call per cycle.

The skip clock inverts the loop.  A :class:`DeviceEventHeap` holds one
entry per event source (in practice: one per SM — see below), carrying the
earliest cycle at which that source can next *act*.  The run loop pops the
heap minimum, ticks exactly the due SMs (in ``sm_id`` order, preserving the
serial loop's shared-L2/DRAM access order), reschedules them at their
post-tick wake time, and jumps the clock straight to the next heap minimum.
Cycles on which no SM can issue are never visited at all.

Why SM wake times are a *sufficient* event set
----------------------------------------------

Every completion time in this simulator is known the moment an instruction
issues (scoreboard writes, MSHR fills, LSU walks).  A non-due SM therefore
cannot change state: its warps' readiness tuples are frozen until its own
next issue, its MSHR drains on a precomputed schedule, and barrier releases
/ block commits only happen *during* one of its own issues.  Shared L2 bank
frees and DRAM channel frees (exposed as ``next_event_time`` on those
components for diagnostics) influence the *latency* of future accesses, not
issue *eligibility* — so they are always dominated by some SM wake and need
no heap entries of their own.  CAWA's quantum edges (Algorithm 2 priority
recomputes, CACP retune epochs) are issue-indexed rather than cycle-indexed
in this codebase, so they too advance only at issue events.  The only
cross-SM waker is block dispatch after a commit, which the run loop handles
by refreshing every SM's heap entry at the dispatch boundary.

Wake times may *under*-estimate (an MSHR-reserve-gated warp can look ready
one entry early; a scheduler may decline a non-empty ready set): the due SM
then ticks without issuing, exactly as the per-cycle loop would have, and
is rescheduled one cycle later.  They must never *over*-estimate — that
invariant is what the cycle-vs-skip parity grid
(``tests/test_skip_clock_parity.py``) enforces bit-identically.
"""

from __future__ import annotations

import heapq
import math
from typing import List


class DeviceEventHeap:
    """Min-heap of next-possible-event times, one slot per event source.

    Each source (SM) has at most one *live* entry; rescheduling a source
    replaces its previous entry via sequence-number lazy invalidation, so
    duplicate times and out-of-date pushes are handled without heap
    surgery.  Times are absolute device cycles (floats, like the rest of
    the timing model); ``math.inf`` parks a source until it is explicitly
    rescheduled (e.g. by a block dispatch).
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self, num_sources: int) -> None:
        self._heap: list = []  # (time, source, seq)
        self._seq: List[int] = [0] * num_sources

    # ------------------------------------------------------------------
    def schedule(self, source: int, time: float) -> None:
        """Set ``source``'s next event time, replacing any previous one.

        ``math.inf`` parks the source (no heap entry).  Past times are
        accepted as-is — the run loop clamps to ``now + 1`` where a
        re-tick is what's meant; unit tests exercise raw past pushes.
        """
        seq = self._seq[source] + 1
        self._seq[source] = seq
        if time != math.inf:
            heapq.heappush(self._heap, (time, source, seq))

    # ------------------------------------------------------------------
    def _skim(self) -> None:
        """Drop stale (superseded) entries off the top of the heap."""
        heap = self._heap
        while heap:
            time, source, seq = heap[0]
            if seq == self._seq[source]:
                return
            heapq.heappop(heap)

    def next_time(self) -> float:
        """Earliest live event time across all sources (inf when empty)."""
        self._skim()
        return self._heap[0][0] if self._heap else math.inf

    def pop_due(self, now: float) -> List[int]:
        """Pop every source whose live event time is ``<= now``.

        Returns the due sources in ascending id order — the serial tick
        order the shared-memory timing model requires.  Popped sources are
        parked until rescheduled.
        """
        due: List[int] = []
        heap = self._heap
        while heap:
            time, source, seq = heap[0]
            if seq != self._seq[source]:
                heapq.heappop(heap)
                continue
            if time > now:
                break
            heapq.heappop(heap)
            due.append(source)
        if len(due) > 1:
            due.sort()
        return due
