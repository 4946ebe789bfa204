"""Reuse-distance (LRU stack distance) profiling — paper Figures 3 and 8.

An event-bus collector (:mod:`repro.obs`): it reads the L1 data caches'
probe records — ``CACHE_HIT`` / ``CACHE_MISS`` at level 0, which carry the
PC, line and the requester's criticality — and computes, per re-reference,
the number of distinct lines touched since the previous access to the same
line.
A re-reference whose stack distance exceeds the cache's line capacity would
miss in a fully-associative LRU cache of that size — the paper's "evicted
before re-reference" criterion for critical warp data.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List

from ..obs.events import Ev

_EV_CACHE_HIT = int(Ev.CACHE_HIT)
_EV_CACHE_MISS = int(Ev.CACHE_MISS)

#: Histogram bucket upper bounds (in distinct lines); the last bucket is
#: unbounded and "no reuse" is tracked separately.
BUCKETS = (8, 16, 32, 64, 128, 256, 512)


@dataclass
class ReuseProfile:
    """Reuse-distance histogram for one access class."""

    histogram: List[int] = field(default_factory=lambda: [0] * (len(BUCKETS) + 1))
    references: int = 0
    rereferences: int = 0

    def record(self, distance: int) -> None:
        self.rereferences += 1
        for i, bound in enumerate(BUCKETS):
            if distance < bound:
                self.histogram[i] += 1
                return
        self.histogram[-1] += 1

    def fraction_beyond(self, capacity_lines: int) -> float:
        """Fraction of re-references with stack distance >= capacity."""
        if not self.rereferences:
            return 0.0
        # A bucket counts as "beyond" when its whole range lies at or past
        # the capacity; the open-ended final bucket always does.
        beyond = self.histogram[-1]
        lower = 0
        for i, bound in enumerate(BUCKETS):
            if lower >= capacity_lines:
                beyond += self.histogram[i]
            lower = bound
        return beyond / self.rereferences


class ReuseDistanceProfiler:
    """Bus collector computing stack distances per criticality class and PC
    over every SM's L1D probes, in the order the LSUs made them."""

    def __init__(self) -> None:
        self._stack: "OrderedDict[int, None]" = OrderedDict()
        self.critical = ReuseProfile()
        self.non_critical = ReuseProfile()
        self.by_pc: Dict[int, ReuseProfile] = {}
        self._first_pc: Dict[int, int] = {}

    # Event-bus collector interface --------------------------------------
    def append(self, ev: tuple) -> None:
        """``(kind, cycle, sm, level, pc, line_addr, critical)`` probe
        records of level 0 count; every other record is ignored."""
        kind = ev[0]
        if (kind == _EV_CACHE_HIT or kind == _EV_CACHE_MISS) and ev[3] == 0:
            self.access(ev[5], ev[4], bool(ev[6]))

    def access(self, addr: int, pc: int, critical: bool) -> None:
        """One L1 probe of line ``addr`` by instruction ``pc``."""
        profile = self.critical if critical else self.non_critical
        profile.references += 1
        pc_profile = self.by_pc.setdefault(pc, ReuseProfile())
        pc_profile.references += 1

        if addr in self._stack:
            distance = self._distance(addr)
            profile.record(distance)
            first_pc = self._first_pc.get(addr, pc)
            self.by_pc.setdefault(first_pc, ReuseProfile()).record(distance)
            self._stack.move_to_end(addr)
        else:
            self._stack[addr] = None
            self._first_pc[addr] = pc
        # Bound profiler memory on streaming workloads.
        while len(self._stack) > 65536:
            old, _ = self._stack.popitem(last=False)
            self._first_pc.pop(old, None)

    def _distance(self, addr: int) -> int:
        # Position from the MRU end of the stack.
        distance = 0
        for key in reversed(self._stack):
            if key == addr:
                return distance
            distance += 1
        return distance
