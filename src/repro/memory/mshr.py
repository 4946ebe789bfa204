"""Miss-status holding registers: miss merging and outstanding-miss limits."""

from __future__ import annotations

import heapq
import math
from typing import Dict, Optional

from ..obs.events import Ev

_EV_MSHR_ALLOC = int(Ev.MSHR_ALLOC)
_EV_MSHR_MERGE = int(Ev.MSHR_MERGE)
_EV_MSHR_FULL = int(Ev.MSHR_FULL)


class MSHRFile:
    """Tracks in-flight line fills for one cache.

    Two jobs:
      * **merging** — a second miss to an in-flight line completes with the
        first (no duplicate L2/DRAM traffic);
      * **throttling** — at most ``entries`` lines may be outstanding; when
        the file is full a new miss cannot begin service until the oldest
        in-flight fill completes (modeled by delaying its start time).
    """

    def __init__(self, entries: int) -> None:
        self._entries = entries
        self._inflight: Dict[int, float] = {}
        self._completions: list = []  # heap of (completion, line_addr)
        self.merged_misses = 0
        self.stall_inducing_misses = 0
        #: Event bus (``repro.obs``) or ``None``; set by ``wire_gpu``.
        self.obs = None
        #: Owning SM id stamped on emitted MSHR records.
        self.obs_owner = -1

    def _purge(self, now: float) -> None:
        while self._completions and self._completions[0][0] <= now:
            _, line_addr = heapq.heappop(self._completions)
            done = self._inflight.get(line_addr)
            if done is not None and done <= now:
                del self._inflight[line_addr]

    def lookup(self, line_addr: int, now: float) -> Optional[float]:
        """Completion time of an in-flight fill of ``line_addr``, if any."""
        self._purge(now)
        completion = self._inflight.get(line_addr)
        if completion is not None:
            self.merged_misses += 1
            if self.obs is not None:
                self.obs.emit((_EV_MSHR_MERGE, now, self.obs_owner,
                               line_addr, completion))
        return completion

    def earliest_start(self, now: float) -> float:
        """Earliest time a new miss may begin service (capacity limit)."""
        self._purge(now)
        if len(self._inflight) < self._entries:
            return now
        self.stall_inducing_misses += 1
        free_at = self._completions[0][0] if self._completions else now
        if self.obs is not None:
            self.obs.emit((_EV_MSHR_FULL, now, self.obs_owner,
                           len(self._inflight), free_at))
        return free_at

    def free_entries(self, now: float) -> int:
        """Number of unoccupied MSHR entries at ``now``."""
        self._purge(now)
        return max(0, self._entries - len(self._inflight))

    def is_full(self, now: float) -> bool:
        """True when no MSHR entry is free at ``now``.

        The SM gates issue of global memory instructions on this — the
        back-pressure that makes warp schedulers arbitrate memory access
        (and lets greedy/criticality-aware policies shrink the set of warps
        competing for the L1).
        """
        self._purge(now)
        return len(self._inflight) >= self._entries

    def next_free_time(self, now: float) -> float:
        """Earliest future cycle an entry frees up (now if one is free)."""
        self._purge(now)
        if len(self._inflight) < self._entries:
            return now
        return self._completions[0][0] if self._completions else now

    def next_event_time(self, now: float) -> float:
        """Next in-flight fill completion after ``now`` (inf when idle).

        Unlike :meth:`next_free_time` this reports the completion event
        itself rather than the capacity condition, making the MSHR file a
        uniform member of the device's ``next_event_time`` protocol.
        """
        self._purge(now)
        return self._completions[0][0] if self._completions else math.inf

    def register(self, line_addr: int, completion: float,
                 now: float = 0.0) -> None:
        self._inflight[line_addr] = completion
        heapq.heappush(self._completions, (completion, line_addr))
        if self.obs is not None:
            self.obs.emit((_EV_MSHR_ALLOC, now, self.obs_owner,
                           line_addr, completion, len(self._inflight)))

    @property
    def outstanding(self) -> int:
        return len(self._inflight)
