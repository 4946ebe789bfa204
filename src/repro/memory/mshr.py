"""Miss-status holding registers: miss merging and outstanding-miss limits."""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

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

    The in-flight fills are one list of ``(completion, line_addr)`` kept in
    completion order, plus the ``line_addr -> completion`` index merging
    probes.  Retiring fills deletes a prefix of the list; the cycle an entry
    frees is read off it by position.
    """

    def __init__(self, entries: int) -> None:
        self._entries = entries
        self._inflight: Dict[int, float] = {}
        #: ``(completion, line_addr)`` of every in-flight fill, ascending.
        self._completions: List[Tuple[float, int]] = []
        self.merged_misses = 0
        self.stall_inducing_misses = 0
        #: Event bus (``repro.obs``) or ``None``; set by ``wire_gpu``.
        self.obs = None
        #: Owning SM id stamped on emitted MSHR records.
        self.obs_owner = -1

    def _purge(self, now: float) -> None:
        """Retire every fill completed by ``now``.  The per-access and
        per-tick queries call this only once the earliest completion has
        passed: most of them find nothing to retire."""
        completions = self._completions
        inflight = self._inflight
        retired = 0
        for done, line_addr in completions:
            if done > now:
                break
            del inflight[line_addr]
            retired += 1
        del completions[:retired]

    def lookup(self, line_addr: int, now: float) -> Optional[float]:
        """Completion time of an in-flight fill of ``line_addr``, if any."""
        completions = self._completions
        if completions and completions[0][0] <= now:
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
        completions = self._completions
        if completions and completions[0][0] <= now:
            self._purge(now)
        if len(completions) < self._entries:
            return now
        self.stall_inducing_misses += 1
        free_at = completions[0][0] if completions else now
        if self.obs is not None:
            self.obs.emit((_EV_MSHR_FULL, now, self.obs_owner,
                           len(completions), free_at))
        return free_at

    def free_entries(self, now: float) -> int:
        """Number of unoccupied MSHR entries at ``now``."""
        completions = self._completions
        if completions and completions[0][0] <= now:
            self._purge(now)
        free = self._entries - len(completions)
        return free if free > 0 else 0

    def next_free_time(self, now: float) -> float:
        """Smallest ``t >= now`` with ``free_entries(t) > 0``.

        ``now`` while an entry is free.  Otherwise the file may be
        *over*-subscribed: :meth:`earliest_start` delays a miss that finds
        the file full but :meth:`register` still admits it, so with
        ``entries + k`` fills in flight an entry frees only at the
        ``(k + 1)``-th completion, not the first.
        """
        completions = self._completions
        if completions and completions[0][0] <= now:
            self._purge(now)
        excess = len(completions) - self._entries
        return now if excess < 0 else completions[excess][0]

    def register(self, line_addr: int, completion: float,
                 now: float = 0.0) -> None:
        """Admit a fill of ``line_addr``; one already in flight is
        replaced (the timing walk registers only after a failed merge)."""
        inflight = self._inflight
        completions = self._completions
        previous = inflight.get(line_addr)
        if previous is not None:
            completions.remove((previous, line_addr))
        inflight[line_addr] = completion
        insort(completions, (completion, line_addr))
        if self.obs is not None:
            self.obs.emit((_EV_MSHR_ALLOC, now, self.obs_owner,
                           line_addr, completion, len(completions)))

    @property
    def outstanding(self) -> int:
        return len(self._completions)
