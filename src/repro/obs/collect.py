"""Bounded ring-buffer collectors and the canonical event order.

The primary sink of every :class:`~repro.obs.bus.EventBus` is a
:class:`RingCollector`: a bounded buffer that *drops oldest*.  Totals that
must cover the whole run (stall sums, per-kind counts) therefore come
from collectors attached to the bus, never from the ring's contents.

Canonical ordering
------------------

Serial emission order is **not** cycle-sorted: cache/CACP events are
stamped with the request's LSU issue time (``req.cycle``), which can run
ahead of the tick that emitted them.  Every consumer that needs a
deterministic order therefore goes through :func:`sort_events` — a stable
sort on ``(cycle, sm, kind, fields...)``.  Two runs that emit the same
event *multiset* thus export byte-identical artifacts whichever path
produced them (``tests/test_obs_parity.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Sequence, Tuple

#: Default ring capacity (events) for ``events='on'`` / bare ``'ring'``.
DEFAULT_CAPACITY = 1 << 20


def _sort_key(ev: Sequence) -> Tuple:
    return (ev[1], ev[2], ev[0], ev[3:])


def sort_events(events: Iterable[Sequence]) -> List[tuple]:
    """Canonical deterministic order: ``(cycle, sm, kind, fields)``."""
    return sorted((tuple(ev) for ev in events), key=_sort_key)


class RingCollector:
    """Bounded drop-oldest event buffer."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Total events ever appended (never decremented).
        self.total = 0
        #: Events discarded by ring overflow.
        self.dropped = 0
        self._buf: deque = deque(maxlen=capacity)

    # -- hot path -------------------------------------------------------
    def append(self, ev: tuple) -> None:
        self.total += 1
        buf = self._buf
        if len(buf) == self.capacity:
            self.dropped += 1
        buf.append(ev)

    # -- reads ----------------------------------------------------------
    def events(self) -> List[tuple]:
        """The retained (most recent) events in emission order."""
        return list(self._buf)
