"""Bounded ring-buffer collectors and the canonical event order.

The primary sink of every :class:`~repro.obs.bus.EventBus` is a
:class:`RingCollector`: a bounded buffer that either *drops oldest* (plain
ring) or *spills* full chunks to zlib-compressed files under
``.repro_cache/events/spill/`` so unbounded recordings stay bounded in
memory.

Canonical ordering
------------------

Serial emission order is **not** cycle-sorted: cache/CACP events are
stamped with the request's LSU issue time (``req.cycle``), which can run
ahead of the tick that emitted them.  Every consumer that needs a
deterministic order therefore goes through :func:`sort_events` — a stable
sort on ``(cycle, sm, kind, fields...)``.  Two runs that emit the same
event *multiset* thus export byte-identical artifacts whichever frontend
produced them (``tests/test_obs_parity.py``).
"""

from __future__ import annotations

import json
import os
import zlib
from collections import deque
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

#: Default ring capacity (events) for ``events='on'`` / bare ``'ring'``.
DEFAULT_CAPACITY = 1 << 20
#: Events per spill chunk file.
SPILL_CHUNK = 1 << 16


def _sort_key(ev: Sequence) -> Tuple:
    return (ev[1], ev[2], ev[0], ev[3:])


def sort_events(events: Iterable[Sequence]) -> List[tuple]:
    """Canonical deterministic order: ``(cycle, sm, kind, fields)``."""
    return sorted((tuple(ev) for ev in events), key=_sort_key)


class RingCollector:
    """Bounded event buffer: drop-oldest ring or spill-to-disk chunks."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 spill_dir: Optional[Path] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        #: Total events ever appended (never decremented).
        self.total = 0
        #: Events discarded by ring overflow (always 0 in spill mode).
        self.dropped = 0
        self._chunks: List[Path] = []
        self._chunk_seq = 0
        if self.spill_dir is not None:
            self._buf: deque = deque()
            self._chunk_size = min(capacity, SPILL_CHUNK)
        else:
            self._buf = deque(maxlen=capacity)

    # -- hot path -------------------------------------------------------
    def append(self, ev: tuple) -> None:
        self.total += 1
        buf = self._buf
        if self.spill_dir is None:
            if len(buf) == self.capacity:
                self.dropped += 1
            buf.append(ev)
            return
        buf.append(ev)
        if len(buf) >= self._chunk_size:
            self._spill()

    # -- spill management ----------------------------------------------
    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"chunk-{os.getpid()}-{self._chunk_seq:06d}.evz"
        self._chunk_seq += 1
        payload = json.dumps([list(ev) for ev in self._buf])
        path.write_bytes(zlib.compress(payload.encode("utf-8"), level=6))
        self._chunks.append(path)
        self._buf.clear()

    @staticmethod
    def _read_chunk(path: Path) -> List[tuple]:
        raw = zlib.decompress(path.read_bytes()).decode("utf-8")
        return [tuple(ev) for ev in json.loads(raw)]

    # -- reads ----------------------------------------------------------
    def events(self) -> List[tuple]:
        """All retained events in emission order (spilled chunks first)."""
        out: List[tuple] = []
        for path in self._chunks:
            out.extend(self._read_chunk(path))
        out.extend(self._buf)
        return out

    def __len__(self) -> int:
        retained = len(self._buf)
        if self.spill_dir is not None:
            retained += len(self._chunks) * self._chunk_size
        return retained
