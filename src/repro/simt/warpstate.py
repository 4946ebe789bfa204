"""Array-of-struct warp scheduling state for the vector backend.

:class:`WarpStateStore` keeps the two per-warp fields the per-cycle issue
loop actually scans — the wake cycle and the needs-global-memory flag —
in preallocated numpy arrays indexed by ``warp.dynamic_id``.  The store
turns the per-warp readiness probes of the scalar issue core into one
batched mask (``wake <= now``) per SM per cycle: the vectorized scoreboard
check of :class:`repro.sm.vector.VectorSM`.

Design notes (see ``docs/backends.md``):

* The index **is** the dynamic id.  Dynamic ids are assigned by a per-SM
  sequential counter in dispatch order, so ``store.warps[i].dynamic_id == i``
  holds by construction and ``id % num_slots`` reproduces the scheduler-slot
  assignment of the scalar core exactly.
* ``wake`` holds :meth:`repro.simt.warp.Warp.schedule_info`'s ready cycle —
  ``inf`` for finished or barrier-parked warps, so one comparison handles
  both readiness and runnability.  The array is refreshed only at the
  moments the memoized scalar value can change: the warp's own issue,
  barrier release, and block dispatch.
* PC, active mask, and stack depth deliberately stay on the
  :class:`~repro.simt.warp.Warp` object: they are read once per *issue*
  (not per cycle), so mirroring them into arrays would add sync writes to
  the hot path without removing any per-cycle work.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np


class WarpStateStore:
    """Grow-only columnar store of per-warp scheduling state for one SM."""

    __slots__ = ("_wake", "_needs_mem", "_live", "warps")

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._wake = np.full(capacity, np.inf, dtype=np.float64)
        self._needs_mem = np.zeros(capacity, dtype=np.bool_)
        #: Warp objects indexed by dynamic id (append order == id order).
        self.warps: List = []
        #: Length of the leading run of *finished* warps (see
        #: :meth:`advance_live`).
        self._live = 0

    # -- columns (read-only views for the SM tick loop) -----------------
    @property
    def wake(self) -> np.ndarray:
        """Per-warp wake cycles (``inf`` for non-runnable warps)."""
        return self._wake

    @property
    def needs_mem(self) -> np.ndarray:
        """Per-warp flags: next instruction is a global memory access."""
        return self._needs_mem

    def __len__(self) -> int:
        return len(self.warps)

    # ------------------------------------------------------------------
    def add(self, warp) -> None:
        """Register a newly dispatched warp (must arrive in id order)."""
        idx = warp.dynamic_id
        if idx != len(self.warps):
            raise ValueError(
                f"warp dynamic_id {idx} out of order: store holds "
                f"{len(self.warps)} warps"
            )
        self.warps.append(warp)
        if idx >= self._wake.shape[0]:
            self._grow(idx + 1)
        self.refresh(warp)

    def _grow(self, needed: int) -> None:
        capacity = max(needed, 2 * self._wake.shape[0])
        wake = np.full(capacity, np.inf, dtype=np.float64)
        needs = np.zeros(capacity, dtype=np.bool_)
        old = self._wake.shape[0]
        wake[:old] = self._wake
        needs[:old] = self._needs_mem
        self._wake = wake
        self._needs_mem = needs

    def refresh(self, warp) -> None:
        """Re-read ``warp.schedule_info()`` into the columns.

        Must be called whenever the memoized tuple can have changed: after
        the warp issues, when a barrier releases it, and at dispatch.
        """
        t, needs_mem = warp.schedule_info()
        idx = warp.dynamic_id
        self._wake[idx] = t
        self._needs_mem[idx] = needs_mem

    def advance_live(self) -> int:
        """First index that could ever become runnable again.

        Finished warps are terminal, so the prefix of finished warps only
        grows; advancing a cursor past it lets the per-cycle masks scan
        only the live suffix instead of every warp ever dispatched.  Each
        warp is inspected O(1) times amortized.
        """
        lo = self._live
        warps = self.warps
        n = len(warps)
        while lo < n and warps[lo].finished:
            lo += 1
        self._live = lo
        return lo

    # ------------------------------------------------------------------
    def due(self, now: float, count: int) -> np.ndarray:
        """Indices (ascending) of warps with ``wake <= now``; the batched
        replacement for the scalar core's per-warp readiness probes."""
        return np.flatnonzero(self._wake[:count] <= now)

    def min_wake(self, count: int) -> float:
        """Earliest wake cycle over the first ``count`` warps (inf if none)."""
        if not count:
            return math.inf
        return float(self._wake[:count].min())
