"""The vectorized SM engine (``GPUConfig.backend='vector'``).

:class:`VectorSM` replaces the scalar issue core (the event-driven wake
queues of :class:`~repro.sm.sm.StreamingMultiprocessor`) with one batched
pass over a columnar :class:`~repro.simt.warpstate.WarpStateStore`: the
per-cycle "which warps are ready" question — heap pops in the event core —
becomes a single ``wake <= now`` mask over preallocated numpy arrays.  It
shares no ready-set bookkeeping with the heaps, which is what makes it the
independent reference the event core is checked against.

Everything *downstream* of warp selection is inherited unchanged — stall
accounting, functional execution, LSU/cache walk, CPL updates, statistics,
and observability emits all run the exact scalar code — which is what makes
the backend bit-identical by construction everywhere except the selection
loop itself, and the selection loop replicates the event core's semantics
precisely:

* candidates are presented to each scheduler slot in ascending dynamic-id
  order (the event core's sorted ready pool: dispatch order);
* MSHR occupancy is computed lazily at the first slot with candidates and
  recomputed after an issue only when that issue touched the memory
  pipeline, preserving the event core's exact call pattern;
* the ``critical_mshr_reserve`` gate applies to memory-bound candidates
  exactly as in the scalar core;
* a barrier released *during* an issue re-exposes the released warps to the
  remaining scheduler slots of the same cycle (the event core's same-tick
  heap push), via a recompute of the due mask.

The parity grid in ``tests/test_vector_backend_parity.py`` pins all of this
bit-for-bit against the python backend.  See ``docs/backends.md``.
"""

from __future__ import annotations

import math

import numpy as np

from ..simt.warpstate import WarpStateStore
from .sm import StreamingMultiprocessor


class VectorSM(StreamingMultiprocessor):
    """One SM whose per-cycle scheduling state lives in numpy arrays."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.store = WarpStateStore()
        #: Set when an issue releases a block barrier, so the remaining
        #: scheduler slots of the same cycle recompute the due mask (the
        #: event core's same-tick re-queue of released warps).
        self._barrier_released = False

    # ------------------------------------------------------------------
    def _enqueue(self, warp) -> None:
        """No wake heaps here: the due mask over ``store.wake`` is the
        ready set, so the base class's queueing hook does nothing."""

    def add_block(self, block, now: float) -> None:
        super().add_block(block, now)
        add = self.store.add
        for warp in block.warps:
            add(warp)

    def _release_barrier(self, block, now: float) -> None:
        released = block.barrier_release()
        if self.obs is not None:
            for warp in released:
                warp.obs_barrier_release = now
        refresh = self.store.refresh
        for warp in released:
            refresh(warp)
        if released:
            self._barrier_released = True

    # ------------------------------------------------------------------
    @staticmethod
    def _bucket(due, num_slots: int):
        """Group due warp indices by scheduler slot (``id % num_slots``).

        A Python pass over the (typically small) due list: cheaper than
        ``num_slots`` numpy mask filters, and it yields plain-int indices
        for the ready-list build.
        """
        if num_slots == 1:
            return [due]
        buckets = [[] for _ in range(num_slots)]
        for i in due:
            buckets[i % num_slots].append(i)
        return buckets

    def tick(self, now: float) -> bool:
        """One issue opportunity per scheduler slot, selected from a
        batched due mask instead of heap pops."""
        return self.tick_wake(now)[0]

    def tick_wake(self, now: float):
        """Fused :meth:`tick` + :meth:`next_wake_time`: returns
        ``(issued, next_wake)``.

        The tick already holds the wake array, live range, and — crucially
        — *why* each due warp did not issue, so the follow-up "when next"
        question is usually answered without re-scanning: a due warp left
        unserved only because its scheduler slot picked a different warp
        (or a barrier released warps after its slot was processed) can
        issue next cycle, so ``now`` is returned directly — a permitted
        under-estimate, exactly like the scalar core returning a
        still-past-due wake minimum.  Only the all-due-warps-memory-gated
        case pays the MSHR-bound scan of :meth:`next_wake_time`.
        """
        count = self._next_dynamic_id
        store = self.store
        lo = store.advance_live()  # skip the finished-warp prefix
        if lo >= count:
            return False, math.inf
        wake = store.wake
        due = (wake[lo:count] <= now).nonzero()[0]
        if due.size == 0:
            return False, float(wake[lo:count].min())
        if lo:
            due += lo
        self._barrier_released = False
        issued = False
        leftover = False  # a due, ungated warp was passed over this cycle
        reserve = self._reserve
        crit_fn = self._is_critical
        mshr = self.mshr
        num_slots = self._num_slots
        warps = store.warps
        needs_mem = store.needs_mem
        buckets = self._bucket(due.tolist(), num_slots)
        free_mshrs = -1  # computed lazily: only slots with candidates pay
        for slot, scheduler in enumerate(self.schedulers):
            if self._barrier_released:
                # An earlier slot's issue completed a barrier: the released
                # warps are schedulable by the remaining slots this cycle.
                self._barrier_released = False
                due = (wake[lo:count] <= now).nonzero()[0]
                if lo:
                    due += lo
                buckets = self._bucket(due.tolist(), num_slots)
            cand = buckets[slot] if num_slots > 1 else buckets[0]
            if not cand:
                continue
            if free_mshrs < 0:
                free_mshrs = mshr.free_entries(now)
            if free_mshrs > 0 and not reserve:
                # Fast path: no MSHR back-pressure, every candidate is
                # eligible (the common case).
                ready = [warps[i] for i in cand]
            else:
                ready = []
                for i in cand:
                    if needs_mem[i]:  # next instruction needs an MSHR
                        if free_mshrs <= 0:
                            continue
                        if reserve and free_mshrs <= reserve and crit_fn is not None:
                            if not crit_fn(warps[i]):
                                continue
                    ready.append(warps[i])
                if not ready:
                    continue
            warp = scheduler.select(ready, now)
            if warp is None:
                leftover = True  # ready but declined: issuable next cycle
                continue
            if len(ready) > 1:
                leftover = True  # unpicked ready candidates stay due
            self._mshr_touched = False
            self._issue(warp, scheduler, now)
            # The issue moved the warp's wake time (or finished/parked it);
            # its slot has been served, so no due-mask recompute is needed
            # for the warp itself — barrier releases are flagged above.
            store.refresh(warp)
            if self._mshr_touched and free_mshrs >= 0:
                # MSHR occupancy only moves when a memory instruction
                # issued; skip the recompute otherwise (same value).
                free_mshrs = mshr.free_entries(now)
            issued = True
        if leftover or self._barrier_released:
            # Something schedulable remains (or was released after its
            # slot): re-tick next cycle.  ``now`` is never an over-estimate.
            return issued, now
        w = wake[lo:count]
        earliest = float(w.min())
        if earliest > now:
            return issued, earliest
        # Due warps remain and every one was memory-gated: bound them by
        # the next MSHR free time, as in next_wake_time.
        mshr_free = mshr.next_free_time(now)
        if mshr_free <= now:
            return issued, earliest
        due_mem = (w <= now) & needs_mem[lo:count]
        if not due_mem.any():
            return issued, earliest
        rest = w[~due_mem]
        best = float(rest.min()) if rest.size else math.inf
        return issued, (best if best < mshr_free else float(mshr_free))

    # ------------------------------------------------------------------
    def next_wake_time(self, now: float = 0.0) -> float:
        """Earliest cycle any resident warp could issue (inf if none).

        Vectorized with the event core's semantics: warps whose wake time
        has passed and whose next instruction needs an MSHR are bounded by
        the next MSHR free time; everything else contributes its own wake.
        Like the scalar implementation this may *under*-estimate (reserve
        gating, scheduler refusal) — the device loops re-tick one cycle
        later — but never over-estimates, the invariant the cycle/skip/
        backend parity grids enforce.
        """
        count = self._next_dynamic_id
        store = self.store
        lo = store.advance_live()  # finished warps never wake again
        if lo >= count:
            return math.inf
        wake = store.wake[lo:count]
        earliest = wake.min()
        if earliest > now:  # no due warps: pure wake minimum (heap peek)
            return float(earliest)
        mshr_free = self.mshr.next_free_time(now)
        if mshr_free <= now:  # an MSHR is free: nothing is memory-gated
            return float(earliest)
        due_mem = (wake <= now) & store.needs_mem[lo:count]
        if not due_mem.any():
            return float(earliest)
        # Every due memory-gated warp waits until the MSHR frees; the
        # remaining warps keep their own wake times.
        rest = wake[~due_mem]
        best = float(rest.min()) if rest.size else math.inf
        return best if best < mshr_free else float(mshr_free)
