"""The streaming multiprocessor pipeline.

Each SM owns resident thread blocks, their warps, per-slot warp schedulers,
an L1 data cache with MSHRs, and a load-store unit.  It times a *recorded
stream*: every resident warp follows the per-warp record sequence the
functional pass (:mod:`repro.trace.functional`) produced for it — PCs,
branch outcomes, coalesced memory lines — and the SM computes no values.
When a scheduler slot selects a ready warp, :meth:`_issue` reads the warp's
next record, books the instruction's latency in the warp's scoreboard and
moves the cursor; readiness of later instructions follows from those
recorded completion times.

The issue loop is event-driven.  A warp's readiness — when its next
instruction's operands are available, whether a load produced the latest
one, whether it needs an MSHR — is computed once, at the end of the issue
that wrote the scoreboard, and is frozen until the warp issues again.  Each
scheduler slot keeps a min-heap of ``(wake_cycle, dynamic_id, warp)``
entries, a *ready pool* — the warps whose wake time has passed by the SM's
next tick, as a list in ascending ``dynamic_id`` order, which is also the
candidate list the scheduler is handed when nothing gates it — and the
pool's *ungated* sub-list: the pooled warps whose next instruction needs no
MSHR, which is the candidate list while the MSHRs are full.  A warp whose
next instruction needs an MSHR sleeps in the heap until the file has a
free entry, so a full file costs no tick; a warp that issued and is ready
next cycle stays pooled.  ``tick_wake`` only pops newly-awake warps, picks
the list, and returns the SM's next wake along with whether it issued;
``next_wake_time`` answers the same question from scratch (a heap peek and
two emptiness tests per slot).  See ``docs/timing_model.md`` ("Event-driven
issue loop") for the invariants; ``tests/test_wake_queue.py`` checks every
tick's candidate list, ungated sub-list, stored readiness, heap entries and
returned wake against a from-scratch scan of ``warps``.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, List, Optional

from ..config import GPUConfig
from ..errors import SimulationError, TraceFormatError
from ..isa.instructions import IssueKind
from ..memory.cache import Cache
from ..memory.hierarchy import MemoryHierarchy
from ..memory.mshr import MSHRFile
from ..obs.events import Ev, Stall
from ..scheduling.base import WarpScheduler
from ..simt.block import ThreadBlock
from ..simt.warp import NO_LINES, Warp, WarpStatus
from .lsu import LoadStoreUnit

# Pre-bound ints for the per-issue probe sites (IntEnum attribute access
# costs a dict lookup; the issue path runs once per instruction).
_EV_WARP_START = int(Ev.WARP_START)
_EV_WARP_ISSUE = int(Ev.WARP_ISSUE)
_EV_WARP_STALL = int(Ev.WARP_STALL)
_EV_WARP_FINISH = int(Ev.WARP_FINISH)
_EV_CPL_VERDICT = int(Ev.CPL_VERDICT)
_ST_SCOREBOARD = int(Stall.SCOREBOARD_DEP)
_ST_NO_SLOT = int(Stall.NO_SLOT)
_ST_MEM_PENDING = int(Stall.MEM_PENDING)
_ST_BARRIER = int(Stall.BARRIER)
_K_ALU = int(IssueKind.ALU)
_K_SFU = int(IssueKind.SFU)
_K_PRED = int(IssueKind.PRED)
_K_LOAD = int(IssueKind.LOAD)
_K_STORE = int(IssueKind.STORE)
_K_BRANCH = int(IssueKind.BRANCH)
_K_BARRIER = int(IssueKind.BARRIER)
_K_EXIT = int(IssueKind.EXIT)
_RUNNING = WarpStatus.RUNNING
#: Ready pools are kept in dispatch order.
_DISPATCH_ORDER = attrgetter("dynamic_id")


@dataclass
class SMStats:
    """Instruction counters for one SM: the sums of the committed blocks'
    per-warp counters, added at block commit."""

    warp_instructions: int = 0
    thread_instructions: int = 0


class StreamingMultiprocessor:
    """One SM: warps, schedulers, L1D, LSU."""

    #: The issue-time executor this pipeline used to call per instruction.
    #: Gone — values are computed by the functional pass, before timing —
    #: and kept as a name because the frozen benchmark ledger reads it.
    executor = None

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        hierarchy: MemoryHierarchy,
        scheduler_factory: Callable[[], WarpScheduler],
        l1_policy_factory: Callable[[], object],
        cpl,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.l1d = Cache(config.l1d, l1_policy_factory(), owner=sm_id)
        self.mshr = MSHRFile(config.l1d.mshr_entries)
        self.lsu = LoadStoreUnit(sm_id, self.l1d, self.mshr, hierarchy)
        self.schedulers = [scheduler_factory() for _ in range(config.num_schedulers_per_sm)]
        self.cpl = cpl
        #: Warp-criticality query used by the LSU issue path.
        self._is_critical: Callable[[Warp], bool] = cpl.is_critical
        # Hot-loop locals: the per-cycle tick and per-instruction issue
        # paths read these every iteration, and going through the frozen
        # ``config`` dataclass costs two attribute lookups each time.
        # Bound once here (the config is immutable, so binding at
        # construction is equivalent to binding at kernel launch).
        self._alu_latency = config.alu_latency
        self._sfu_latency = config.sfu_latency
        self._num_slots = config.num_schedulers_per_sm
        self.warps: List[Warp] = []
        self.blocks: List[ThreadBlock] = []
        self.completed_blocks: List[ThreadBlock] = []
        self.stats = SMStats()
        self._next_dynamic_id = 0
        self._regs_in_use = 0
        #: Event bus (``repro.obs``), or ``None`` when events are disabled.
        #: The entire disabled-path cost is one ``is not None`` test per
        #: probe site — see ``docs/observability.md``.
        self.obs = None
        #: Incrementally maintained count of resident, unfinished warps;
        #: replaces the O(warps) ``any(not w.finished ...)`` scans that
        #: ``busy`` / ``can_accept`` used to perform every cycle.
        self._unfinished = 0
        #: Optional callback fired on block commit (the GPU run loop uses it
        #: to re-dispatch pending blocks without summing per-SM counters
        #: every cycle).
        self.on_commit: Optional[Callable[["StreamingMultiprocessor"], None]] = None
        # ---- event-driven ready-warp core state -----------------------
        #: Per-slot min-heaps of ``(wake_cycle, dynamic_id, warp)``.  A warp
        #: is queued here exactly when ``warp._queued`` is True; entries are
        #: unique per warp (no stale duplicates by construction).
        self._wake_heaps: List[list] = [[] for _ in self.schedulers]
        #: Per-slot lists of the warps whose wake time has passed by the next
        #: tick, in dispatch order (ascending dynamic id) — the candidate
        #: order ``WarpScheduler.select`` is promised.  With no MSHR
        #: back-pressure the pool itself is the candidate list.
        self._ready_pools: List[List[Warp]] = [[] for _ in self.schedulers]
        #: Per-slot sub-lists of the pools, same order: the pooled warps
        #: whose next instruction needs no MSHR.  With the MSHRs full this
        #: *is* the candidate list, so a tick never re-scans parked warps.
        self._ungated_pools: List[List[Warp]] = [[] for _ in self.schedulers]
        #: ``(scheduler, wake heap, ready pool, ungated)`` per slot, for the
        #: tick loop.
        self._slots = tuple(zip(self.schedulers, self._wake_heaps,
                                self._ready_pools, self._ungated_pools))

    # ------------------------------------------------------------------
    # Occupancy / dispatch
    # ------------------------------------------------------------------
    def can_accept(self, kernel, block_dim: int) -> bool:
        """Occupancy check: blocks, warps, and register file limits."""
        warps_needed = (block_dim + self.config.warp_size - 1) // self.config.warp_size
        if len(self.blocks) >= self.config.max_blocks_per_sm:
            return False
        if self._unfinished + warps_needed > self.config.max_warps_per_sm:
            return False
        regs_needed = kernel.num_regs * block_dim
        return self._regs_in_use + regs_needed <= self.config.registers_per_sm

    def add_block(self, block: ThreadBlock, now: float) -> None:
        """Make ``block``'s warps resident and schedulable."""
        block.dispatch_cycle = now
        self.blocks.append(block)
        kernel = block.kernel
        self._regs_in_use += kernel.num_regs * block.block_dim
        # Results keep their blocks, which must not keep the recording.
        trace, block.trace = block.trace, None
        for w in range(block.num_warps):
            warp = Warp(
                w, block, self.config.warp_size, kernel.num_regs,
                kernel.num_preds, self._next_dynamic_id,
                None if trace is None else trace.stream_for(block.block_id, w),
            )
            self._next_dynamic_id += 1
            warp.start_cycle = warp.ready_at = now
            warp.last_issue_cycle = now - 1
            block.warps.append(warp)
            self.warps.append(warp)
            self._unfinished += 1
            if self.obs is not None:
                self.obs.emit(
                    (_EV_WARP_START, now, self.sm_id, block.block_id, w)
                )
            self._enqueue(warp)

    # ------------------------------------------------------------------
    # Event-driven ready-warp core (wake queues)
    # ------------------------------------------------------------------
    def _enqueue(self, warp: Warp) -> None:
        """Queue ``warp`` for its next wake-up, if it is schedulable.

        Idempotent: a warp already sitting in its slot's wake heap is not
        queued twice (``warp._queued`` guards the invariant that each warp
        lives in *at most one* of {wake heap, ready pool}).  Finished or
        barrier-blocked warps are not queued — barrier release and block
        dispatch re-queue them when they become schedulable again, at the
        readiness their last issue (or their dispatch) stored: a parked
        warp's scoreboard does not move.
        """
        if warp._queued or warp.status is not _RUNNING:
            return
        warp._queued = True
        dyn = warp.dynamic_id
        heappush(self._wake_heaps[dyn % self._num_slots], (warp.ready_at, dyn, warp))

    def _release_barrier(self, block: ThreadBlock, now: float) -> None:
        """Release ``block``'s barrier and re-queue the released warps."""
        released = block.barrier_release()
        if self.obs is not None:
            # Stamp the release cycle so the issue-time stall decomposition
            # can attribute the parked interval to the BARRIER bucket.
            for warp in released:
                warp.obs_barrier_release = now
        for warp in released:
            self._enqueue(warp)

    # ------------------------------------------------------------------
    # Cycle execution
    # ------------------------------------------------------------------
    def tick_wake(self, now: float):
        """One tick — each scheduler slot gets one issue opportunity;
        returns ``(issued, next_wake)``.

        Pops newly-awake warps into the slot's ready pool (and, when their
        next instruction needs no MSHR, its ungated sub-list) and hands the
        scheduler one of the two lists, so per-tick cost is O(newly awake)
        plus the scheduler's own walk.  A warp that needs an MSHR and pops
        while the file is full goes back on the heap at the cycle an entry
        frees instead: while the file is full no such warp issues, so no
        fill is registered and that cycle cannot move earlier.  An issuing
        warp ready again next cycle stays pooled (leaving or joining the
        ungated sub-list as its next instruction needs); any other leaves
        the pool, and is queued at its ``ready_at`` — or, if its next
        instruction needs an MSHR, at the first cycle from then on that
        the file has a free entry.

        ``next_wake`` is exactly what :meth:`next_wake_time` would answer
        after this tick, read off the heaps and lists the tick has just
        handled (and the MSHR free time it already knows), so the skip
        loop never asks twice.  The MSHR file is asked one question,
        ``next_free_time(now)`` (``now`` while an entry is free), at most
        once per tick and once more after each issue that walked it.
        """
        issued = False
        next_free_time = self.mshr.next_free_time
        slots = self._slots
        free_at = -1.0  # next_free_time(now); negative while not known
        for scheduler, heap, pool, ungated in slots:
            while heap and heap[0][0] <= now:
                warp = heappop(heap)[2]
                warp._queued = False
                if warp.status is not _RUNNING:
                    continue  # finished/barrier entry invalidated lazily
                # The readiness stored at the warp's last issue (or its
                # dispatch) is current: nothing else moves it.
                if warp._needs_mem:
                    if free_at < 0.0:
                        free_at = next_free_time(now)
                    if free_at > now:  # sleep until an entry frees
                        warp._queued = True
                        heappush(heap, (free_at, warp.dynamic_id, warp))
                        continue
                else:
                    insort(ungated, warp, key=_DISPATCH_ORDER)
                insort(pool, warp, key=_DISPATCH_ORDER)
            if not pool:
                continue
            # Every pooled warp is a candidate unless some need an MSHR and
            # the file is full: then only the ungated sub-list is.
            if ungated == pool:  # no pooled warp needs an MSHR
                ready = pool
            else:
                if free_at < 0.0:
                    free_at = next_free_time(now)
                ready = ungated if free_at > now else pool
                if not ready:
                    continue
            warp = scheduler.select(ready, now)
            was_gated = warp._needs_mem
            self._issue(warp, scheduler, now)
            if was_gated:
                free_at = -1.0  # a global LD/ST moved MSHR occupancy
            issued = True
            # Re-queue unless the warp finished, parked at a barrier, or was
            # re-queued by a barrier release this very issue triggered; a
            # warp ready next cycle just stays pooled.
            if warp.status is _RUNNING and not warp._queued:
                wake = warp.ready_at
                if wake == now + 1:
                    if warp._needs_mem:
                        if not was_gated:
                            ungated.remove(warp)
                    elif was_gated:
                        insort(ungated, warp, key=_DISPATCH_ORDER)
                    continue
                if warp._needs_mem:
                    if free_at < 0.0:
                        free_at = next_free_time(now)
                    if free_at > wake:
                        wake = free_at
                warp._queued = True
                heappush(heap, (wake, warp.dynamic_id, warp))
            pool.remove(warp)
            if not was_gated:
                ungated.remove(warp)
        # The next wake, as next_wake_time() derives it.  Pooled warps are
        # ready by the next tick, so an ungated one can issue then and
        # gated ones when an MSHR frees.  A heap entry may be due already —
        # a barrier release queues warps on slots this tick has passed —
        # hence the clamp.
        wake = math.inf
        gated = False
        for _, heap, pool, ungated in slots:
            if ungated:
                return issued, now
            if pool:
                gated = True
            if heap and heap[0][0] < wake:
                wake = heap[0][0]
        if gated:
            if free_at < 0.0:
                free_at = next_free_time(now)
            if free_at < wake:
                wake = free_at
        return issued, wake if wake > now else now

    def _issue(self, warp: Warp, scheduler: WarpScheduler, now: float) -> None:
        """Issue ``warp``'s next record."""
        idx = warp.issued_instructions
        pcs = warp._pcs
        pc = pcs[idx]
        table = warp._decoded
        decoded = table[pc]
        kind = decoded.kind

        # ---- stall accounting (Fig 2c / Fig 4 decomposition) ----------
        # The gap [base, now) splits at the operands' ready cycle into data
        # and scheduler stall; only data stall is summed, the rest derives
        # from the issue cycles (Warp.total_stall_cycles).
        base = warp.last_issue_cycle + 1
        # Stored when the scoreboard last moved (the tail of this function).
        ready = warp._opready
        limited_by_load = warp._by_load
        data_stall = (now if now < ready else ready) - base
        if data_stall > 0.0:
            warp.data_stall_cycles += data_stall
            if limited_by_load:
                warp.mem_stall_cycles += data_stall

        obs = self.obs
        if obs is not None:
            # Decompose the gap [base, now) into reason-attributed slices:
            # barrier wait (up to the recorded release), operand wait
            # (mem-pending vs scoreboard), and lost-slot wait.  The slices
            # are disjoint and sum to ``gap``, so StallAccounting's
            # accounting identity (issue + stalls == lifetime) holds.
            emit = obs.emit
            bid = warp.block.block_id
            wid = warp.warp_id_in_block
            cursor = base
            release = warp.obs_barrier_release
            if release >= 0.0:
                warp.obs_barrier_release = -1.0
                bar_end = release if release < now else now
                if bar_end > cursor:
                    emit((_EV_WARP_STALL, now, self.sm_id, bid, wid,
                          _ST_BARRIER, bar_end - cursor, cursor))
                    cursor = bar_end
            data_end = ready if ready < now else now
            if data_end > cursor:
                reason = _ST_MEM_PENDING if limited_by_load else _ST_SCOREBOARD
                emit((_EV_WARP_STALL, now, self.sm_id, bid, wid,
                      reason, data_end - cursor, cursor))
                cursor = data_end
            if now > cursor:
                emit((_EV_WARP_STALL, now, self.sm_id, bid, wid,
                      _ST_NO_SLOT, now - cursor, cursor))
            emit((_EV_WARP_ISSUE, now, self.sm_id, bid, wid, pc,
                  warp._insts[pc].op.value))

        cpl = self.cpl
        refreshed = False
        # Eq. 1's CPI inputs; the counter is derived from them and the
        # data-stall sum when read.  Only data stalls feed it: counting
        # scheduler-induced wait would promote starved-but-ready warps
        # under a greedy scheduler, dissolving the working-set
        # concentration gCAWS inherits from GTO (DESIGN.md).  The
        # block's verdicts refresh here, before the LSU reads this
        # warp's and before a branch moves its counter.
        warp._cpl_idx = idx
        warp._cpl_prev_issue = warp.last_issue_cycle
        warp._criticality = None
        block = warp.block
        count = block.cpl_issues + 1
        block.cpl_issues = count
        if count % cpl.update_period == 0:
            cpl.refresh_block(block)
            refreshed = True

        # ---- the record's effect: scoreboard write by kind -------------
        # Memory lines and branch outcomes come straight from the stream's
        # aux column, consumed in issue order.
        if kind == _K_ALU:
            warp.reg_ready[decoded.dst] = now + self._alu_latency
            warp.reg_from_load[decoded.dst] = False
        elif kind == _K_LOAD or kind == _K_STORE:
            aux = warp._aux
            pos = warp._aux_pos
            try:
                mem_mask = aux[pos]
                count = aux[pos + 1]
                if count == NO_LINES:
                    lines = None  # shared space, or every lane predicated off
                    end = pos + 2
                else:
                    end = pos + 2 + count
                    if end > len(aux):
                        raise IndexError(end)
                    lines = aux[pos + 2:end].tolist()
            except IndexError:
                raise TraceFormatError(
                    f"memory record at pc={pc} is missing its address "
                    "payload; trace is corrupt"
                ) from None
            warp._aux_pos = end
            completion, _ = self.lsu.issue(
                warp, warp._insts[pc], mem_mask, now,
                self._is_critical(warp), lines,
            )
            if kind == _K_LOAD:
                warp.reg_ready[decoded.dst] = completion
                warp.reg_from_load[decoded.dst] = True
        elif kind == _K_BRANCH:
            inst = warp._insts[pc]
            if inst.pred is not None:
                pos = warp._aux_pos
                try:
                    taken = warp._aux[pos]
                except IndexError:
                    raise TraceFormatError(
                        f"branch record at pc={pc} is missing its taken "
                        "mask; trace is corrupt"
                    ) from None
                warp._aux_pos = pos + 1
                # The stream already linearizes the paths the way the
                # reconvergence stack did; only the outcome is accounted.
                diverged = all_taken = False
                if taken:
                    if warp._stream.masks[idx] & ~taken == 0:
                        all_taken = True
                    elif inst.target_pc != pc + 1:
                        diverged = True
                        warp.divergent_branches += 1
                cpl.on_branch(warp, inst, diverged=diverged,
                              all_taken=all_taken, now=now)
        elif kind == _K_PRED:
            warp.pred_ready[decoded.dst] = now + self._alu_latency
        elif kind == _K_SFU:
            warp.reg_ready[decoded.dst] = now + self._sfu_latency
            warp.reg_from_load[decoded.dst] = False

        # ---- cursor advance and the next instruction's readiness -------
        idx += 1
        warp.issued_instructions = idx
        warp.last_issue_cycle = now
        try:
            pc_next = pcs[idx]
        except IndexError:
            # The stream is consumed; only an EXIT may be its last record.
            if kind != _K_EXIT:
                raise TraceFormatError(
                    f"warp stream (block={warp.block.block_id}, "
                    f"warp={warp.warp_id_in_block}) has no record {idx}: it "
                    "ends without its terminal EXIT; trace is corrupt"
                ) from None
            self._finish_warp(warp, now)
        else:
            # The scoreboard was written and the cursor moved just above:
            # this is where the next instruction's readiness is known, and
            # nothing moves it until the warp issues again — not a barrier
            # it may be about to park at either.  One walk: the latest
            # operand, and whether a load produced (one of) the latest.
            ready = 0.0
            by_load = False
            decoded = table[pc_next]
            reg_ready = warp.reg_ready
            from_load = warp.reg_from_load
            for src in decoded.srcs:
                value = reg_ready[src]
                if value > ready:
                    ready = value
                    by_load = from_load[src]
                elif value == ready and from_load[src]:
                    by_load = True
            dst = decoded.dst
            if dst is not None:  # WAW hazards stall issue as well
                to_pred = decoded.pred_is_dst
                value = warp.pred_ready[dst] if to_pred else reg_ready[dst]
                if value > ready:
                    ready = value
                    by_load = not to_pred and from_load[dst]
            pred = decoded.pred
            if pred is not None:
                value = warp.pred_ready[pred]
                if value > ready:
                    ready = value
                    by_load = False
            warp._opready = ready
            warp._by_load = by_load
            floor = now + 1  # one instruction per warp per cycle
            warp.ready_at = ready if ready > floor else floor
            warp._needs_mem = decoded.needs_global_mem
            if kind == _K_BARRIER:
                if warp.block.barrier_arrive(warp):
                    self._release_barrier(warp.block, now)

        scheduler.last = warp
        if refreshed and obs is not None:
            # The verdicts this issue latched, as it leaves them: after an
            # EXIT retired the warp and a branch moved its counter.  A
            # block that committed here reports no warp.
            block = warp.block
            obs.emit((_EV_CPL_VERDICT, now, self.sm_id, block.block_id,
                      tuple((w.warp_id_in_block, w.criticality, w.is_critical_flag)
                            for w in block.warps if not w.finished)))

    def _finish_warp(self, warp: Warp, now: float) -> None:
        warp.mark_finished(now)
        self._unfinished -= 1
        if self.obs is not None:
            self.obs.emit((_EV_WARP_FINISH, now, self.sm_id,
                           warp.block.block_id, warp.warp_id_in_block))
        block = warp.block
        if block.barrier_pending_release:
            self._release_barrier(block, now)
        if block.done:
            self._commit_block(block)

    def _commit_block(self, block: ThreadBlock) -> None:
        self.blocks.remove(block)
        self.completed_blocks.append(block)
        stats = self.stats
        for warp in block.warps:
            stats.warp_instructions += warp.issued_instructions
            stats.thread_instructions += warp.thread_instructions
        self._regs_in_use -= block.kernel.num_regs * block.block_dim
        self.warps = [w for w in self.warps if w.block is not block]
        self.cpl.forget_block(block.block_id)
        if self.on_commit is not None:
            self.on_commit(self)

    # ------------------------------------------------------------------
    def next_wake_time(self, now: float = 0.0) -> float:
        """Earliest cycle ``>= now`` any resident warp could issue (inf if
        none).

        A heap peek per slot plus two emptiness tests: pooled warps are
        operand-ready by the next tick, so an ungated one can issue then
        (reported as ``now``) and the gated ones once an MSHR is free.  A
        heap entry is its warp's ``ready_at``, or for a warp whose next
        instruction needs an MSHR, at most the first cycle from then on
        that the file has a free entry.  Warps parked at a barrier sit in
        no structure and contribute nothing; barrier releases and block
        commits only happen during one of this SM's own issues.  Exact for
        scoreboard- and MSHR-gated warps (:meth:`MSHRFile.next_free_time`
        accounts for over-subscription); an operand-ready warp that lost
        arbitration reports ``now`` — an under-estimate the device loop
        turns into a re-tick one cycle later.  Anything due earlier than
        ``now`` is reported as ``now``: the loop clamps a wake into the
        future anyway, and the clamped value is what :meth:`tick_wake` can
        answer without walking its pools.
        """
        wake = math.inf
        gated = False
        for heap, pool, ungated in zip(self._wake_heaps, self._ready_pools,
                                       self._ungated_pools):
            if ungated:
                return now
            if pool:
                gated = True
            if heap and heap[0][0] < wake:
                wake = heap[0][0]
        if gated:
            mshr_wake = self.mshr.next_free_time(now)
            if mshr_wake < wake:
                wake = mshr_wake
        return wake if wake > now else now

    @property
    def busy(self) -> bool:
        return self._unfinished > 0

    def detect_deadlock(self, now: float) -> None:
        """Raise when resident warps exist but none can ever wake."""
        if self.busy and math.isinf(self.next_wake_time(now)):
            stuck = [w for w in self.warps if not w.finished]
            raise SimulationError(
                f"SM{self.sm_id}: {len(stuck)} warps permanently blocked "
                f"(statuses: {[w.status.value for w in stuck]})"
            )
