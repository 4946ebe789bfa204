"""Unit tests for the event-driven core's wake-queue machinery.

Covers the three hazard paths called out in the design: stale heap entries
(lazy invalidation), barrier releases re-queuing parked warps, and MSHR
back-pressure keeping operand-ready warps in the ready pool until an entry
frees up.  :class:`ReadySetOracle` is the event core's independent
reference: it re-derives every tick's candidate lists from a plain scan of
``sm.warps`` — readiness included, which it walks off each warp's
scoreboard itself — and shares no state with the wake heaps, the ready
pools, their ungated sub-lists or the readiness the SM stores on a warp at
issue.
"""

import numpy as np
import pytest

from repro import GPU, GPUConfig, KernelBuilder
from repro.config import CacheConfig
from repro.core.cawa import apply_scheme
from repro.isa.instructions import CmpOp, Special
from repro.simt.block import ThreadBlock
from repro.simt.warp import WarpStatus
from repro.trace.recorder import TraceRecorder


def alu_kernel(steps=4):
    """Straight-line ALU work: no memory, no divergence."""
    b = KernelBuilder("alu")
    x = b.const(0.0)
    for _ in range(steps):
        b.add(x, x, 1.0)
    return b.build()


def barrier_kernel():
    """Two ALU phases separated by a block-wide barrier."""
    b = KernelBuilder("barrier")
    x = b.const(0.0)
    b.add(x, x, 1.0)
    b.bar()
    b.add(x, x, 1.0)
    return b.build()


def scattered_load_kernel(n, base, out_base, passes=4):
    """One distinct cache line per lane per pass: heavy MSHR pressure."""
    b = KernelBuilder("scatter")
    tid = b.sreg(Special.GTID)
    acc = b.const(0.0)
    p = b.const(0.0)
    addr = b.reg()
    b.mad(addr, tid, 128.0, b.const(float(base)))
    done = b.pred()
    with b.loop() as lp:
        b.setp(done, CmpOp.GE, p, float(passes))
        lp.break_if(done)
        x = b.ld(addr)
        b.add(acc, acc, x)
        b.add(addr, addr, float(n * 128))
        b.add(p, p, 1.0)
    b.st(b.addr(tid, base=out_base, scale=8), acc)
    return b.build()


def readiness_from_scratch(warp):
    """``(wake, needs_mem)`` of ``warp``'s next instruction, re-derived
    from its scoreboard, cursor and last issue — the reference for the pair
    the SM stores at issue (``warp.ready_at`` / ``warp._needs_mem``) and
    every heap pop trusts.  A plain ``max`` over the operands' scoreboard
    entries; the issue path walks them inline, tracking load provenance."""
    d = warp.block.kernel.instructions[warp.pc].decoded
    pending = [warp.reg_ready[src] for src in d.srcs]
    if d.dst is not None:
        pending.append((warp.pred_ready if d.pred_is_dst else warp.reg_ready)[d.dst])
    if d.pred is not None:
        pending.append(warp.pred_ready[d.pred])
    floor = (warp.last_issue_cycle + 1 if warp.issued_instructions
             else warp.start_cycle)
    return max([floor, *pending]), d.needs_global_mem


class ReadySetOracle:
    """Brute-force reference for the candidate lists ``tick`` hands out.

    Wraps every scheduler's ``select`` on one SM and asserts, on every
    call, that ``ready`` equals the list derived from scratch: RUNNING
    warps of that slot whose :func:`readiness_from_scratch` wake has
    passed, minus those the MSHR / critical-reserve gate holds back, in
    dispatch order — strictly ascending ``dynamic_id``, and still the same
    list when ``select`` returns (the contract that lets the SM hand over
    its own pool).  Every candidate's stored readiness must equal the
    from-scratch one.  A slot ``tick`` passes over without calling
    ``select`` must have an empty list: nothing changes between a skipped
    slot's turn and the next ``select`` call (or the end of the tick), so
    that is where skipped slots are checked.  At every ``select`` and at the
    end of every tick each slot's ungated sub-list must be its pool minus
    the warps whose next instruction needs an MSHR, in pool order, and every
    wake-heap entry must carry its warp's stored wake time.  At the end of
    every tick the wake ``tick_wake`` returned must equal
    ``next_wake_time(now)`` — both clamped: never before ``now`` — and must
    not lie past the earliest from-scratch wake of any RUNNING warp.
    """

    def __init__(self, sm):
        self.sm = sm
        self.select_calls = 0
        self.ticks = 0
        # Candidates held back over all checks: no free MSHR / free entries
        # inside the critical reserve and the warp is not critical.
        self.gated_full = 0
        self.gated_reserve = 0
        self._next_slot = 0
        for slot, scheduler in enumerate(sm.schedulers):
            scheduler.select = self._checked_select(slot, scheduler.select)
        real_tick_wake = sm.tick_wake  # ``tick`` goes through it too

        def tick_wake(now):
            self._next_slot = 0
            issued, wake = real_tick_wake(now)
            self._expect_skipped(len(sm.schedulers), now)
            self._check_structures(now)
            assert wake >= now, f"cycle {now}: wake {wake} lies in the past"
            assert wake == sm.next_wake_time(now), (
                f"cycle {now}: tick_wake returned wake {wake}, a from-scratch "
                f"next_wake_time gives {sm.next_wake_time(now)}"
            )
            assert wake <= self.earliest_wake(now), (
                f"cycle {now}: tick_wake returned wake {wake}, but a warp "
                f"can issue at {self.earliest_wake(now)}"
            )
            self.ticks += 1
            return issued, wake

        sm.tick_wake = tick_wake

    def earliest_wake(self, now):
        """Earliest cycle >= ``now`` some RUNNING warp could issue, from
        scratch: a wake the SM reports may be early, never later."""
        sm = self.sm
        earliest = float("inf")
        for warp in sm.warps:
            if warp.status is WarpStatus.RUNNING:
                wake, needs_mem = readiness_from_scratch(warp)
                wake = max(wake, now)
                if needs_mem:
                    wake = max(wake, sm.mshr.next_free_time(now))
                earliest = min(earliest, wake)
        return earliest

    def expected(self, slot, now):
        sm = self.sm
        num_slots = len(sm.schedulers)
        free = sm.mshr.free_entries(now)
        reserve = sm.config.critical_mshr_reserve
        is_critical = sm._is_critical
        ready = []
        for warp in sm.warps:
            if warp.status is not WarpStatus.RUNNING:
                continue
            if warp.dynamic_id % num_slots != slot:
                continue
            wake, needs_mem = readiness_from_scratch(warp)
            if wake > now:
                continue
            if needs_mem:
                if free <= 0:
                    self.gated_full += 1
                    continue
                if (reserve and free <= reserve and is_critical is not None
                        and not is_critical(warp)):
                    self.gated_reserve += 1
                    continue
            ready.append(warp)
        ready.sort(key=lambda w: w.dynamic_id)
        return ready

    def _check_structures(self, now):
        """The ungated sub-lists and heap entries, against their definitions."""
        sm = self.sm
        for slot, (pool, ungated) in enumerate(zip(sm._ready_pools, sm._ungated_pools)):
            assert ungated == [w for w in pool if not w._needs_mem], (
                f"cycle {now}: slot {slot}'s ungated sub-list diverged from its pool"
            )
        for heap in sm._wake_heaps:
            for wake, _, warp in heap:
                if warp.status is WarpStatus.RUNNING:
                    assert wake == warp.ready_at, (
                        f"cycle {now}: warp {warp.dynamic_id} is queued for "
                        f"{wake} but ready at {warp.ready_at}"
                    )

    def _expect_skipped(self, upto, now):
        """Slots ``[_next_slot, upto)`` got no ``select`` call this tick."""
        for slot in range(self._next_slot, upto):
            missed = self.expected(slot, now)
            assert not missed, (
                f"cycle {now}: slot {slot} was passed over with ready warps "
                f"{[w.dynamic_id for w in missed]}"
            )

    def _checked_select(self, slot, real_select):
        def select(ready, now):
            self._expect_skipped(slot, now)
            self._check_structures(now)
            self._next_slot = slot + 1
            want = self.expected(slot, now)
            ids = [w.dynamic_id for w in ready]
            assert ids == [w.dynamic_id for w in want], (
                f"cycle {now}: slot {slot} candidate list diverged"
            )
            assert ready, "select is never called with an empty list"
            assert all(a < b for a, b in zip(ids, ids[1:])), (
                f"cycle {now}: slot {slot} candidates out of dispatch order"
            )
            for warp in ready:
                stored = (warp.ready_at, warp._needs_mem)
                assert stored == readiness_from_scratch(warp), (
                    f"cycle {now}: warp {warp.dynamic_id} carries a stale "
                    f"readiness {stored}"
                )
            self.select_calls += 1
            before = list(ready)
            chosen = real_select(ready, now)
            assert ready == before, (
                f"cycle {now}: slot {slot}'s scheduler mutated its candidates"
            )
            return chosen

        return select


def replaying_gpu(cfg, build_kernel, grid_dim, block_dim):
    """Record ``build_kernel(gpu)`` once, then a trace-frontend GPU for it.

    Returns ``(gpu, kernel)``; launching ``kernel`` on ``gpu`` replays the
    recorded streams through the same issue core.
    """
    recorder = TraceRecorder(cfg)
    kernel = build_kernel(recorder)
    recorder.launch(kernel, grid_dim, block_dim)
    return GPU(cfg.with_frontend("trace"), trace=recorder.finish()), kernel


def make_sm(num_warps=2, kernel=None):
    """One event-core SM with ``num_warps`` resident warps of ``kernel``
    (default: the ALU kernel) at cycle 0, following their recorded streams."""
    cfg = GPUConfig.default_sim(num_sms=1, num_schedulers_per_sm=1)
    sm = GPU(cfg).sms[0]
    kernel = kernel or alu_kernel()
    trace = TraceRecorder(cfg).launch(kernel, 1, 32 * num_warps)
    block = ThreadBlock(0, 32 * num_warps, 1, kernel, warp_size=32, trace=trace)
    sm.add_block(block, now=0.0)
    return sm, block


class TestWakeQueueInvariants:
    def test_dispatch_queues_each_warp_once(self):
        sm, block = make_sm(num_warps=3)
        heap = sm._wake_heaps[0]
        assert len(heap) == 3
        assert all(w._queued for w in block.warps)
        # Re-enqueueing is idempotent: no duplicate entries.
        for warp in block.warps:
            sm._enqueue(warp)
        assert len(heap) == 3

    def test_warp_in_at_most_one_structure(self):
        sm, block = make_sm(num_warps=3)
        for cycle in range(6):
            sm.tick(float(cycle))
            queued = [e[2] for e in sm._wake_heaps[0]]
            pooled = sm._ready_pools[0]
            for warp in block.warps:
                if warp.status is WarpStatus.RUNNING:
                    assert (warp in queued) + (warp in pooled) <= 1
                    assert warp._queued == (warp in queued)

    def test_stale_finished_entry_is_invalidated(self):
        sm, block = make_sm(num_warps=2)
        warp = block.warps[0]
        # Forge a stale heap entry for a warp that then finishes.
        warp.status = WarpStatus.FINISHED
        warp._queued = True  # simulate an entry left behind
        sm.tick(0.0)
        # The stale entry was popped and dropped, never pooled.
        assert warp not in [e[2] for e in sm._wake_heaps[0]]
        assert warp not in sm._ready_pools[0]
        assert not warp._queued

    def test_heap_entries_carry_their_warps_wake_time(self):
        """No entry is ever early, so a pop never re-validates: readiness
        is stored before a barrier release queues the releasing warp (the
        one push that used to happen mid-issue, ahead of the bookkeeping)."""
        sm, block = make_sm(num_warps=2, kernel=barrier_kernel())
        oracle = ReadySetOracle(sm)  # checks every entry, every tick
        cycle = 0.0
        while sm.busy and cycle < 1000:
            sm.tick_wake(cycle)
            cycle = max(cycle + 1.0, sm.next_wake_time(cycle))
        assert not sm.busy and sm.stats.barriers == 2
        assert oracle.ticks > 0

    def test_unfinished_counter_tracks_busy(self):
        sm, block = make_sm(num_warps=2)
        assert sm.busy and sm._unfinished == 2
        cycle = 0.0
        while sm.busy and cycle < 1000:
            sm.tick(cycle)
            cycle = max(cycle + 1.0, sm.next_wake_time(cycle))
        assert not sm.busy and sm._unfinished == 0
        assert all(w.status is WarpStatus.FINISHED for w in block.warps)


class TestBarrierWake:
    def test_barrier_release_requeues_parked_warps(self):
        sm, block = make_sm(num_warps=2, kernel=barrier_kernel())
        cycle = 0.0
        saw_parked = False
        while sm.busy and cycle < 1000:
            sm.tick(cycle)
            for warp in block.warps:
                if warp.status is WarpStatus.AT_BARRIER:
                    saw_parked = True
                    # Parked warps sit in neither wake structure.
                    assert warp not in [e[2] for e in sm._wake_heaps[0]]
                    assert warp not in sm._ready_pools[0]
            cycle = max(cycle + 1.0, sm.next_wake_time(cycle))
        assert saw_parked, "barrier kernel never parked a warp"
        assert not sm.busy
        assert sm.stats.barriers == 2

    @pytest.mark.parametrize("clock", ["cycle", "skip"])
    @pytest.mark.parametrize("num_slots", [1, 2])
    def test_barrier_ready_sets_match_oracle(self, clock, num_slots, replay=False):
        cfg = GPUConfig.default_sim(
            num_sms=1, num_schedulers_per_sm=num_slots
        ).with_clock(clock)
        if replay:
            gpu, kernel = replaying_gpu(cfg, lambda _: barrier_kernel(), 1, 128)
        else:
            gpu, kernel = GPU(cfg), barrier_kernel()
        oracle = ReadySetOracle(gpu.sms[0])
        gpu.launch(kernel, 1, 128)
        # Every released warp went through a checked select after the
        # barrier: 4 warps x (const + add + bar + add + exit).
        assert gpu.sms[0].stats.barriers == 4
        assert oracle.select_calls == gpu.sms[0].stats.warp_instructions
        assert oracle.ticks >= oracle.select_calls / num_slots

    @pytest.mark.parametrize("clock", ["cycle", "skip"])
    def test_barrier_ready_sets_match_oracle_under_replay(self, clock):
        self.test_barrier_ready_sets_match_oracle(clock, 2, replay=True)


class TestMSHRBackPressure:
    def _run(self, scheme="rr", mshr_entries=2, clock="cycle", checked=False,
             replay=False):
        cfg = apply_scheme(
            GPUConfig.default_sim(
                num_sms=1,
                l1d=CacheConfig(
                    sets=8, ways=16, line_size=128, mshr_entries=mshr_entries
                ),
            ).with_clock(clock),
            scheme,
        )
        n = 64

        def build_kernel(gpu):
            data = gpu.memory.alloc_array(np.ones(n * 16 * 4 + n))
            out = gpu.memory.alloc_array(np.zeros(n))
            return scattered_load_kernel(n, data, out)

        if replay:
            gpu, kernel = replaying_gpu(cfg, build_kernel, 1, n)
        else:
            gpu = GPU(cfg)
            kernel = build_kernel(gpu)
        oracle = ReadySetOracle(gpu.sms[0]) if checked else None
        result = gpu.launch(kernel, 1, n)
        return gpu.sms[0], result, oracle

    def test_mshr_gated_warps_wait_in_pool_and_wake(self):
        sm, result, _ = self._run()
        # Back-pressure must actually have engaged...
        assert sm.mshr.stall_inducing_misses > 0
        # ...and every warp still ran to completion (gated warps woke up).
        assert result.cycles > 0
        assert not sm.busy
        assert not any(sm._wake_heaps[0]) and not any(sm._ready_pools[0])

    @pytest.mark.parametrize("clock", ["cycle", "skip"])
    @pytest.mark.parametrize(
        "scheme,mshr_entries", [("rr", 2), ("gto", 2), ("cawa+mshr", 4)]
    )
    def test_mshr_ready_sets_match_oracle(self, scheme, mshr_entries, clock,
                                          replay=False):
        sm, result, oracle = self._run(scheme, mshr_entries, clock, checked=True,
                                       replay=replay)
        # The check only means something if the gate engaged: candidates
        # were held back (under cawa+mshr by the critical reserve as well).
        assert sm.mshr.stall_inducing_misses > 0
        assert oracle.gated_full > 0
        assert (oracle.gated_reserve > 0) == (scheme == "cawa+mshr")
        assert oracle.select_calls >= result.warp_instructions
        # The oracle only observes (and replay changes no cycle).
        _, plain, _ = self._run(scheme, mshr_entries, clock)
        assert result.cycles == plain.cycles

    @pytest.mark.parametrize("clock", ["cycle", "skip"])
    @pytest.mark.parametrize("scheme,mshr_entries", [("rr", 2), ("cawa+mshr", 4)])
    def test_mshr_ready_sets_match_oracle_under_replay(self, scheme, mshr_entries, clock):
        self.test_mshr_ready_sets_match_oracle(scheme, mshr_entries, clock, replay=True)
