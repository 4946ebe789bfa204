"""Unit tests for the event-driven core's wake-queue machinery.

Covers the three hazard paths called out in the design: stale heap entries
(lazy invalidation), barrier releases re-queuing parked warps, and MSHR
back-pressure keeping operand-ready warps in the ready pool until an entry
frees up.  :class:`~tests.oracles.ReadySetOracle` is the event core's
independent reference: it re-derives every tick's candidate lists from a
plain scan of ``sm.warps`` — readiness included, which it walks off each
warp's scoreboard itself — and shares no state with the wake heaps, the
ready pools, their ungated sub-lists or the readiness the SM stores on a
warp at issue.  The oracle-checked launches run twice: ticked only at each
SM's reported wake (``skip``, the device loop as it is) and ticked on every
cycle (``cycle``, via :func:`~tests.oracles.tick_every_cycle`), which
checks every tick the loop would have made between wakes and that those
extra ticks change nothing.
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
from tests.oracles import ReadySetOracle, tick_every_cycle


#: How the oracle-checked launches are ticked: on every cycle, or only at
#: each SM's reported wake.
TICKS = ["cycle", "skip"]


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


def replaying_gpu(cfg, build_kernel, grid_dim, block_dim):
    """Record ``build_kernel(gpu)`` once, then a GPU replaying it.

    Returns ``(gpu, kernel)``; launching ``kernel`` on ``gpu`` replays the
    recorded streams through the same issue core.
    """
    recorder = TraceRecorder(cfg)
    kernel = build_kernel(recorder)
    recorder.launch(kernel, grid_dim, block_dim)
    return GPU(cfg, trace=recorder.finish()), kernel


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
            sm.tick_wake(float(cycle))
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
        sm.tick_wake(0.0)
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

    def test_warp_ready_next_cycle_stays_pooled(self):
        """Independent ALU work: after each issue the warp is ready on the
        next cycle, so it never leaves its pool for the wake heap."""
        b = KernelBuilder("independent")
        for i in range(4):
            b.const(float(i))
        sm, block = make_sm(num_warps=1, kernel=b.build())
        oracle = ReadySetOracle(sm)
        warp = block.warps[0]
        for cycle in range(4):
            sm.tick_wake(float(cycle))
            assert warp.ready_at == cycle + 1.0
            assert sm._ready_pools[0] == [warp] and not sm._wake_heaps[0]
        while sm.busy:
            cycle += 1
            sm.tick_wake(float(cycle))
        assert sm._ready_pools[0] == [] and sm._ungated_pools[0] == []
        assert oracle.select_calls == warp.issued_instructions == 5

    def test_unfinished_counter_tracks_busy(self):
        sm, block = make_sm(num_warps=2)
        assert sm.busy and sm._unfinished == 2
        cycle = 0.0
        while sm.busy and cycle < 1000:
            sm.tick_wake(cycle)
            cycle = max(cycle + 1.0, sm.next_wake_time(cycle))
        assert not sm.busy and sm._unfinished == 0
        assert all(w.status is WarpStatus.FINISHED for w in block.warps)


class TestBarrierWake:
    def test_barrier_release_requeues_parked_warps(self):
        sm, block = make_sm(num_warps=2, kernel=barrier_kernel())
        cycle = 0.0
        saw_parked = False
        while sm.busy and cycle < 1000:
            sm.tick_wake(cycle)
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

    @pytest.mark.parametrize("ticks", TICKS)
    @pytest.mark.parametrize("num_slots", [1, 2])
    def test_barrier_ready_sets_match_oracle(self, ticks, num_slots, replay=False):
        cfg = GPUConfig.default_sim(num_sms=1, num_schedulers_per_sm=num_slots)
        if replay:
            gpu, kernel = replaying_gpu(cfg, lambda _: barrier_kernel(), 1, 128)
        else:
            gpu, kernel = GPU(cfg), barrier_kernel()
        oracle = ReadySetOracle(gpu.sms[0])
        if ticks == "cycle":
            tick_every_cycle(gpu)
        gpu.launch(kernel, 1, 128)
        # Every released warp went through a checked select after the
        # barrier: 4 warps x (const + add + bar + add + exit).
        assert gpu.sms[0].stats.barriers == 4
        assert oracle.select_calls == gpu.sms[0].stats.warp_instructions
        assert oracle.ticks >= oracle.select_calls / num_slots

    @pytest.mark.parametrize("ticks", TICKS)
    def test_barrier_ready_sets_match_oracle_under_replay(self, ticks):
        self.test_barrier_ready_sets_match_oracle(ticks, 2, replay=True)


class TestMSHRBackPressure:
    def _run(self, scheme="rr", mshr_entries=2, ticks="skip", checked=False,
             replay=False):
        cfg = apply_scheme(
            GPUConfig.default_sim(
                num_sms=1,
                l1d=CacheConfig(
                    sets=8, ways=16, line_size=128, mshr_entries=mshr_entries
                ),
            ),
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
        if ticks == "cycle":
            tick_every_cycle(gpu)
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

    @pytest.mark.parametrize("ticks", TICKS)
    @pytest.mark.parametrize(
        "scheme,mshr_entries", [("rr", 2), ("gto", 2), ("cawa", 2)]
    )
    def test_mshr_ready_sets_match_oracle(self, scheme, mshr_entries, ticks,
                                          replay=False):
        sm, result, oracle = self._run(scheme, mshr_entries, ticks, checked=True,
                                       replay=replay)
        # The check only means something if the gate engaged: candidates
        # were held back.
        assert sm.mshr.stall_inducing_misses > 0
        assert oracle.gated_full > 0
        assert oracle.select_calls >= result.warp_instructions
        # The oracle only observes, extra ticks change nothing, and replay
        # changes no cycle: a plain, unchecked run at the SMs' own wakes.
        _, plain, _ = self._run(scheme, mshr_entries)
        assert result.cycles == plain.cycles

    @pytest.mark.parametrize("ticks", TICKS)
    @pytest.mark.parametrize("scheme,mshr_entries", [("rr", 2), ("cawa", 2)])
    def test_mshr_ready_sets_match_oracle_under_replay(self, scheme, mshr_entries, ticks):
        self.test_mshr_ready_sets_match_oracle(scheme, mshr_entries, ticks, replay=True)
