"""Fine-grained SM pipeline behaviour: MSHR gating, stall accounting, caches."""

import numpy as np
import pytest

from repro import GPU, GPUConfig, KernelBuilder
from repro.config import CacheConfig
from repro.isa.instructions import CmpOp, Opcode, Special
from repro.simt.warp import WarpStatus


def streaming_kernel(n, base, out_base, passes=4):
    b = KernelBuilder("stream")
    tid = b.sreg(Special.GTID)
    acc = b.const(0.0)
    p = b.const(0.0)
    addr = b.reg()
    b.mad(addr, tid, 128.0, b.const(float(base)))  # one line per lane
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


class TestMSHRGating:
    def test_memory_issue_gated_when_mshrs_full(self):
        # 2 MSHR entries and a kernel that wants 32 scattered lines per
        # warp: the stall-inducing-miss counter must engage.
        config = GPUConfig.default_sim(
            num_sms=1,
            l1d=CacheConfig(sets=8, ways=16, line_size=128, mshr_entries=2),
        )
        gpu = GPU(config)
        n = 64
        words = n * 16 * 4 + n
        data = gpu.memory.alloc_array(np.ones(words))
        out = gpu.memory.alloc_array(np.zeros(n))
        kernel = streaming_kernel(n, data, out)
        gpu.launch(kernel, 1, n)
        sm = gpu.sms[0]
        assert sm.mshr.stall_inducing_misses > 0

    def test_larger_mshr_file_is_faster_under_mlp(self):
        def run(entries):
            config = GPUConfig.default_sim(
                num_sms=1,
                l1d=CacheConfig(sets=8, ways=16, line_size=128,
                                mshr_entries=entries),
            )
            gpu = GPU(config)
            n = 64
            words = n * 16 * 4 + n
            data = gpu.memory.alloc_array(np.ones(words))
            out = gpu.memory.alloc_array(np.zeros(n))
            return gpu.launch(streaming_kernel(n, data, out), 1, n).cycles

        assert run(32) < run(2)


class TestStallAccounting:
    def test_memory_stalls_attributed(self):
        gpu = GPU(GPUConfig.default_sim(num_sms=1))
        n = 32
        words = n * 16 * 4 + n
        data = gpu.memory.alloc_array(np.ones(words))
        out = gpu.memory.alloc_array(np.zeros(n))
        result = gpu.launch(streaming_kernel(n, data, out), 1, n)
        warp = result.blocks[0].warps[0]
        assert warp.mem_stall_cycles > 0
        assert warp.total_stall_cycles >= warp.mem_stall_cycles

    def test_sched_stall_under_contention(self):
        # Many warps, one scheduler slot: somebody waits while ready.
        gpu = GPU(GPUConfig.default_sim(num_sms=1, num_schedulers_per_sm=1))
        n = 512
        src = gpu.memory.alloc_array(np.zeros(n))
        out = gpu.memory.alloc_array(np.zeros(n))
        b = KernelBuilder("busy")
        tid = b.sreg(Special.GTID)
        acc = b.const(0.0)
        for _ in range(20):
            b.add(acc, acc, 1.0)
        b.st(b.addr(tid, base=out, scale=8), acc)
        result = gpu.launch(b.build(), 2, 256)
        total_sched = sum(
            w.sched_stall_cycles for blk in result.blocks for w in blk.warps
        )
        assert total_sched > 0


class TestWarpScheduleCache:
    def test_cache_invalidated_by_issue(self):
        gpu = GPU(GPUConfig.default_sim(num_sms=1))
        n = 32
        src = gpu.memory.alloc_array(np.zeros(n))
        out = gpu.memory.alloc_array(np.zeros(n))
        from tests.conftest import build_copy_kernel

        kernel = build_copy_kernel(n, src, out)
        from repro.sm.dispatcher import BlockDispatcher
        from repro.trace.functional import record_launch

        trace, _ = record_launch(kernel, 1, 32, gpu.memory, 32, 128)
        dispatcher = BlockDispatcher(kernel, 1, 32, 32, trace)
        sm = gpu.sms[0]
        dispatcher.try_dispatch([sm], 0.0)
        warp = sm.warps[0]
        t0 = warp.ready_at
        sm.tick_wake(t0)
        assert warp.status is WarpStatus.RUNNING
        assert warp.ready_at > t0  # at minimum the 1-inst-per-cycle floor moved

    def test_finished_warp_never_issuable(self):
        gpu = GPU(GPUConfig.default_sim(num_sms=1))
        n = 32
        src = gpu.memory.alloc_array(np.zeros(n))
        out = gpu.memory.alloc_array(np.zeros(n))
        from tests.conftest import build_copy_kernel

        gpu.launch(build_copy_kernel(n, src, out), 1, 32)
        warp = gpu.sms[0].completed_blocks[0].warps[0]
        assert warp.status is WarpStatus.FINISHED
        sm = gpu.sms[0]
        sm._enqueue(warp)  # a finished warp is never queued for a wake
        assert not warp._queued
        assert sm.next_wake_time(warp.ready_at) == float("inf")


class TestStreamIsTheOnlySource:
    """Every launch times a recorded stream: the SM issues from the stream
    itself and holds no lane value."""

    def _resident(self):
        from repro.sm.dispatcher import BlockDispatcher
        from repro.trace.functional import record_launch
        from tests.conftest import build_loop_sum_kernel

        gpu = GPU(GPUConfig.default_sim(num_sms=1))
        n = 64
        trips = gpu.memory.alloc_array(np.arange(n, dtype=float) % 7)
        out = gpu.memory.alloc_array(np.zeros(n))
        kernel = build_loop_sum_kernel(n, trips, out)
        trace, _ = record_launch(kernel, 1, n, gpu.memory, 32, 128)
        sm = gpu.sms[0]
        BlockDispatcher(kernel, 1, n, 32, trace).try_dispatch([sm], 0.0)
        return sm, trace

    def test_a_timed_warp_holds_no_numpy_array(self):
        sm, trace = self._resident()
        warps = list(sm.warps)
        assert len(warps) == 2
        cycle = 0.0
        while sm.busy:
            sm.tick_wake(cycle)
            for warp in warps:
                held = [name for name in type(warp).__slots__
                        if isinstance(getattr(warp, name), np.ndarray)]
                assert not held, held
                assert not hasattr(warp, "rf") and not hasattr(warp, "stack")
            cycle = max(cycle + 1.0, sm.next_wake_time(cycle))
        for (_, w), stream in trace.warps.items():
            assert warps[w].issued_instructions == len(stream)
            assert warps[w].thread_instructions == stream.threads()

    def test_sm_counters_are_the_committed_warps_sums(self):
        sm, trace = self._resident()
        warps = list(sm.warps)
        sm.tick_wake(0.0)
        assert sm.stats.warp_instructions == 0  # summed at block commit
        cycle = 1.0
        while sm.busy:
            sm.tick_wake(cycle)
            cycle = max(cycle + 1.0, sm.next_wake_time(cycle))
        stats = sm.stats
        assert len(sm.completed_blocks) == 1
        assert stats.warp_instructions == trace.record_count
        assert stats.thread_instructions == sum(w.thread_instructions for w in warps)
        # The stream's loads, stores and branches all went through issue.
        program = sm.completed_blocks[0].kernel.instructions
        ops = {program[pc].op for stream in trace.warps.values() for pc in stream.pcs}
        assert {Opcode.LD, Opcode.ST, Opcode.BRA} <= ops
        assert sm.l1d.stats.accesses > 0

    def test_timing_packages_name_no_value_machinery(self):
        """``grep`` as a test: nothing under ``sm/`` or ``gpu/`` (nor the
        replay entry point) mentions the execute-era adapters, the per-warp
        executor or its result record — only the ``executor = None``
        attribute the frozen ledger reads — and the per-warp reference is
        defined nowhere in the package: it lives in ``tests/reference/``."""
        import re
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        banned = re.compile(r"TraceStack|TraceWarp|TraceExecutor|make_warp_factory|"
                            r"warp_factory|ExecResult|FunctionalExecutor|SIMTStack")
        files = [*(root / "sm").glob("*.py"), *(root / "gpu").glob("*.py"),
                 root / "trace" / "replay.py"]
        assert len(files) >= 7
        hits = [(path.name, line.strip()) for path in files
                for line in path.read_text().splitlines() if banned.search(line)]
        assert hits == []
        for path in files:
            assert "simt.executor" not in path.read_text(), path.name
        assert GPU(GPUConfig.default_sim()).sms[0].executor is None
        defined = re.compile(r"^class (FunctionalExecutor|SIMTStack|WarpRegisterFile|"
                             r"WarpLanes|ExecResult)\b", re.M)
        assert [path.name for path in root.rglob("*.py")
                if defined.search(path.read_text())] == []
