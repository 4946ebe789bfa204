"""Fine-grained SM pipeline behaviour: MSHR gating, stall accounting, caches."""

import numpy as np
import pytest

from repro import GPU, GPUConfig, KernelBuilder
from repro.config import CacheConfig
from repro.isa.instructions import CmpOp, Special
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

        dispatcher = BlockDispatcher(kernel, 1, 32, 32)
        sm = gpu.sms[0]
        dispatcher.try_dispatch([sm], 0.0)
        warp = sm.warps[0]
        t0 = warp.issuable_at()
        sm.tick(t0)
        t1 = warp.issuable_at()
        assert t1 > t0  # at minimum the 1-inst-per-cycle floor moved

    def test_finished_warp_never_issuable(self):
        gpu = GPU(GPUConfig.default_sim(num_sms=1))
        n = 32
        src = gpu.memory.alloc_array(np.zeros(n))
        out = gpu.memory.alloc_array(np.zeros(n))
        from tests.conftest import build_copy_kernel

        result = gpu.launch(build_copy_kernel(n, src, out), 1, 32)
        warp = result.blocks[0].warps[0]
        assert warp.status is WarpStatus.FINISHED
        assert warp.issuable_at() == float("inf")
