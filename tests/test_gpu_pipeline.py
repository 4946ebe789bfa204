"""End-to-end pipeline tests: launches, divergence, barriers, timing."""

import numpy as np
import pytest

from repro import GPU, GPUConfig, KernelBuilder
from repro.errors import DeadlockError, LaunchError
from repro.isa.instructions import CmpOp, Special

from tests.conftest import build_copy_kernel, build_loop_sum_kernel
from tests.oracles import tick_every_cycle


class TestLaunchValidation:
    def test_rejects_nonpositive_dims(self, gpu):
        kernel = build_copy_kernel(1, 0, 8)
        gpu.memory.alloc(4)
        with pytest.raises(LaunchError):
            gpu.launch(kernel, grid_dim=0, block_dim=32)
        with pytest.raises(LaunchError):
            gpu.launch(kernel, grid_dim=1, block_dim=0)

    def test_rejects_oversized_block(self, gpu):
        kernel = build_copy_kernel(1, 0, 8)
        gpu.memory.alloc(4)
        too_many = (gpu.config.max_warps_per_sm + 1) * gpu.config.warp_size
        with pytest.raises(LaunchError):
            gpu.launch(kernel, grid_dim=1, block_dim=too_many)


class TestFunctionalCorrectness:
    def test_copy_kernel(self, gpu):
        n = 256
        data = np.arange(n, dtype=float)
        src = gpu.memory.alloc_array(data)
        dst = gpu.memory.alloc_array(np.zeros(n))
        kernel = build_copy_kernel(n, src, dst)
        gpu.launch(kernel, grid_dim=4, block_dim=64)
        assert np.array_equal(gpu.memory.read_array(dst, n), data)

    def test_data_dependent_loops(self, gpu):
        n = 128
        trips = np.random.RandomState(0).randint(0, 30, n).astype(float)
        tb = gpu.memory.alloc_array(trips)
        ob = gpu.memory.alloc_array(np.zeros(n))
        kernel = build_loop_sum_kernel(n, tb, ob)
        gpu.launch(kernel, grid_dim=2, block_dim=64)
        expected = np.array([sum(range(int(t))) for t in trips], dtype=float)
        assert np.array_equal(gpu.memory.read_array(ob, n), expected)

    def test_partial_block(self, gpu):
        # 40 threads in 64-thread blocks: lanes beyond blockDim never run.
        n = 40
        data = np.arange(n, dtype=float)
        src = gpu.memory.alloc_array(data)
        dst = gpu.memory.alloc_array(np.zeros(n))
        kernel = build_copy_kernel(n, src, dst)
        gpu.launch(kernel, grid_dim=1, block_dim=64)
        assert np.array_equal(gpu.memory.read_array(dst, n), data)

    def test_barrier_orders_intra_block_communication(self, gpu):
        # Thread i writes slot i, barrier, then reads slot (i+1) % ntid.
        n = 64
        buf = gpu.memory.alloc_array(np.zeros(n))
        out = gpu.memory.alloc_array(np.zeros(n))
        b = KernelBuilder("rotate")
        tid = b.sreg(Special.TID)
        b.st(b.addr(tid, base=buf, scale=8), tid)
        b.bar()
        nxt = b.reg()
        b.add(nxt, tid, 1.0)
        b.mod(nxt, nxt, float(n))
        val = b.ld(b.addr(nxt, base=buf, scale=8))
        b.st(b.addr(tid, base=out, scale=8), val)
        gpu.launch(b.build(), grid_dim=1, block_dim=n)
        expected = (np.arange(n) + 1) % n
        assert np.array_equal(gpu.memory.read_array(out, n), expected)


class TestTimingSanity:
    def test_cycles_positive_and_bounded(self, gpu):
        n = 64
        src = gpu.memory.alloc_array(np.zeros(n))
        dst = gpu.memory.alloc_array(np.zeros(n))
        result = gpu.launch(build_copy_kernel(n, src, dst), 1, 64)
        assert result.cycles > 0
        assert result.thread_instructions >= n  # at least one inst per thread

    def test_more_work_takes_longer(self, config):
        def run(trip):
            gpu = GPU(config)
            n = 64
            tb = gpu.memory.alloc_array(np.full(n, float(trip)))
            ob = gpu.memory.alloc_array(np.zeros(n))
            return gpu.launch(build_loop_sum_kernel(n, tb, ob), 1, 64).cycles

        assert run(50) > run(5)

    def test_cache_hits_faster_than_misses(self, config):
        # Re-reading one line repeatedly must beat streaming many lines.
        def run(stride_lines):
            gpu = GPU(config)
            n = 64
            words = max(n * stride_lines * 16, 16)
            data = gpu.memory.alloc_array(np.zeros(words))
            out = gpu.memory.alloc_array(np.zeros(n))
            b = KernelBuilder("stream")
            tid = b.sreg(Special.GTID)
            acc = b.const(0.0)
            i = b.const(0.0)
            done = b.pred()
            with b.loop() as lp:
                b.setp(done, CmpOp.GE, i, 32.0)
                lp.break_if(done)
                addr = b.reg()
                b.mad(addr, i, float(stride_lines * 128), b.const(float(data)))
                x = b.ld(addr)
                b.add(acc, acc, x)
                b.add(i, i, 1.0)
            b.st(b.addr(tid, base=out, scale=8), acc)
            return gpu.launch(b.build(), 1, 64).cycles

        assert run(0) < run(4)  # same line every time vs a new line each trip

    def test_idle_skip_preserves_semantics(self, config):
        # A single warp with long dependency chains: the idle-skipping run
        # loop must still produce exact results.
        gpu = GPU(config)
        src = gpu.memory.alloc_array(np.arange(32, dtype=float))
        dst = gpu.memory.alloc_array(np.zeros(32))
        b = KernelBuilder("chain")
        tid = b.sreg(Special.GTID)
        x = b.ld(b.addr(tid, base=src, scale=8))
        for _ in range(10):
            b.sqrt(x, x)
            b.mul(x, x, x)
        b.st(b.addr(tid, base=dst, scale=8), x)
        gpu.launch(b.build(), 1, 32)
        out = gpu.memory.read_array(dst, 32)
        assert np.allclose(out, np.arange(32, dtype=float), atol=1e-6)


class TestMultiBlockDispatch:
    def test_more_blocks_than_capacity(self, tiny_config):
        gpu = GPU(tiny_config)
        n = 16 * 64  # 16 blocks of 2 warps; capacity is 4 blocks per SM
        data = np.arange(n, dtype=float)
        src = gpu.memory.alloc_array(data)
        dst = gpu.memory.alloc_array(np.zeros(n))
        result = gpu.launch(build_copy_kernel(n, src, dst), 16, 64)
        assert np.array_equal(gpu.memory.read_array(dst, n), data)
        assert len(result.blocks) == 16

    def test_blocks_distributed_across_sms(self, config):
        gpu = GPU(config)
        n = 8 * 64
        src = gpu.memory.alloc_array(np.zeros(n))
        dst = gpu.memory.alloc_array(np.zeros(n))
        gpu.launch(build_copy_kernel(n, src, dst), 8, 64)
        per_sm = [len(sm.completed_blocks) for sm in gpu.sms]
        assert sum(per_sm) == 8
        assert all(count > 0 for count in per_sm)

    @pytest.mark.parametrize("ticks", ["cycle", "skip"])
    def test_runaway_kernel_detected(self, tiny_config, ticks):
        gpu = GPU(tiny_config, max_cycles=10_000)
        if ticks == "cycle":
            tick_every_cycle(gpu)
        b = KernelBuilder("forever")
        b.label("top")
        b.nop()
        b.bra("top")
        with pytest.raises(DeadlockError, match="runaway kernel"):
            gpu.launch(b.build(), 1, 32)

    @pytest.mark.parametrize("ticks", ["cycle", "skip"])
    def test_never_released_barrier_detected(self, tiny_config, ticks):
        # Warp 0 parks at a barrier that warp 1 (spinning) never reaches:
        # a named error whether the SM is ticked on every cycle or only at
        # its wakes, never a hang — raised by the launch's functional
        # pass, before the first tick.
        gpu = GPU(tiny_config, max_cycles=10_000)
        if ticks == "cycle":
            tick_every_cycle(gpu)
        b = KernelBuilder("stuck_barrier")
        spin = b.pred()
        b.setp(spin, CmpOp.GE, b.sreg(Special.TID), 32.0)
        with b.if_then(spin):
            b.label("top")
            b.nop()
            b.bra("top")
        b.bar()
        with pytest.raises(DeadlockError, match="runaway kernel"):
            gpu.launch(b.build(), 1, 64)
        assert gpu.now == 0.0 and not gpu.sms[0].busy


class TestSchemeEquivalence:
    def test_all_schemes_produce_identical_results(self):
        from repro import apply_scheme

        n = 256
        trips = np.random.RandomState(1).randint(0, 40, n).astype(float)
        outputs = {}
        for scheme in ["rr", "gto", "two_level", "gcaws", "cawa", "rr+cacp"]:
            gpu = GPU(apply_scheme(GPUConfig.default_sim(), scheme))
            tb = gpu.memory.alloc_array(trips)
            ob = gpu.memory.alloc_array(np.zeros(n))
            gpu.launch(build_loop_sum_kernel(n, tb, ob), 4, 64)
            outputs[scheme] = gpu.memory.read_array(ob, n)
        baseline = outputs.pop("rr")
        for scheme, out in outputs.items():
            assert np.array_equal(out, baseline), scheme
