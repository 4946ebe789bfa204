"""Tests for Warp and ThreadBlock runtime state, and the lane values the
reference executor (``tests/reference/executor.py``) computes for them."""

import numpy as np
import pytest

from repro.isa.kernel import KernelBuilder
from repro.isa.instructions import Special
from repro.simt.block import ThreadBlock
from repro.simt.warp import Warp, WarpStatus
from tests.reference import FunctionalExecutor, special_values


def make_block(block_dim=96, block_id=1, grid_dim=4, shared_bytes=0):
    b = KernelBuilder("t", shared_mem_bytes=shared_bytes)
    b.nop()
    kernel = b.build()
    return ThreadBlock(block_id, block_dim, grid_dim, kernel, warp_size=32)


def add_warps(block):
    for w in range(block.num_warps):
        block.warps.append(Warp(w, block, 32, 4, 2, dynamic_id=w))
    return block.warps


class TestWarpCreation:
    def test_partial_last_warp_mask(self):
        block = make_block(block_dim=40)  # 2 warps: 32 + 8 threads
        warps = add_warps(block)
        assert warps[0].initial_mask == (1 << 32) - 1
        assert warps[1].initial_mask == (1 << 8) - 1

    def test_special_values(self):
        block = make_block(block_dim=96, block_id=2)
        warps = add_warps(block)
        w1 = warps[1]
        tid = special_values(w1, Special.TID)
        assert tid[0] == 32 and tid[31] == 63
        gtid = special_values(w1, Special.GTID)
        assert gtid[0] == 2 * 96 + 32
        assert np.all(special_values(w1, Special.CTAID) == 2)
        assert np.all(special_values(w1, Special.WARPID) == 1)

    def test_execution_time(self):
        block = make_block()
        (warp, *_rest) = add_warps(block)
        warp.start_cycle = 100.0
        warp.mark_finished(250.0)
        assert warp.execution_time == 150.0
        assert warp.finished


class TestBarrier:
    def test_barrier_releases_when_all_arrive(self):
        block = make_block(block_dim=96)  # 3 warps
        warps = add_warps(block)
        assert not block.barrier_arrive(warps[0])
        assert not block.barrier_arrive(warps[1])
        assert block.barrier_arrive(warps[2])
        released = block.barrier_release()
        assert len(released) == 3
        assert all(w.status is WarpStatus.RUNNING for w in released)

    def test_finished_warps_dont_block_barrier(self):
        block = make_block(block_dim=96)
        warps = add_warps(block)
        warps[2].mark_finished(10.0)
        assert not block.barrier_arrive(warps[0])
        assert block.barrier_arrive(warps[1])

    def test_pending_release_after_finish(self):
        block = make_block(block_dim=96)
        warps = add_warps(block)
        block.barrier_arrive(warps[0])
        block.barrier_arrive(warps[1])
        warps[2].mark_finished(5.0)
        assert block.barrier_pending_release


class TestBlockLifecycle:
    def test_commit_cycle_set_when_all_finish(self):
        block = make_block(block_dim=64)
        warps = add_warps(block)
        warps[0].mark_finished(10.0)
        assert block.commit_cycle is None
        assert block.live_warps == 1
        warps[1].mark_finished(30.0)
        assert block.commit_cycle == 30.0
        assert block.done

    def test_warp_execution_times(self):
        block = make_block(block_dim=64)
        warps = add_warps(block)
        block.dispatch_cycle = 0.0
        warps[0].mark_finished(10.0)
        warps[1].mark_finished(50.0)
        assert [w.execution_time for w in warps] == [10.0, 50.0]

    def test_shared_memory_roundtrip(self):
        block = make_block(shared_bytes=256)
        addrs = np.zeros(32, dtype=np.int64)
        addrs[:4] = np.arange(4) * 8
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        execu = FunctionalExecutor(None, 32)
        execu.shared_store(block, addrs, np.arange(32, dtype=float), mask)
        values = execu.shared_load(block, addrs, mask)
        assert len(execu.shared(block)) == 256 // 8
        assert np.array_equal(values[:4], np.arange(4, dtype=float))
        assert np.all(values[4:] == 0.0)
