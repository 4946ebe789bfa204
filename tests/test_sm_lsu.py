"""Tests for the load-store unit: coalescing and access timing."""

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.errors import TraceFormatError
from repro.isa.instructions import Instruction, MemSpace, Opcode
from repro.isa.kernel import KernelBuilder
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mshr import MSHRFile
from repro.memory.replacement import make_policy
from repro.simt.block import ThreadBlock
from repro.simt.mask import full_mask
from repro.simt.warp import Warp
from repro.sm.lsu import LoadStoreUnit, coalesce_lines


@pytest.fixture
def env():
    config = GPUConfig.default_sim()
    hierarchy = MemoryHierarchy(config)
    l1 = Cache(config.l1d, make_policy("lru"))
    mshr = MSHRFile(config.l1d.mshr_entries)
    lsu = LoadStoreUnit(0, l1, mshr, hierarchy)
    b = KernelBuilder("t")
    b.nop()
    kernel = b.build()
    block = ThreadBlock(0, 32, 1, kernel, 32)
    warp = Warp(0, block, 32, 4, 2, dynamic_id=0)
    block.warps.append(warp)
    return config, lsu, warp


def load_inst(pc=0):
    return Instruction(Opcode.LD, dst=0, srcs=(1,), imm=0.0, pc=pc)


def recorded_lines(lsu, addrs, mask=full_mask(32)):
    """The recorded line list of an access: the functional pass's rule."""
    return coalesce_lines(addrs, mask, lsu.l1d.config.line_size)


class TestCoalescing:
    def test_consecutive_words_coalesce(self, env):
        _, lsu, _ = env
        addrs = np.arange(32, dtype=np.int64) * 8  # 256B = 2 lines
        assert recorded_lines(lsu, addrs, full_mask(32)) == [0, 128]

    def test_same_address_broadcast_is_one_line(self, env):
        _, lsu, _ = env
        addrs = np.zeros(32, dtype=np.int64)
        assert recorded_lines(lsu, addrs, full_mask(32)) == [0]

    def test_strided_access_explodes(self, env):
        _, lsu, _ = env
        addrs = np.arange(32, dtype=np.int64) * 128  # one line per lane
        assert len(recorded_lines(lsu, addrs, full_mask(32))) == 32

    def test_mask_restricts_lanes(self, env):
        _, lsu, _ = env
        addrs = np.arange(32, dtype=np.int64) * 128
        assert len(recorded_lines(lsu, addrs, 0b1)) == 1


class TestIssueTiming:
    def test_zero_mask_is_cheap(self, env):
        _, lsu, warp = env
        completion, lines = lsu.issue(warp, load_inst(), 0, 10.0, False, None)
        assert lines == 0
        assert completion == 11.0

    def test_shared_space_fixed_latency(self, env):
        _, lsu, warp = env
        inst = Instruction(Opcode.LD, dst=0, srcs=(1,), imm=0.0,
                           space=MemSpace.SHARED, pc=0)
        completion, lines = lsu.issue(warp, inst, full_mask(32), 10.0, False, None)
        assert lines == 0
        assert completion == 10.0 + lsu.shared_latency

    def test_live_global_access_needs_its_lines(self, env):
        _, lsu, warp = env
        with pytest.raises(TraceFormatError, match="no line addresses"):
            lsu.issue(warp, load_inst(), full_mask(32), 0.0, False, None)
        assert lsu.global_accesses == 0

    def test_more_lines_take_longer(self, env):
        config, lsu, warp = env
        one_line = recorded_lines(lsu, np.zeros(32, dtype=np.int64))
        c1, n1 = lsu.issue(warp, load_inst(), full_mask(32), 0.0, False, one_line)
        assert n1 == 1
        # New LSU for a clean queue.
        hierarchy = MemoryHierarchy(config)
        l1 = Cache(config.l1d, make_policy("lru"))
        lsu2 = LoadStoreUnit(0, l1, MSHRFile(32), hierarchy)
        scattered = recorded_lines(lsu, np.arange(32, dtype=np.int64) * 128)
        c32, n32 = lsu2.issue(warp, load_inst(), full_mask(32), 0.0, False, scattered)
        assert n32 == 32
        assert c32 > c1

    def test_l1_hit_completion_is_fast(self, env):
        config, lsu, warp = env
        lines = recorded_lines(lsu, np.zeros(32, dtype=np.int64))
        lsu.issue(warp, load_inst(), full_mask(32), 0.0, False, lines)
        completion, _ = lsu.issue(warp, load_inst(), full_mask(32), 1000.0, False, lines)
        assert completion <= 1000.0 + config.l1d.hit_latency + 1

    def test_stats_track_misses(self, env):
        _, lsu, warp = env
        lines = recorded_lines(lsu, np.arange(32, dtype=np.int64) * 128)
        lsu.issue(warp, load_inst(), full_mask(32), 0.0, False, lines)
        assert lsu.global_accesses == 1
        assert lsu.line_accesses == 32
        assert lsu.l1_misses == 32

    def test_critical_flag_propagates(self, env):
        _, lsu, warp = env
        lines = recorded_lines(lsu, np.zeros(32, dtype=np.int64))
        lsu.issue(warp, load_inst(), full_mask(32), 0.0, True, lines)
        assert lsu.l1d.stats.critical_accesses == 1
