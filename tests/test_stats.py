"""Tests for the stats/analysis modules (disparity, reuse, accuracy, report)."""

import numpy as np
import pytest

from repro.isa.kernel import KernelBuilder
from repro.memory.cache import CacheStats
from repro.obs.events import Ev
from repro.simt.block import ThreadBlock
from repro.simt.warp import Warp
from repro.stats.counters import RunResult, merge_cache_stats
from repro.stats.disparity import (
    block_disparity,
    critical_warp_of,
    max_block_disparity,
    mean_block_disparity,
    memory_stall_share,
    scheduler_stall_share,
    warp_time_profile,
)
from repro.stats.report import format_table
from repro.stats.reuse import BUCKETS, ReuseDistanceProfiler, ReuseProfile


def make_block(times):
    b = KernelBuilder("t")
    b.nop()
    kernel = b.build()
    block = ThreadBlock(0, len(times) * 32, 1, kernel, 32)
    block.dispatch_cycle = 0.0
    for i, t in enumerate(times):
        warp = Warp(i, block, 32, 2, 1, dynamic_id=i)
        block.warps.append(warp)
        warp.start_cycle = 0.0
        warp.mark_finished(t)
    return block


def probe(line_addr, pc=0, critical=False, hit=False, level=0):
    """An L1 (level 0) probe record as the cache emits it on the bus."""
    return (Ev.CACHE_HIT if hit else Ev.CACHE_MISS, 0.0, 0, level, pc,
            line_addr, 1 if critical else 0)


class TestDisparity:
    def test_profile_sorted(self):
        block = make_block([30.0, 10.0, 20.0])
        assert warp_time_profile(block) == [10.0, 20.0, 30.0]

    def test_disparity_relative_to_max(self):
        block = make_block([50.0, 100.0])
        assert block_disparity(block) == pytest.approx(0.5)

    def test_disparity_relative_to_min(self):
        block = make_block([50.0, 100.0])
        assert block_disparity(block, relative_to="min") == pytest.approx(1.0)

    def test_single_warp_block_is_none(self):
        block = make_block([10.0])
        assert block_disparity(block) is None

    def test_bad_relative_mode(self):
        block = make_block([1.0, 2.0])
        with pytest.raises(ValueError):
            block_disparity(block, relative_to="median")

    def test_max_and_mean_over_run(self):
        r = RunResult("k", "rr", 100, 1, 1, CacheStats(), CacheStats(),
                      blocks=[make_block([10, 20]), make_block([10, 40])])
        assert max_block_disparity(r) == pytest.approx(0.75)
        assert mean_block_disparity(r) == pytest.approx((0.5 + 0.75) / 2)

    def test_critical_warp_is_slowest(self):
        block = make_block([10.0, 99.0, 50.0])
        assert critical_warp_of(block).warp_id_in_block == 1

    def test_stall_shares(self):
        block = make_block([100.0])
        warp = block.warps[0]
        # 51 issues over cycles 0..100: 50 stall cycles, 40 of them
        # waiting on loads, the other 10 scheduler stall.
        warp.issued_instructions = 51
        warp.last_issue_cycle = 100.0
        warp.data_stall_cycles = warp.mem_stall_cycles = 40.0
        assert warp.sched_stall_cycles == 10.0
        assert memory_stall_share(warp) == pytest.approx(0.4)
        assert scheduler_stall_share(warp) == pytest.approx(0.1)


class TestReuseDistance:
    def test_first_touch_is_not_rereference(self):
        profiler = ReuseDistanceProfiler()
        profiler.append(probe(0))
        assert profiler.non_critical.references == 1
        assert profiler.non_critical.rereferences == 0

    def test_immediate_reuse_distance_zero(self):
        profiler = ReuseDistanceProfiler()
        profiler.append(probe(0))
        profiler.append(probe(0, hit=True))
        assert profiler.non_critical.histogram[0] == 1

    def test_stack_distance_counts_distinct_lines(self):
        profiler = ReuseDistanceProfiler()
        profiler.append(probe(0))
        for i in range(1, 10):
            profiler.append(probe(i * 128))
        profiler.append(probe(0, hit=True))
        # 9 distinct lines in between: falls into the [8, 16) bucket.
        assert profiler.non_critical.histogram[1] == 1

    def test_critical_and_noncritical_separated(self):
        profiler = ReuseDistanceProfiler()
        profiler.append(probe(0, critical=True))
        profiler.append(probe(0, critical=True, hit=True))
        profiler.append(probe(128))
        assert profiler.critical.rereferences == 1
        assert profiler.non_critical.rereferences == 0

    def test_fraction_beyond_capacity(self):
        profile = ReuseProfile()
        profile.record(2)      # bucket [0, 8)
        profile.record(300)    # bucket [256, 512)
        profile.record(10_000)  # open-ended bucket
        assert profile.fraction_beyond(128) == pytest.approx(2 / 3)
        assert profile.fraction_beyond(1024) == pytest.approx(1 / 3)

    def test_per_pc_profiles(self):
        profiler = ReuseDistanceProfiler()
        profiler.append(probe(0, pc=3))
        profiler.append(probe(0, pc=5, hit=True))
        # Reuse is attributed to the PC that *filled* the line.
        assert profiler.by_pc[3].rereferences == 1

    def test_reads_l1_probe_records_only(self):
        profiler = ReuseDistanceProfiler()
        profiler.append(probe(0, level=1))  # the L2's probe of the same line
        profiler.append((Ev.CACHE_FILL, 0.0, 0, 0, 0, 0))
        assert profiler.non_critical.references == 0
        profiler.append(probe(0))
        profiler.append(probe(0, hit=True))
        assert profiler.non_critical.references == 2
        assert profiler.non_critical.rereferences == 1


class TestCountersAndReport:
    def test_merge_cache_stats(self):
        a = CacheStats(accesses=10, hits=5, misses=5, evictions=2)
        b = CacheStats(accesses=4, hits=4, critical_accesses=3, critical_hits=2)
        merged = merge_cache_stats([a, b])
        assert merged.accesses == 14
        assert merged.hits == 9
        assert merged.critical_hit_rate == pytest.approx(2 / 3)

    def test_run_result_metrics(self):
        stats = CacheStats(accesses=100, hits=60, misses=40)
        r = RunResult("k", "rr", cycles=1000, thread_instructions=4000,
                      warp_instructions=200, l1_stats=stats, l2_stats=CacheStats())
        assert r.ipc == 4.0
        assert r.l1_mpki == 10.0
        assert r.l1_hit_rate == 0.6

    def test_speedup_over(self):
        stats = CacheStats()
        a = RunResult("k", "rr", 1000, 4000, 1, stats, stats)
        b = RunResult("k", "gto", 500, 4000, 1, stats, stats)
        assert b.speedup_over(a) == 2.0

    def test_format_table_alignment(self):
        text = format_table(["name", "ipc"], [["bfs", 1.234567], ["kmeans", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.235" in text
        assert lines[0].index("ipc") == lines[2].index("1.235")

    def test_zero_cycles_safe(self):
        r = RunResult("k", "rr", 0, 0, 0, CacheStats(), CacheStats())
        assert r.ipc == 0.0
        assert r.l1_mpki == 0.0
