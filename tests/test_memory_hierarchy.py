"""Tests for the composed memory hierarchy timing walk.

:func:`walk` drives one line the way the LSU does — probe the L1, and call
``MemoryHierarchy.miss`` only on a miss — and reports ``(l1_hit,
completion, merged)``; the literal tuples below are what the default device
returned when the outcome was still an ``AccessOutcome`` object (recorded at
that commit).
"""

import pytest

from repro.config import CacheConfig, GPUConfig
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mshr import MSHRFile
from repro.memory.replacement import LRUPolicy
from repro.memory.request import MemRequest, make_signature


def req(line_addr, cycle=0.0, critical=False):
    return MemRequest(line_addr, 0, (0, 0, 0), True, critical, cycle,
                      make_signature(0, line_addr))


def walk(hierarchy, l1, mshr, request, now):
    """Probe, then miss: ``(l1_hit, completion, merged)``."""
    if l1.access(request):
        return True, now + l1.config.hit_latency, False
    merges = mshr.merged_misses
    completion = hierarchy.miss(l1, mshr, request, now)
    return False, completion, mshr.merged_misses > merges


@pytest.fixture
def env():
    config = GPUConfig.default_sim()
    hierarchy = MemoryHierarchy(config)
    l1 = Cache(config.l1d, LRUPolicy())
    mshr = MSHRFile(config.l1d.mshr_entries)
    return config, hierarchy, l1, mshr


class TestTimingWalk:
    def test_l1_hit_is_fast(self, env):
        config, hierarchy, l1, mshr = env
        walk(hierarchy, l1, mshr, req(0), 0.0)
        l1_hit, completion, merged = walk(hierarchy, l1, mshr, req(0), 1000.0)
        assert l1_hit
        assert completion == 1000.0 + config.l1d.hit_latency
        assert (l1_hit, completion, merged) == (True, 1002.0, False)

    def test_cold_miss_goes_to_dram(self, env):
        config, hierarchy, l1, mshr = env
        l1_hit, completion, merged = walk(hierarchy, l1, mshr, req(0), 0.0)
        assert not l1_hit
        # L1 probe + DRAM minimum latency, no queueing on an idle system.
        assert completion == config.l1d.hit_latency + config.dram_latency
        assert (l1_hit, completion, merged) == (False, 222.0, False)

    def test_l2_hit_faster_than_dram(self, env):
        config, hierarchy, l1, mshr = env
        walk(hierarchy, l1, mshr, req(0), 0.0)  # fills L2
        l1.invalidate_all()  # force L1 miss, L2 still holds the line
        l1_hit, completion, merged = walk(hierarchy, l1, mshr, req(0), 10_000.0)
        assert not l1_hit
        assert completion == 10_000.0 + config.l1d.hit_latency + config.l2_latency
        assert (l1_hit, completion, merged) == (False, 10_122.0, False)

    def test_mshr_merge_returns_same_completion(self, env):
        config, hierarchy, l1, mshr = env
        first = walk(hierarchy, l1, mshr, req(0), 0.0)
        # A second L1 access before the fill completes would hit the L1 tag
        # only after the fill; model it as a fresh request to the same line
        # arriving from another warp while the line is in flight.
        l1.invalidate_all()
        second = walk(hierarchy, l1, mshr, req(0), 5.0)
        assert second[2]  # merged
        assert second[1] == max(first[1], 5.0 + config.l1d.hit_latency)
        assert hierarchy.dram.accesses == 1  # no duplicate DRAM traffic
        assert first == (False, 222.0, False)
        assert second == (False, 222.0, True)

    def test_dram_queueing_composes(self, env):
        config, hierarchy, l1, mshr = env
        outs = [walk(hierarchy, l1, mshr, req(i * 128), 0.0) for i in range(4)]
        completions = [completion for _, completion, _ in outs]
        assert completions == sorted(completions)
        assert completions[-1] > completions[0]
        assert outs == [(False, 222.0, False), (False, 226.0, False),
                        (False, 230.0, False), (False, 234.0, False)]

    def test_l2_stats_accumulate(self, env):
        config, hierarchy, l1, mshr = env
        walk(hierarchy, l1, mshr, req(0), 0.0)
        assert hierarchy.l2.stats.accesses == 1
        assert hierarchy.l2.stats.misses == 1

    def test_no_probe_and_miss_shortcut(self):
        # The LSU probes its L1 itself; the hierarchy serves misses only.
        assert not hasattr(MemoryHierarchy, "access")
