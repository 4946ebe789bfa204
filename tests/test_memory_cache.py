"""Tests for the set-associative cache and replacement policies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.memory.cache import Cache
from repro.memory.replacement import (
    LRUPolicy,
    RRPV_MAX,
    SHiPPolicy,
    SRRIPPolicy,
    make_policy,
)
from repro.memory.request import MemRequest, make_signature


def req(line_addr, pc=0, critical=False, load=True, cycle=0.0):
    return MemRequest(
        line_addr=line_addr,
        pc=pc,
        warp_key=(0, 0, 0),
        is_load=load,
        is_critical=critical,
        cycle=cycle,
        signature=make_signature(pc, line_addr),
    )


def small_cache(policy="lru", sets=2, ways=2):
    cfg = CacheConfig(sets=sets, ways=ways, line_size=128)
    return Cache(cfg, make_policy(policy))


class TestBasicBehaviour:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(req(0)) is False
        assert cache.access(req(0)) is True
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_different_sets_dont_conflict(self):
        cache = small_cache()
        cache.access(req(0))       # set 0
        cache.access(req(128))     # set 1
        assert cache.access(req(0)) is True
        assert cache.access(req(128)) is True

    def test_lru_eviction_order(self):
        cache = small_cache()  # 2 ways per set
        a, b, c = 0, 256, 512  # all map to set 0
        cache.access(req(a))
        cache.access(req(b))
        cache.access(req(a))  # a is MRU now
        cache.access(req(c))  # evicts b
        assert cache.access(req(a)) is True
        assert cache.access(req(b)) is False

    def test_eviction_stats(self):
        cache = small_cache()
        for i in range(3):
            cache.access(req(i * 256))  # same set, 3 lines, 2 ways
        assert cache.stats.evictions == 1
        assert cache.stats.zero_reuse_evictions == 1

    def test_critical_stats_tracked(self):
        cache = small_cache()
        cache.access(req(0, critical=True))
        cache.access(req(0, critical=True))
        cache.access(req(128, critical=False))
        assert cache.stats.critical_accesses == 2
        assert cache.stats.critical_hits == 1
        assert cache.stats.critical_hit_rate == 0.5

    def test_lookup_has_no_side_effects(self):
        cache = small_cache()
        cache.access(req(0))
        before = cache.stats.accesses
        assert cache.lookup(0) is not None
        assert cache.lookup(128) is None
        assert cache.stats.accesses == before

    def test_invalidate_all(self):
        cache = small_cache()
        cache.access(req(0))
        cache.invalidate_all()
        assert cache.lookup(0) is None
        assert cache.occupancy() == 0.0

    def test_a_sets_lines_are_made_at_its_first_fill(self):
        """A wide device builds hundreds of caches; most sets of most of
        them are never touched."""
        cache = small_cache(sets=4, ways=2)
        assert [len(lines) for lines in cache._sets] == [0, 0, 0, 0]
        assert cache.occupancy() == 0.0 and cache.lookup(0) is None
        cache.invalidate_all()  # nothing to walk, nothing to break
        assert not cache.access(req(128))  # set 1
        assert [len(lines) for lines in cache._sets] == [0, 2, 0, 0]
        assert cache.access(req(128)) and cache.occupancy() == 1 / 8
        cache.invalidate_all()
        assert cache.lookup(128) is None and cache.occupancy() == 0.0
        assert not cache.access(req(128)) and cache.stats.evictions == 0

    def test_no_observer_hook(self):
        # Access / evict observers are gone: what a probe did reaches the
        # rest of the simulator as event-bus records (the Fig 3 profiler is
        # a bus collector), so nothing is iterated per access.
        assert not hasattr(small_cache(), "observers")


class TestSRRIP:
    def test_insert_long_promote_near(self):
        cache = small_cache("srrip")
        cache.access(req(0))
        line = cache.lookup(0)
        assert line.rrpv == 2
        cache.access(req(0))
        assert line.rrpv == 0

    def test_victim_prefers_distant(self):
        cache = small_cache("srrip")
        cache.access(req(0))
        cache.access(req(256))
        cache.access(req(0))  # promote line 0 to rrpv 0
        cache.access(req(512))  # must evict line 256 (older rrpv)
        assert cache.lookup(0) is not None
        assert cache.lookup(256) is None


class TestSHiP:
    def test_learns_no_reuse_signature(self):
        policy = SHiPPolicy(table_size=16, initial=1)
        cfg = CacheConfig(sets=1, ways=2, line_size=128)
        cache = Cache(cfg, policy)
        # Stream many distinct lines with the same pc: all evicted with no
        # reuse -> signature trained towards zero -> distant insertion.
        for i in range(8):
            cache.access(req(i * 128, pc=7))
        sig_counters = set()
        for i in range(8):
            sig = make_signature(7, i * 128)
            sig_counters.add(policy.table[policy._index(sig)])
        assert 0 in sig_counters  # at least one signature flipped to no-reuse

    def test_reuse_keeps_long_insertion(self):
        policy = SHiPPolicy(table_size=16, initial=1)
        assert policy.insertion_rrpv(3) == 2
        policy.train_no_reuse(3)
        assert policy.insertion_rrpv(3) == RRPV_MAX
        policy.train_hit(3)
        assert policy.insertion_rrpv(3) == 2


class TestPolicyRegistry:
    def test_make_policy_names(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("srrip"), SRRIPPolicy)
        assert isinstance(make_policy("ship"), SHiPPolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("mru")


class _RefLRU:
    """Reference model: per-set ordered list."""

    def __init__(self, sets, ways, line_size):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.line_size = line_size
        self.nsets = sets

    def access(self, line_addr):
        idx = (line_addr // self.line_size) % self.nsets
        s = self.sets[idx]
        if line_addr in s:
            s.remove(line_addr)
            s.append(line_addr)
            return True
        s.append(line_addr)
        if len(s) > self.ways:
            s.pop(0)
        return False


@settings(max_examples=40, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200),
)
def test_prop_lru_matches_reference_model(addrs):
    cfg = CacheConfig(sets=2, ways=4, line_size=128)
    cache = Cache(cfg, LRUPolicy())
    ref = _RefLRU(2, 4, 128)
    for token in addrs:
        line_addr = token * 128
        assert cache.access(req(line_addr)) == ref.access(line_addr)
