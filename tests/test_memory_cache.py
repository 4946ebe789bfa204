"""Tests for the set-associative cache, LRU and SRRIP's victim search."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.memory.cache import Cache, CacheLine
from repro.memory.replacement import LRUPolicy, RRPV_MAX, srrip_victim
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


def small_cache(sets=2, ways=2):
    cfg = CacheConfig(sets=sets, ways=ways, line_size=128)
    return Cache(cfg, LRUPolicy())


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
    """SRRIP's victim search, shared by CACP's fills (``memory/replacement``)."""

    def test_victim_prefers_distant(self):
        lines = [CacheLine(valid=True, rrpv=rrpv) for rrpv in (0, 2, 1, 2)]
        # No way is distant yet: the range ages one step to bring the
        # first way at the old maximum to RRPV_MAX, and that way goes.
        assert srrip_victim(lines, 0, 4) == 1
        assert [line.rrpv for line in lines] == [1, RRPV_MAX, 2, RRPV_MAX]
        # A distant way in the range is taken as it is, nothing ages.
        assert srrip_victim(lines, 2, 4) == 3
        assert [line.rrpv for line in lines] == [1, RRPV_MAX, 2, RRPV_MAX]


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
