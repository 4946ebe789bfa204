"""Tests for CCBP and the CACP cache management policy (Algorithm 4)."""

import pytest

from repro.config import CacheConfig
from repro.core.cacp import CACPPolicy, RRPV_PROTECTED
from repro.core.ccbp import CriticalCacheBlockPredictor
from repro.memory.cache import Cache, CacheLine
from repro.memory.replacement import RRPV_MAX
from repro.memory.request import MemRequest, make_signature


def req(line_addr, pc=0, critical=False):
    return MemRequest(line_addr, pc, (0, 0, 0), True, critical, 0.0,
                      make_signature(pc, line_addr))


class TestCCBP:
    def test_initially_non_critical(self):
        ccbp = CriticalCacheBlockPredictor()
        assert not ccbp.predicts_critical(5)

    def test_training_flips_prediction(self):
        ccbp = CriticalCacheBlockPredictor()
        ccbp.train_critical_reuse(5)
        assert ccbp.predicts_critical(5)

    def test_wrong_routing_untrains(self):
        ccbp = CriticalCacheBlockPredictor()
        ccbp.train_critical_reuse(5)
        ccbp.train_wrong_routing(5)
        assert not ccbp.predicts_critical(5)

    def test_counters_saturate(self):
        ccbp = CriticalCacheBlockPredictor(counter_max=3)
        for _ in range(10):
            ccbp.train_critical_reuse(5)
        assert ccbp.table[ccbp._index(5)] == 3
        for _ in range(10):
            ccbp.train_wrong_routing(5)
        assert ccbp.table[ccbp._index(5)] == 0

    def test_signature_aliasing_by_table_size(self):
        ccbp = CriticalCacheBlockPredictor(table_size=16)
        ccbp.train_critical_reuse(3)
        assert ccbp.predicts_critical(3 + 16)


class TestCACPModes:
    def test_rejects_bad_ways(self):
        with pytest.raises(ValueError):
            CACPPolicy(critical_ways=0, total_ways=16)
        with pytest.raises(ValueError):
            CACPPolicy(critical_ways=16, total_ways=16)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            CACPPolicy(critical_ways=8, total_ways=16, mode="magic")
        with pytest.raises(ValueError):  # the removed UCP-style mode
            CACPPolicy(critical_ways=8, total_ways=16, mode="dynamic")

    @staticmethod
    def full_set(distant_ways):
        """16 valid ways, near-RRPV except ``distant_ways`` (the victims)."""
        return [CacheLine(valid=True, rrpv=RRPV_MAX if way in distant_ways else 0)
                for way in range(16)]

    def test_priority_mode_uses_full_set(self):
        policy = CACPPolicy(critical_ways=8, total_ways=16, mode="priority")
        assert policy.choose_way(self.full_set({12}), req(0, critical=True), True) == 12
        assert policy.choose_way(self.full_set({3}), req(0), True) == 3

    def test_static_mode_routes_by_classification(self):
        policy = CACPPolicy(critical_ways=8, total_ways=16, mode="static")
        lines = self.full_set({3, 12})
        assert policy.choose_way(lines, req(0, critical=False), True) == 12
        assert policy.choose_way(lines, req(0, critical=True), True) == 3

    def test_requester_criticality_is_a_prior(self):
        policy = CACPPolicy(critical_ways=8, total_ways=16)
        assert policy.classify_critical(req(0, critical=True))
        assert not policy.classify_critical(req(0, critical=False))
        policy.ccbp.train_critical_reuse(req(0).signature)
        assert policy.classify_critical(req(0, critical=False))


class TestCACPInCache:
    def make_cache(self, mode="priority"):
        cfg = CacheConfig(sets=1, ways=4, line_size=128, critical_ways=2)
        return Cache(cfg, CACPPolicy(critical_ways=2, total_ways=4, mode=mode))

    def test_critical_fill_protected_insertion(self):
        cache = self.make_cache()
        cache.access(req(0, critical=True))
        line = cache.lookup(0)
        assert line.rrpv == RRPV_PROTECTED
        assert line.in_critical_partition

    def test_non_critical_fill_ship_insertion(self):
        cache = self.make_cache()
        cache.access(req(0, critical=False))
        line = cache.lookup(0)
        assert line.rrpv in (2, RRPV_MAX)
        assert not line.in_critical_partition

    def test_hit_trains_predictors_per_algorithm4(self):
        cache = self.make_cache()
        policy = cache.policy
        cache.access(req(0, critical=True))
        sig = req(0).signature
        before = policy.ccbp.table[policy.ccbp._index(sig)]
        cache.access(req(0, critical=True))  # critical hit
        assert policy.ccbp.table[policy.ccbp._index(sig)] == before + 1
        line = cache.lookup(0)
        assert line.c_reuse and not line.nc_reuse

    def test_non_critical_hit_sets_nc_reuse(self):
        cache = self.make_cache()
        cache.access(req(0, critical=True))
        cache.access(req(0, critical=False))
        line = cache.lookup(0)
        assert line.nc_reuse

    def test_eviction_trains_wrong_routing(self):
        cache = self.make_cache()
        policy = cache.policy
        sig = req(0).signature
        policy.ccbp.train_critical_reuse(sig)  # route signature critical
        cache.access(req(0, critical=False))  # fills as critical via CCBP
        line = cache.lookup(0)
        assert line.in_critical_partition
        cache.access(req(0, critical=False))  # non-critical reuse only
        before = policy.ccbp.table[policy.ccbp._index(sig)]
        policy.on_evict(line, req(0))
        assert policy.ccbp.table[policy.ccbp._index(sig)] == before - 1

    def test_zero_reuse_eviction_trains_ship(self):
        cache = self.make_cache()
        policy = cache.policy
        sig = req(0, pc=3).signature
        before = policy.ship.table[policy.ship._index(sig)]
        cache.access(req(0, pc=3, critical=False))
        line = cache.lookup(0)
        policy.on_evict(line, req(0, pc=3))
        assert policy.ship.table[policy.ship._index(sig)] == before - 1

    def test_static_mode_cold_start_uses_any_invalid_way(self):
        cache = self.make_cache(mode="static")
        # Fill 3 non-critical lines into a 4-way set whose non-critical
        # partition is only ways 2-3: the third fill must use an invalid
        # critical way rather than evicting.
        for i in range(3):
            cache.access(req(i * 128, critical=False))
        assert cache.stats.evictions == 0
