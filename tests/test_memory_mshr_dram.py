"""Tests for MSHR merging/throttling and the DRAM/L2 timing models."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.memory.dram import DRAMModel
from repro.memory.l2 import BankedL2
from repro.memory.mshr import MSHRFile
from repro.memory.request import MemRequest, make_signature


def req(line_addr, cycle=0.0):
    return MemRequest(line_addr, 0, (0, 0, 0), True, False, cycle,
                      make_signature(0, line_addr))


def has_free_entry(mshr, t):
    """Whether a new miss at ``t`` would start at once (no full-file
    delay), asked of a copy: the query retires fills and counts stalls."""
    return copy.deepcopy(mshr).merge_or_start(-128, t) == (False, t)


class TestMSHR:
    def test_merge_or_start_merges_inflight(self):
        mshr = MSHRFile(entries=4)
        mshr.register(0, completion=100.0)
        assert mshr.merge_or_start(0, now=50.0) == (True, 100.0)
        assert mshr.merged_misses == 1

    def test_merge_or_start_starts_after_completion(self):
        mshr = MSHRFile(entries=4)
        mshr.register(0, completion=100.0)
        assert mshr.merge_or_start(0, now=150.0) == (False, 150.0)
        assert mshr.merged_misses == 0

    def test_full_detection(self):
        mshr = MSHRFile(entries=2)
        mshr.register(0, 100.0)
        assert has_free_entry(mshr, 0.0)
        mshr.register(128, 120.0)
        assert not has_free_entry(mshr, 0.0)
        assert has_free_entry(mshr, 101.0)  # entry 0 completed

    def test_next_free_time(self):
        mshr = MSHRFile(entries=1)
        assert mshr.next_free_time(0.0) == 0.0
        mshr.register(0, 100.0)
        assert mshr.next_free_time(5.0) == 100.0

    def test_next_free_time_when_over_subscribed(self):
        # merge_or_start delays a miss that finds the file full, but
        # register still admits it: with entries + k fills in flight an
        # entry frees at the (k + 1)-th completion, not the first.
        mshr = MSHRFile(entries=2)
        for line, done in enumerate([100.0, 110.0, 120.0, 130.0]):
            mshr.register(line * 128, done)
        assert mshr.next_free_time(5.0) == 120.0
        assert not has_free_entry(mshr, 110.0)  # two fills done, still full
        assert mshr.next_free_time(110.0) == 120.0
        assert has_free_entry(mshr, 120.0)
        assert mshr.next_free_time(125.0) == 125.0

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.integers(1, 4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["register", "merge_or_start", "wait"]),
                st.integers(0, 7),    # line index
                st.integers(1, 40),   # fill latency / cycles waited
            ),
            max_size=40,
        ),
    )
    def test_prop_next_free_time_is_first_cycle_with_a_free_entry(self, entries, ops):
        mshr = MSHRFile(entries)
        now = 0.0
        for op, line, amount in ops:
            if op == "register":  # admitted even when the file is full
                mshr.register(line * 128, now + amount)
            elif op == "merge_or_start":
                mshr.merge_or_start(line * 128, now)
            else:
                now += amount
            candidates = [now] + sorted(t for t in mshr._inflight.values() if t > now)
            expected = next(t for t in candidates if has_free_entry(mshr, t))
            assert mshr.next_free_time(now) == expected

    def test_merge_or_start_throttles_when_full(self):
        mshr = MSHRFile(entries=1)
        mshr.register(0, 100.0)
        assert mshr.merge_or_start(128, 10.0) == (False, 100.0)
        assert mshr.stall_inducing_misses == 1

    def test_outstanding_count(self):
        mshr = MSHRFile(entries=8)
        mshr.register(0, 100.0)
        mshr.register(128, 90.0)
        assert mshr.outstanding == 2


class TestDRAM:
    def test_min_latency(self):
        dram = DRAMModel(latency=220, service_interval=4)
        assert dram.access(0.0) == 220.0

    def test_bandwidth_queueing(self):
        dram = DRAMModel(latency=220, service_interval=4)
        first = dram.access(0.0)
        second = dram.access(0.0)
        assert first == 220.0
        assert second == 224.0  # queued behind the first request

    def test_idle_gap_resets_queue(self):
        dram = DRAMModel(latency=220, service_interval=4)
        dram.access(0.0)
        assert dram.access(1000.0) == 1220.0

    def test_access_count(self):
        dram = DRAMModel(latency=220, service_interval=4)
        dram.access(0.0)
        dram.access(0.0)
        assert dram.accesses == 2


class TestBankedL2:
    def make(self):
        return BankedL2(
            CacheConfig(sets=4, ways=2, line_size=128),
            num_banks=2,
            latency=120,
            service_interval=2,
        )

    def test_bank_interleaving(self):
        l2 = self.make()
        assert l2.bank_of(0) == 0
        assert l2.bank_of(128) == 1
        assert l2.bank_of(256) == 0

    def test_hit_latency(self):
        l2 = self.make()
        miss_hit, start, ready = l2.access(req(0), 0.0)
        assert miss_hit is False and ready == 120.0
        hit, start, ready = l2.access(req(0), 200.0)
        assert hit is True and ready == 320.0

    def test_same_bank_queues(self):
        l2 = self.make()
        _, s1, _ = l2.access(req(0), 0.0)
        _, s2, _ = l2.access(req(256), 0.0)  # same bank 0
        assert s1 == 0.0 and s2 == 2.0

    def test_different_banks_parallel(self):
        l2 = self.make()
        _, s1, _ = l2.access(req(0), 0.0)
        _, s2, _ = l2.access(req(128), 0.0)  # bank 1
        assert s1 == 0.0 and s2 == 0.0
