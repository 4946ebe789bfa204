"""Tests for the warp scheduling policies."""

import pytest

from repro.isa.kernel import KernelBuilder
from repro.scheduling import (
    GCAWSScheduler,
    GTOScheduler,
    LRRScheduler,
    OracleCAWSScheduler,
    TwoLevelScheduler,
    make_scheduler,
)
from repro.simt.block import ThreadBlock
from repro.simt.warp import Warp
from tests.oracles import set_criticality


def make_warps(count, block_dim=None, num_blocks=1):
    """Create `count` warps spread over `num_blocks` blocks."""
    b = KernelBuilder("t")
    b.nop()
    kernel = b.build()
    warps = []
    per_block = count // num_blocks
    for blk in range(num_blocks):
        block = ThreadBlock(blk, per_block * 32, num_blocks, kernel, 32)
        for w in range(per_block):
            warp = Warp(w, block, 32, 2, 1, dynamic_id=blk * per_block + w)
            block.warps.append(warp)
            warps.append(warp)
    return warps


class TestLRR:
    def test_rotates_fairly(self):
        sched = LRRScheduler()
        warps = make_warps(4)
        picks = []
        for _ in range(8):
            w = sched.select(warps, 0.0)
            sched.notify_issue(w, 0.0)
            picks.append(w.dynamic_id)
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_skips_missing_warps(self):
        sched = LRRScheduler()
        warps = make_warps(4)
        sched.notify_issue(warps[1], 0.0)
        assert sched.select([warps[0], warps[3]], 0.0) is warps[3]


class TestGTO:
    def test_greedy_sticks_to_last_warp(self):
        sched = GTOScheduler()
        warps = make_warps(4)
        first = sched.select(warps, 0.0)
        sched.notify_issue(first, 0.0)
        assert sched.select(warps, 1.0) is first

    def test_falls_back_to_oldest(self):
        sched = GTOScheduler()
        warps = make_warps(4)
        sched.notify_issue(warps[2], 0.0)
        # Greedy target (warp 2) not ready: oldest of the rest wins.
        assert sched.select([warps[1], warps[3]], 1.0) is warps[1]

    def test_finished_target_cleared(self):
        sched = GTOScheduler()
        warps = make_warps(2)
        sched.notify_issue(warps[1], 0.0)
        sched.notify_warp_finished(warps[1])
        assert sched.select(warps, 1.0) is warps[0]


class TestTwoLevel:
    def test_prefers_active_group(self):
        sched = TwoLevelScheduler(fetch_group_size=2)
        warps = make_warps(4)
        # Group 0 = warps 0,1; group 1 = warps 2,3.
        assert sched.select(warps, 0.0).dynamic_id in (0, 1)

    def test_switches_group_when_active_stalls(self):
        sched = TwoLevelScheduler(fetch_group_size=2)
        warps = make_warps(4)
        w = sched.select([warps[2], warps[3]], 0.0)
        assert w.dynamic_id in (2, 3)
        sched.notify_issue(w, 0.0)
        # Group 1 is now active and keeps priority.
        pick = sched.select(warps, 1.0)
        assert pick.dynamic_id in (2, 3)

    def test_round_robin_within_group(self):
        sched = TwoLevelScheduler(fetch_group_size=4)
        warps = make_warps(4)
        picks = []
        for _ in range(4):
            w = sched.select(warps, 0.0)
            sched.notify_issue(w, 0.0)
            picks.append(w.dynamic_id)
        assert picks == [0, 1, 2, 3]

    def test_rejects_bad_group_size(self):
        with pytest.raises(ValueError):
            TwoLevelScheduler(fetch_group_size=0)


class TestOracleCAWS:
    def test_prioritizes_by_oracle_time(self):
        warps = make_warps(3)
        oracle = {(0, 0): 10.0, (0, 1): 99.0, (0, 2): 50.0}
        sched = OracleCAWSScheduler(oracle)
        assert sched.select(warps, 0.0) is warps[1]

    def test_missing_oracle_entries_rank_lowest(self):
        warps = make_warps(2)
        sched = OracleCAWSScheduler({(0, 1): 5.0})
        assert sched.select(warps, 0.0) is warps[1]


class TestGCAWS:
    def test_ties_fall_back_to_oldest(self):
        warps = make_warps(4)
        sched = GCAWSScheduler()
        assert sched.select(warps, 0.0) is warps[0]

    def test_tail_phase_prioritizes_critical(self):
        warps = make_warps(4)
        block = warps[0].block
        # Finish half the block: tail phase begins.
        warps[2].mark_finished(1.0)
        warps[3].mark_finished(1.0)
        set_criticality(warps[1], 10_000.0)
        set_criticality(warps[0], 10.0)
        assert sched_select(sched := GCAWSScheduler(), [warps[0], warps[1]]) is warps[1]

    def test_pre_tail_ignores_criticality(self):
        warps = make_warps(4)
        set_criticality(warps[1], 10_000.0)
        sched = GCAWSScheduler()
        # No warp finished: concentration (oldest) wins despite criticality.
        assert sched.select(warps, 0.0) is warps[0]

    def test_greedy_persists(self):
        warps = make_warps(4)
        sched = GCAWSScheduler()
        sched.notify_issue(warps[2], 0.0)
        assert sched.select(warps, 1.0) is warps[2]

    def test_non_greedy_ablation(self):
        warps = make_warps(4)
        sched = GCAWSScheduler(greedy=False)
        sched.notify_issue(warps[2], 0.0)
        assert sched.select(warps, 1.0) is warps[0]

    def test_log_ratio_buckets(self):
        sched = GCAWSScheduler(ratio=2.0)
        warps = make_warps(4)
        for w in warps[1:]:
            w.mark_finished(0.0)
        warp = warps[0]
        set_criticality(warp, 0.0)
        assert sched._bucket(warp) == 0
        set_criticality(warp, 1.0)
        b1 = sched._bucket(warp)
        set_criticality(warp, 1.9)
        assert sched._bucket(warp) == b1
        set_criticality(warp, 4.0)
        assert sched._bucket(warp) > b1


def sched_select(sched, ready):
    return sched.select(ready, 0.0)


class TestRegistry:
    def test_all_names_construct(self):
        for name in ["lrr", "rr", "gto", "two_level", "2lev", "caws", "gcaws"]:
            assert make_scheduler(name) is not None

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo")
