"""Tests for the warp scheduling policies."""

import pytest

from repro import GPU, GPUConfig
from repro.isa.kernel import KernelBuilder
from repro.scheduling import (
    GCAWSScheduler,
    GTOScheduler,
    LRRScheduler,
    OracleCAWSScheduler,
    TwoLevelScheduler,
    make_scheduler,
)
from repro.scheduling.two_level import FETCH_GROUP_SIZE
from repro.simt.block import ThreadBlock
from repro.simt.warp import Warp
from repro.trace.recorder import TraceRecorder
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
            sched.last = w
            picks.append(w.dynamic_id)
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_skips_missing_warps(self):
        sched = LRRScheduler()
        warps = make_warps(4)
        sched.last = warps[1]
        assert sched.select([warps[0], warps[3]], 0.0) is warps[3]


class TestGTO:
    def test_greedy_sticks_to_last_warp(self):
        sched = GTOScheduler()
        warps = make_warps(4)
        first = sched.select(warps, 0.0)
        sched.last = first
        assert sched.select(warps, 1.0) is first

    def test_falls_back_to_oldest(self):
        sched = GTOScheduler()
        warps = make_warps(4)
        sched.last = warps[2]
        # Greedy target (warp 2) not ready: oldest of the rest wins.
        assert sched.select([warps[1], warps[3]], 1.0) is warps[1]


class TestTwoLevel:
    # Two fetch groups: warps [0, G) and [G, 2G).
    G = FETCH_GROUP_SIZE

    def test_prefers_active_group(self):
        sched = TwoLevelScheduler()
        warps = make_warps(2 * self.G)
        sched.last = warps[self.G + 1]
        assert sched.select(warps, 0.0) is warps[self.G + 2]

    def test_first_pick_is_the_oldest(self):
        warps = make_warps(2 * self.G)
        assert TwoLevelScheduler().select(warps[1:], 0.0) is warps[1]

    def test_switches_group_when_active_stalls(self):
        sched = TwoLevelScheduler()
        warps = make_warps(2 * self.G)
        sched.last = warps[1]
        # Nothing of group 0 is ready: the oldest ready warp's group takes over.
        w = sched.select(warps[self.G + 1:], 0.0)
        assert w is warps[self.G + 1]
        sched.last = w
        # Group 1 is now active and keeps priority over the older group 0.
        assert sched.select(warps, 1.0) is warps[self.G + 2]

    def test_round_robin_within_group(self):
        sched = TwoLevelScheduler()
        warps = make_warps(2 * self.G)
        picks = []
        for _ in range(self.G + 1):
            w = sched.select(warps, 0.0)
            sched.last = w
            picks.append(w.dynamic_id)
        # The group wraps to its oldest warp; group 1 never gets a turn.
        assert picks == [*range(self.G), 0]


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
        sched.last = warps[2]
        assert sched.select(warps, 1.0) is warps[2]

    def test_log_ratio_buckets(self):
        sched = GCAWSScheduler()
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

    @pytest.mark.parametrize("name, knob", [
        ("gcaws", {"greedy": False}),
        ("gcaws", {"ratio": 2.0}),
        ("two_level", {"fetch_group_size": 8}),
    ])
    def test_removed_knobs_are_type_errors(self, name, knob):
        with pytest.raises(TypeError):
            make_scheduler(name, **knob)


class TestLastIssueOnAnSM:
    def test_exited_last_warp_yields_the_oldest(self):
        """When a GTO slot's last-issued warp exits, the slot's next pick is
        the oldest candidate: nothing clears ``last``, and the exited warp
        is never a candidate again."""
        cfg = GPUConfig.default_sim(num_sms=1, num_schedulers_per_sm=1).with_scheduler("gto")
        sm = GPU(cfg).sms[0]
        b = KernelBuilder("nops")
        b.nop()
        b.nop()
        kernel = b.build()
        trace = TraceRecorder(cfg).launch(kernel, 1, 3 * 32)
        block = ThreadBlock(0, 3 * 32, 1, kernel, warp_size=32, trace=trace)
        sm.add_block(block, now=0.0)
        slot = sm.schedulers[0]
        first, second, _ = block.warps
        now = 0.0
        while not first.finished:  # greedy: the oldest runs to its EXIT
            sm.tick_wake(now)
            now += 1.0
        assert slot.last is first and second.issued_instructions == 0
        sm.tick_wake(now)
        assert slot.last is second
