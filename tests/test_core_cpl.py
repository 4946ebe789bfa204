"""Tests for the Criticality Prediction Logic (CPL)."""

from dataclasses import replace

import pytest

from repro import GPU, GPUConfig
from repro.core.cpl import CriticalityPredictor
from repro.experiments.fig12 import PriorityTrace
from repro.isa.instructions import Instruction, Opcode
from repro.isa.kernel import KernelBuilder
from repro.obs.events import Ev
from repro.simt.block import ThreadBlock
from repro.simt.warp import Warp
from repro.trace.recorder import TraceRecorder
from tests.oracles import set_cpl_inputs, set_criticality


def make_block_with_warps(num_warps=4):
    b = KernelBuilder("t")
    b.nop()
    kernel = b.build()
    block = ThreadBlock(0, num_warps * 32, 1, kernel, 32)
    for w in range(num_warps):
        warp = Warp(w, block, 32, 2, 1, dynamic_id=w)
        block.warps.append(warp)
    return block


def issue(warp, data_stall=0.0, sched_stall=0.0):
    """Record what the SM's issue path records for CPL: this issue's CPI
    inputs and its data stall, then move the cursor past a gap of both
    stalls."""
    warp._cpl_idx = warp.issued_instructions
    warp._cpl_prev_issue = warp.last_issue_cycle
    warp._criticality = None
    warp.data_stall_cycles += data_stall
    warp.issued_instructions += 1
    warp.last_issue_cycle += 1.0 + data_stall + sched_stall


def branch(pc=0, target=10, reconv=20):
    return replace(
        Instruction(Opcode.BRA, pred=0, target=None, reconv=None),
        pc=pc,
        target_pc=target,
        reconv_pc=reconv,
    )


class TestInstructionTerm:
    def test_divergent_branch_adds_both_paths(self):
        cpl = CriticalityPredictor()
        block = make_block_with_warps()
        warp = block.warps[0]
        # fallthrough = [1, 10) = 9 insts, taken = [10, 20) = 10 insts
        cpl.on_branch(warp, branch(), diverged=True, all_taken=False)
        assert warp.cpl_inst_disparity == 19

    def test_taken_path_only(self):
        cpl = CriticalityPredictor()
        block = make_block_with_warps()
        warp = block.warps[0]
        cpl.on_branch(warp, branch(), diverged=False, all_taken=True)
        assert warp.cpl_inst_disparity == 10

    def test_fallthrough_path_only(self):
        cpl = CriticalityPredictor()
        block = make_block_with_warps()
        warp = block.warps[0]
        cpl.on_branch(warp, branch(), diverged=False, all_taken=False)
        assert warp.cpl_inst_disparity == 9

    def test_unconditional_branch_ignored(self):
        cpl = CriticalityPredictor()
        block = make_block_with_warps()
        warp = block.warps[0]
        inst = replace(Instruction(Opcode.BRA), pc=5, target_pc=0, reconv_pc=-1)
        cpl.on_branch(warp, inst, diverged=False, all_taken=True)
        assert warp.cpl_inst_disparity == 0

    def test_commit_decrements(self):
        cpl = CriticalityPredictor()
        block = make_block_with_warps()
        warp = block.warps[0]
        cpl.on_branch(warp, branch(), diverged=False, all_taken=True)
        before = warp.cpl_inst_disparity
        issue(warp)
        assert warp.cpl_inst_disparity == before - 1

    def test_inst_term_never_negative(self):
        cpl = CriticalityPredictor()
        block = make_block_with_warps()
        warp = block.warps[0]
        inst = branch(pc=0, target=3, reconv=3)  # fall-through: 2 insts
        cpl.on_branch(warp, inst, diverged=False, all_taken=False)
        for _ in range(5):
            issue(warp)
        assert warp.cpl_inst_disparity == 0
        # The next branch starts from zero, not from a debt.
        cpl.on_branch(warp, inst, diverged=False, all_taken=False)
        assert warp.cpl_inst_disparity == 2


class TestStallTerm:
    def test_stalls_accumulate(self):
        block = make_block_with_warps()
        warp = block.warps[0]
        issue(warp, data_stall=100.0)
        issue(warp, data_stall=50.0)
        assert warp.cpl_stall == 150.0
        assert warp.criticality >= 150.0

    def test_negative_stall_clamped(self):
        """Scheduler wait is no data stall: only the difference of the two
        stall sums counts, and a warp CPL never accounted has none."""
        block = make_block_with_warps()
        warp = block.warps[0]
        issue(warp, sched_stall=5.0)
        assert warp.total_stall_cycles == warp.sched_stall_cycles == 5.0
        assert warp.cpl_stall == 0.0
        fresh = block.warps[1]
        fresh.data_stall_cycles = 5.0
        assert fresh.cpl_stall == 0.0 and fresh.criticality == 0.0


class TestEquationOne:
    def test_counter_combines_terms_with_cpi(self):
        block = make_block_with_warps()
        warp = block.warps[0]
        # A known CPI: 10 instructions over 40 cycles = 4.0.
        set_cpl_inputs(warp, idx=10, elapsed=40.0, disparity=10.0, stall=7.0)
        assert warp.criticality == pytest.approx(10 * 4.0 + 7.0)

    def test_cpi_floor_is_one(self):
        block = make_block_with_warps()
        warp = block.warps[0]
        set_cpl_inputs(warp, idx=100, elapsed=10.0, disparity=3.0)  # CPI 0.1
        assert warp.criticality == 3.0

    def test_counter_is_computed_once_per_issue(self):
        block = make_block_with_warps()
        warp = block.warps[0]
        issue(warp, data_stall=4.0)
        assert warp.criticality == 4.0
        warp.data_stall_cycles += 1.0  # not an issue: the value stands
        assert warp.criticality == 4.0
        issue(warp)
        assert warp.criticality == 5.0


class TestVerdicts:
    def test_slower_half_flagged(self):
        cpl = CriticalityPredictor()
        block = make_block_with_warps(4)
        for i, warp in enumerate(block.warps):
            set_criticality(warp, float(i * 100))
        cpl.refresh_block(block)
        flags = [cpl.is_critical(w) for w in block.warps]
        assert flags == [False, False, True, True]

    def test_verdicts_sticky_between_refreshes(self):
        cpl = CriticalityPredictor(update_period=1000)
        block = make_block_with_warps(4)
        for i, warp in enumerate(block.warps):
            set_criticality(warp, float(i * 100))
        cpl.refresh_block(block)
        # Changing counters does not flip the latched flag...
        set_criticality(block.warps[0], 1e9)
        assert not cpl.is_critical(block.warps[0])
        # ...until the next refresh.
        cpl.refresh_block(block)
        assert cpl.is_critical(block.warps[0])

    def test_periodic_refresh_via_issues(self):
        """The SM counts a block's issues and refreshes its verdicts every
        ``update_period`` of them, latching the counters as they stand."""
        cfg = GPUConfig.default_sim(num_sms=1, num_schedulers_per_sm=1,
                                    cpl_update_period=4)
        sm = GPU(cfg).sms[0]
        b = KernelBuilder("alu")
        for i in range(8):
            b.const(float(i))
        kernel = b.build()
        trace = TraceRecorder(cfg).launch(kernel, 1, 64)
        block = ThreadBlock(0, 64, 1, kernel, 32, trace=trace)
        sm.add_block(block, now=0.0)
        cycle = 0.0
        while block.cpl_issues < 3:
            sm.tick_wake(cycle)
            cycle += 1.0
        assert block.block_id not in sm.cpl._block_threshold
        fast, slow = block.warps
        set_criticality(slow, 50.0)
        while block.cpl_issues < 4:
            sm.tick_wake(cycle)
            cycle += 1.0
        assert block.block_id in sm.cpl._block_threshold
        # The 50 stall cycles live in the stall sums: they survive the
        # slow warp's own issues.
        assert slow.is_critical_flag and not fast.is_critical_flag

    def test_rank_in_block(self):
        """Fig 12's rank: how many peers in a verdict record have a lower
        criticality (0 = least critical)."""
        block = make_block_with_warps(4)
        for i, warp in enumerate(block.warps):
            set_criticality(warp, float(i % 3))  # warps 0 and 3 tie
        trace = PriorityTrace()
        trace.append((int(Ev.CPL_VERDICT), 64.0, 0, block.block_id, tuple(
            (w.warp_id_in_block, w.criticality, False) for w in block.warps)))
        assert trace.samples == {(0, 0): [(64.0, {0: 0, 1: 2, 2: 3, 3: 0})]}

    def test_forget_block(self):
        cpl = CriticalityPredictor()
        block = make_block_with_warps(2)
        cpl.refresh_block(block)
        cpl.forget_block(block.block_id)
        assert block.block_id not in cpl._block_threshold
