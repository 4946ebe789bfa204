"""Tests for the static path-length bounds (``tests/kernel_lint/pathlen.py``)."""

from __future__ import annotations

import math

import pytest

from repro.errors import CPLBoundsError
from repro.isa.instructions import CmpOp, Special
from repro.isa.kernel import KernelBuilder
from repro.simt.block import ThreadBlock
from repro.simt.warp import Warp
from tests.kernel_lint.pathlen import CheckedCriticalityPredictor, PathBounds


def build_if_else():
    """pc2 branch: fall arm = pcs 3-5 (incl. bra end), taken arm = pcs 6-8."""
    b = KernelBuilder("ifelse")
    i = b.sreg(Special.TID)
    p = b.pred()
    b.setp(p, CmpOp.LT, i, 16.0)
    f = b.begin_if(p)
    b.nop(2)
    b.begin_else(f)
    b.nop(3)
    b.end_if(f)
    return b.build()


def build_loop():
    b = KernelBuilder("loop")
    p = b.pred()
    j = b.const(0.0)
    with b.loop() as lp:
        b.setp(p, CmpOp.GE, j, 3.0)
        lp.break_if(p)
        b.add(j, j, 1.0)
    return b.build()


class TestExitBounds:
    def test_straight_line(self):
        b = KernelBuilder("line")
        b.nop(2)
        bounds = PathBounds(b.build())  # nop nop exit
        assert bounds.min_to_exit[0] == 3.0
        assert bounds.max_to_exit[0] == 3.0
        assert bounds.min_to_exit[2] == 1.0

    def test_if_else_min_max_differ_at_entry(self):
        k = build_if_else()
        bounds = PathBounds(k)
        # Both arms have the same static length here, so compare at the
        # branch: min = shortest arm, max = longest simple path.
        site = [i for i in k.instructions if i.op.value == "bra" and i.pred is not None][0]
        assert bounds.min_to_exit[site.pc] <= bounds.max_to_exit[site.pc]
        assert not math.isinf(bounds.max_to_exit[0])

    def test_loop_makes_max_unbounded(self):
        bounds = PathBounds(build_loop())
        assert math.isinf(bounds.max_to_exit[0])
        assert not math.isinf(bounds.min_to_exit[0])


class TestRegionBounds:
    def test_entry_equals_stop(self):
        bounds = PathBounds(build_if_else())
        assert bounds.region_bounds(3, 3) == (0.0, 0.0)

    def test_if_else_arms(self):
        k = build_if_else()
        bounds = PathBounds(k)
        site = [
            i
            for i in k.instructions
            if i.op.value == "bra" and i.pred is not None
        ][0]
        fall = bounds.region_bounds(site.pc + 1, site.reconv_pc)
        taken = bounds.region_bounds(site.target_pc, site.reconv_pc)
        # The arms match Algorithm 2's static estimates exactly.
        assert fall == (
            float(site.target_pc - site.pc - 1),
            float(site.target_pc - site.pc - 1),
        )
        assert taken == (
            float(site.reconv_pc - site.target_pc),
            float(site.reconv_pc - site.target_pc),
        )

    def test_unreachable_stop_is_none(self):
        k = build_if_else()
        bounds = PathBounds(k)
        # From the reconvergence point backwards into the then-arm: never.
        site = [
            i
            for i in k.instructions
            if i.op.value == "bra" and i.pred is not None
        ][0]
        assert bounds.region_bounds(site.reconv_pc, site.pc + 1) is None

    def test_loop_body_region_is_unbounded(self):
        k = build_loop()
        bounds = PathBounds(k)
        site = [
            i
            for i in k.instructions
            if i.op.value == "bra" and i.pred is not None
        ][0]
        # From just after the break back around the loop to the exit
        # reconvergence: the region contains the back edge => inf max.
        lo, hi = bounds.region_bounds(site.pc + 1, site.reconv_pc)
        assert math.isinf(hi)
        assert lo >= 1.0

    def test_region_cache_returns_same_object(self):
        bounds = PathBounds(build_if_else())
        a = bounds.region_bounds(3, 9)
        assert bounds.region_bounds(3, 9) is a


class TestBranchEnvelope:
    def _site(self, kernel):
        return [
            i
            for i in kernel.instructions
            if i.op.value == "bra" and i.pred is not None
        ][0]

    def test_divergent_sums_both_arms(self):
        k = build_if_else()
        bounds = PathBounds(k)
        s = self._site(k)
        fall = bounds.region_bounds(s.pc + 1, s.reconv_pc)
        taken = bounds.region_bounds(s.target_pc, s.reconv_pc)
        env = bounds.branch_envelope(
            s.pc, s.target_pc, s.reconv_pc, diverged=True, all_taken=False
        )
        assert env == (fall[0] + taken[0], fall[1] + taken[1])

    def test_uniform_outcomes_pick_one_arm(self):
        k = build_if_else()
        bounds = PathBounds(k)
        s = self._site(k)
        taken_env = bounds.branch_envelope(
            s.pc, s.target_pc, s.reconv_pc, diverged=False, all_taken=True
        )
        fall_env = bounds.branch_envelope(
            s.pc, s.target_pc, s.reconv_pc, diverged=False, all_taken=False
        )
        assert taken_env == bounds.region_bounds(s.target_pc, s.reconv_pc)
        assert fall_env == bounds.region_bounds(s.pc + 1, s.reconv_pc)

    def test_loop_break_fall_arm_degrades_to_nonnegative(self):
        k = build_loop()
        bounds = PathBounds(k)
        s = self._site(k)
        env = bounds.branch_envelope(
            s.pc, s.target_pc, s.reconv_pc, diverged=False, all_taken=False
        )
        assert env == (0.0, math.inf)

    def test_empty_taken_arm(self):
        k = build_loop()
        bounds = PathBounds(k)
        s = self._site(k)  # loop break: target == reconv, empty taken arm
        env = bounds.branch_envelope(
            s.pc, s.target_pc, s.reconv_pc, diverged=False, all_taken=True
        )
        assert env == (0.0, 0.0)


def make_warp(kernel):
    """A resident warp that never issues: enough for CPL bookkeeping."""
    block = ThreadBlock(0, 32, 1, kernel, 32)
    warp = Warp(0, block, 32, kernel.num_regs, kernel.num_preds, dynamic_id=7)
    block.warps.append(warp)
    return warp


class TestCheckedCriticalityPredictor:
    def test_in_envelope_branch_passes(self):
        k = build_if_else()
        warp = make_warp(k)
        site = [
            i
            for i in k.instructions
            if i.op.value == "bra" and i.pred is not None
        ][0]
        predictor = CheckedCriticalityPredictor()
        predictor.on_branch(warp, site, diverged=True, all_taken=False)
        assert predictor.bound_checks == 1
        assert predictor.finite_checks == 1
        assert warp.cpl_inst_disparity > 0

    def test_disparity_is_nonnegative_by_construction(self):
        """nInst is derived from the latest branch's anchor, clamped at
        zero: however many instructions commit after it, or however the
        anchor is corrupted, it never reads negative."""
        k = build_if_else()
        warp = make_warp(k)
        site = [i for i in k.instructions
                if i.op.value == "bra" and i.pred is not None][0]
        predictor = CheckedCriticalityPredictor()
        predictor.on_branch(warp, site, diverged=False, all_taken=True)
        announced = warp.cpl_inst_disparity
        warp._cpl_idx += int(announced) + 5  # commits past the announced path
        warp._criticality = None
        assert warp.cpl_inst_disparity == 0.0
        assert warp.criticality == 0.0
        warp._cpl_due = warp._cpl_idx - 1.0  # corrupted by hand
        assert warp.cpl_inst_disparity == 0.0
        # The next branch charges from zero and stays in its envelope.
        predictor.on_branch(warp, site, diverged=False, all_taken=True)
        assert warp.cpl_inst_disparity == announced

    def test_envelope_violation_raises(self):
        # Tamper with the branch PCs so Algorithm 2's estimate (computed
        # from the instruction) disagrees with the CFG envelope.
        from dataclasses import replace

        k = build_if_else()
        warp = make_warp(k)
        site = [
            i
            for i in k.instructions
            if i.op.value == "bra" and i.pred is not None
        ][0]
        # Lie about the target: the claimed fall-through arm shrinks to 0
        # instructions while the real region still needs several.
        lying = replace(site, target_pc=site.pc + 1)
        predictor = CheckedCriticalityPredictor()
        with pytest.raises(CPLBoundsError):
            predictor.on_branch(warp, lying, diverged=False, all_taken=False)

    def test_bounds_cache_reuses_per_kernel(self):
        k = build_if_else()
        warp = make_warp(k)
        predictor = CheckedCriticalityPredictor()
        b1 = predictor._bounds_for(warp)
        b2 = predictor._bounds_for(warp)
        assert b1 is b2
