"""Tests for the basic-block CFG (``repro.isa.cfg``)."""

from __future__ import annotations

from dataclasses import replace

from repro.isa.cfg import CFG, pc_successors
from repro.isa.instructions import CmpOp, Instruction, Opcode, Special
from repro.isa.kernel import Kernel, KernelBuilder


def raw_kernel(name, instrs, *, num_regs=4, num_preds=2, shared_mem_bytes=0):
    """Wrap hand-written instructions in a Kernel WITHOUT validation.

    The CFG must cope with graphs the builder can never emit (validation
    and the test-side linter run over them), so fixtures go straight to
    the Kernel constructor.
    """
    resolved = [replace(inst, pc=pc) for pc, inst in enumerate(instrs)]
    return Kernel(
        name=name,
        instructions=resolved,
        labels={},
        num_regs=num_regs,
        num_preds=num_preds,
        shared_mem_bytes=shared_mem_bytes,
    )


def back_edges(cfg):
    """Edges ``(src, dst)`` that jump to a block starting at or before
    their source."""
    return [(b.bid, s) for b in cfg.blocks for s in b.succs
            if cfg.blocks[s].start <= b.start]


def build_if_else_kernel():
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


class TestPcSuccessors:
    def test_straight_line(self):
        k = raw_kernel("k", [Instruction(Opcode.NOP), Instruction(Opcode.EXIT)])
        assert pc_successors(k.instructions[0], len(k)) == (1,)

    def test_exit_has_none_even_when_guarded(self):
        # The SM kills *all* lanes at EXIT, guard or not (lint CTL001).
        k = raw_kernel(
            "k", [Instruction(Opcode.EXIT, pred=0), Instruction(Opcode.EXIT)]
        )
        assert pc_successors(k.instructions[0], len(k)) == ()

    def test_conditional_branch_has_both_edges(self):
        k = raw_kernel(
            "k",
            [
                Instruction(Opcode.BRA, pred=0, target_pc=2, reconv_pc=2),
                Instruction(Opcode.NOP),
                Instruction(Opcode.EXIT),
            ],
        )
        assert pc_successors(k.instructions[0], len(k)) == (1, 2)

    def test_unconditional_branch_has_one_edge(self):
        k = raw_kernel(
            "k",
            [
                Instruction(Opcode.BRA, target_pc=2),
                Instruction(Opcode.NOP),
                Instruction(Opcode.EXIT),
            ],
        )
        assert pc_successors(k.instructions[0], len(k)) == (2,)

    def test_degenerate_branch_to_next_pc(self):
        k = raw_kernel(
            "k",
            [
                Instruction(Opcode.BRA, pred=0, target_pc=1, reconv_pc=1),
                Instruction(Opcode.EXIT),
            ],
        )
        assert pc_successors(k.instructions[0], len(k)) == (1,)


class TestCFGStructure:
    def test_if_else_blocks(self):
        k = build_if_else_kernel()
        cfg = CFG(k)
        # entry / then / else / join+exit region.
        assert cfg.blocks[0].start == 0
        assert all(b.bid in cfg.reachable for b in cfg.blocks)
        assert cfg.reaches_exit == cfg.reachable
        assert len(cfg.branches) == 1
        site = cfg.branches[0]
        assert site.target_pc > site.pc
        assert site.reconv_pc > site.target_pc  # non-empty else arm
        assert not site.is_loop_break

    def test_branch_dominates_its_reconv(self):
        k = build_if_else_kernel()
        cfg = CFG(k)
        site = cfg.branches[0]
        assert cfg.pc_dominates(site.pc, site.reconv_pc)
        # ...but neither arm dominates the join.
        assert not cfg.pc_dominates(site.pc + 1, site.reconv_pc)
        assert not cfg.pc_dominates(site.target_pc, site.reconv_pc)

    def test_loop_back_edge_detected(self):
        b = KernelBuilder("loop")
        p = b.pred()
        j = b.const(0.0)
        with b.loop() as lp:
            b.setp(p, CmpOp.GE, j, 3.0)
            lp.break_if(p)
            b.add(j, j, 1.0)
        cfg = CFG(b.build())
        assert back_edges(cfg), "loop back edge must be represented"
        # The loop break is the builder's target==reconv idiom.
        assert any(site.is_loop_break for site in cfg.branches)

    def test_loop_with_predicated_back_edge(self):
        # Hand-built: a *conditional* back edge is not builder-emittable
        # (forward-branch invariant) but the CFG must still represent it.
        k = raw_kernel(
            "pback",
            [
                Instruction(Opcode.NOP),
                Instruction(Opcode.BRA, pred=0, target_pc=0, reconv_pc=2),
                Instruction(Opcode.RECONV),
                Instruction(Opcode.EXIT),
            ],
        )
        cfg = CFG(k)
        assert back_edges(cfg)
        assert cfg.reaches_exit == cfg.reachable

    def test_unreachable_block_after_unconditional_branch(self):
        k = raw_kernel(
            "dead",
            [
                Instruction(Opcode.BRA, target_pc=2),
                Instruction(Opcode.NOP),
                Instruction(Opcode.EXIT),
            ],
        )
        cfg = CFG(k)
        assert [b.start for b in cfg.unreachable_blocks] == [1]

    def test_nested_if_regions(self):
        b = KernelBuilder("nested")
        i = b.sreg(Special.TID)
        p, q = b.pred(), b.pred()
        b.setp(p, CmpOp.LT, i, 16.0)
        b.setp(q, CmpOp.LT, i, 8.0)
        with b.if_then(p):
            b.nop()
            with b.if_then(q):
                b.nop()
            b.nop()
        cfg = CFG(b.build())
        outer, inner = sorted(cfg.branches, key=lambda s: s.pc)
        assert outer.contains(inner.pc)
        assert inner.reconv_pc <= outer.reconv_pc
        assert cfg.divergence_region_of(inner.pc + 1) == [outer, inner]

    def test_block_at_and_block_of_are_consistent(self):
        k = build_if_else_kernel()
        cfg = CFG(k)
        for bid, block in enumerate(cfg.blocks):
            assert block.bid == bid
            assert all(cfg.block_of[pc] == bid for pc in block.pcs)
        assert [pc for b in cfg.blocks for pc in b.pcs] == list(range(len(k)))


class TestDominance:
    def test_entry_dominates_everything(self):
        cfg = CFG(build_if_else_kernel())
        for bid in cfg.reachable:
            assert cfg.dominates(0, bid)

    def test_same_block_ordering(self):
        cfg = CFG(build_if_else_kernel())
        assert cfg.pc_dominates(0, 1)
        assert not cfg.pc_dominates(1, 0)
