"""Tests for the KernelBuilder DSL and instruction encoding."""

import pytest

from repro.errors import KernelBuildError, KernelValidationError
from repro.isa import CmpOp, KernelBuilder, Opcode, Special, validate_kernel
from repro.isa.kernel import Kernel, Reg


class TestRegisterAllocation:
    def test_regs_are_sequential(self):
        b = KernelBuilder("k")
        r0, r1, r2 = b.regs(3)
        assert (r0.idx, r1.idx, r2.idx) == (0, 1, 2)

    def test_preds_are_sequential(self):
        b = KernelBuilder("k")
        assert b.pred().idx == 0
        assert b.pred().idx == 1

    def test_num_regs_tracks_allocation(self):
        b = KernelBuilder("k")
        b.regs(5)
        b.mov(Reg(0), 1.0)
        kernel = b.build()
        assert kernel.num_regs == 5


class TestEncoding:
    def test_implicit_exit_appended(self):
        b = KernelBuilder("k")
        b.mov(b.reg(), 1.0)
        kernel = b.build()
        assert kernel.instructions[-1].op is Opcode.EXIT

    def test_explicit_exit_not_duplicated(self):
        b = KernelBuilder("k")
        b.mov(b.reg(), 1.0)
        b.exit()
        kernel = b.build()
        assert sum(1 for i in kernel.instructions if i.op is Opcode.EXIT) == 1

    def test_immediate_must_be_last(self):
        b = KernelBuilder("k")
        r = b.reg()
        with pytest.raises(KernelBuildError):
            b.add(r, 1.0, r)

    def test_two_immediates_rejected(self):
        b = KernelBuilder("k")
        with pytest.raises(KernelBuildError):
            b.add(b.reg(), 1.0, 2.0)

    def test_mad_scalar_multiplier_encodes_as_imm(self):
        b = KernelBuilder("k")
        a, c, d = b.regs(3)
        b.mad(d, a, 4.0, c)
        inst = b._instructions[-1]
        assert inst.imm == 4.0
        assert inst.srcs == (a.idx, c.idx)

    def test_mad_scalar_addend_materialized(self):
        b = KernelBuilder("k")
        a, bb, d = b.regs(3)
        b.mad(d, a, bb, 7.0)
        # A MOV materializing 7.0 must precede the MAD.
        mov = b._instructions[-2]
        assert mov.op is Opcode.MOV and mov.imm == 7.0
        assert b._instructions[-1].srcs[1] == bb.idx

    def test_duplicate_label_rejected(self):
        b = KernelBuilder("k")
        b.label("x")
        with pytest.raises(KernelBuildError):
            b.label("x")

    def test_undefined_branch_label_rejected(self):
        b = KernelBuilder("k")
        b.bra("nowhere")
        with pytest.raises(KernelBuildError):
            b.build()

    def test_pc_fields_resolved(self):
        b = KernelBuilder("k")
        p = b.pred()
        b.setp(p, CmpOp.LT, b.const(0.0), 1.0)
        with b.if_then(p):
            b.nop()
        kernel = b.build()
        branches = [i for i in kernel.instructions if i.op is Opcode.BRA]
        assert branches, "if_then must emit a branch"
        assert branches[0].target_pc >= 0
        assert branches[0].reconv_pc >= 0
        assert kernel.instructions[branches[0].reconv_pc].op is Opcode.RECONV


class TestStructuredControlFlow:
    def test_unclosed_frame_rejected(self):
        b = KernelBuilder("k")
        p = b.pred()
        b.setp(p, CmpOp.LT, b.const(0.0), 1.0)
        b.begin_if(p)
        with pytest.raises(KernelBuildError):
            b.build()

    def test_end_if_wrong_frame_rejected(self):
        b = KernelBuilder("k")
        p = b.pred()
        f1 = b.begin_if(p)
        b.begin_if(p)
        with pytest.raises(KernelBuildError):
            b.end_if(f1)

    def test_begin_else_twice_rejected(self):
        b = KernelBuilder("k")
        p = b.pred()
        f = b.begin_if(p)
        b.begin_else(f)
        with pytest.raises(KernelBuildError):
            b.begin_else(f)

    def test_loop_emits_backedge_and_reconv(self):
        b = KernelBuilder("k")
        p = b.pred()
        with b.loop() as lp:
            b.setp(p, CmpOp.GE, b.const(1.0), 0.0)
            lp.break_if(p)
        kernel = b.build()
        ops = [i.op for i in kernel.instructions]
        assert ops.count(Opcode.BRA) == 2  # exit branch + back edge
        assert Opcode.RECONV in ops

    def test_nested_structures_validate(self):
        b = KernelBuilder("k")
        p, q = b.pred(), b.pred()
        b.setp(p, CmpOp.LT, b.const(0.0), 1.0)
        with b.loop() as lp:
            b.setp(q, CmpOp.GE, b.const(1.0), 0.0)
            lp.break_if(q)
            with b.if_then(p):
                f = b.begin_if(p, invert=True)
                b.nop()
                b.begin_else(f)
                b.nop(2)
                b.end_if(f)
        kernel = b.build()
        validate_kernel(kernel)  # must not raise

    def test_conditional_branches_are_forward(self):
        b = KernelBuilder("k")
        p = b.pred()
        with b.loop() as lp:
            b.setp(p, CmpOp.GE, b.const(1.0), 0.0)
            lp.break_if(p)
        kernel = b.build()
        for inst in kernel.instructions:
            if inst.op is Opcode.BRA and inst.pred is not None:
                assert inst.target_pc > inst.pc


class TestDisassembly:
    def test_disassemble_contains_labels_and_ops(self):
        b = KernelBuilder("k")
        p = b.pred()
        b.setp(p, CmpOp.LT, b.const(0.0), 1.0)
        with b.if_then(p):
            b.nop()
        text = b.build().disassemble()
        assert "bra" in text
        assert "exit" in text
        assert ":" in text  # at least one label line


class TestValidateKernel:
    def test_rejects_empty(self):
        with pytest.raises(KernelValidationError):
            validate_kernel(Kernel("k", [], {}, 1, 1))

    def test_rejects_missing_exit(self):
        from repro.isa.instructions import Instruction

        inst = Instruction(Opcode.NOP, pc=0)
        with pytest.raises(KernelValidationError):
            validate_kernel(Kernel("k", [inst], {}, 1, 1))

    def test_rejects_out_of_range_register(self):
        from dataclasses import replace

        from repro.isa.instructions import Instruction

        insts = [
            replace(Instruction(Opcode.MOV, dst=5, imm=1.0), pc=0),
            replace(Instruction(Opcode.EXIT), pc=1),
        ]
        with pytest.raises(KernelValidationError):
            validate_kernel(Kernel("k", insts, {}, 2, 1))


class TestValidateHardening:
    """The SIMT stack's structural invariants on hand-built kernels:
    forward reconvergence, region nesting, duplicate reconvergence PCs, and
    branch-dominates-reconvergence (all enforced by ``validate_kernel``)."""

    @staticmethod
    def _raw(name, instrs, num_preds=1):
        from dataclasses import replace

        from repro.isa.instructions import Instruction  # noqa: F401

        resolved = [replace(i, pc=pc) for pc, i in enumerate(instrs)]
        return Kernel(name, resolved, {}, 1, num_preds)

    @staticmethod
    def _setp():
        from repro.isa.instructions import Instruction

        return Instruction(Opcode.SETP, dst=0, imm=1.0, cmp=CmpOp.EQ)

    def test_rejects_backward_reconv_pc(self):
        from repro.isa.instructions import Instruction

        insts = [
            Instruction(Opcode.RECONV),
            self._setp(),
            Instruction(Opcode.BRA, pred=0, target_pc=3, reconv_pc=0),
            Instruction(Opcode.EXIT),
        ]
        with pytest.raises(KernelValidationError, match="precedes branch target"):
            validate_kernel(self._raw("backward", insts))

    def test_rejects_ill_nested_regions(self):
        from repro.isa.instructions import Instruction

        insts = [
            self._setp(),
            Instruction(Opcode.BRA, pred=0, target_pc=3, reconv_pc=5),
            Instruction(Opcode.BRA, pred=0, target_pc=4, reconv_pc=7),
            Instruction(Opcode.NOP),
            Instruction(Opcode.NOP),
            Instruction(Opcode.RECONV),
            Instruction(Opcode.NOP),
            Instruction(Opcode.RECONV),
            Instruction(Opcode.EXIT),
        ]
        with pytest.raises(KernelValidationError, match="must nest"):
            validate_kernel(self._raw("illnested", insts))

    def test_rejects_duplicate_shared_reconv_pc(self):
        from repro.isa.instructions import Instruction

        insts = [
            self._setp(),
            Instruction(Opcode.BRA, pred=0, target_pc=3, reconv_pc=5),
            Instruction(Opcode.BRA, pred=0, target_pc=4, reconv_pc=5),
            Instruction(Opcode.NOP),
            Instruction(Opcode.NOP),
            Instruction(Opcode.RECONV),
            Instruction(Opcode.EXIT),
        ]
        with pytest.raises(KernelValidationError, match="share reconvergence"):
            validate_kernel(self._raw("dupreconv", insts))

    def test_rejects_undominated_reconv_pc(self):
        from repro.isa.instructions import Instruction

        insts = [
            self._setp(),
            Instruction(Opcode.BRA, pred=0, target_pc=7, reconv_pc=9),
            Instruction(Opcode.BRA, pred=0, target_pc=5, reconv_pc=7),
            Instruction(Opcode.NOP),
            Instruction(Opcode.BRA, target_pc=7),
            Instruction(Opcode.NOP),
            Instruction(Opcode.BRA, target_pc=7),
            Instruction(Opcode.RECONV),
            Instruction(Opcode.NOP),
            Instruction(Opcode.RECONV),
            Instruction(Opcode.EXIT),
        ]
        with pytest.raises(KernelValidationError, match="never be popped"):
            validate_kernel(self._raw("undominated", insts))

    def test_accepts_sibling_loop_breaks_sharing_reconv(self):
        # Two breaks of the same loop share the loop-exit reconvergence
        # point by construction; build() validates, so this must not raise.
        b = KernelBuilder("twobreaks")
        p, q = b.pred(), b.pred()
        j = b.const(0.0)
        with b.loop() as lp:
            b.setp(p, CmpOp.GE, j, 4.0)
            lp.break_if(p)
            b.setp(q, CmpOp.GE, j, 2.0)
            lp.break_if(q)
            b.add(j, j, 1.0)
        kernel = b.build()
        validate_kernel(kernel)  # idempotent re-check

    def test_accepts_nested_structured_regions(self):
        b = KernelBuilder("oknest")
        i = b.sreg(Special.TID)
        p, q = b.pred(), b.pred()
        b.setp(p, CmpOp.LT, i, 16.0)
        b.setp(q, CmpOp.LT, i, 8.0)
        with b.if_then(p):
            with b.if_then(q):
                b.nop()
        validate_kernel(b.build())
