"""Tests for instruction metadata (pipes, flags, repr)."""

import itertools

import pytest

from repro.isa.instructions import (
    CmpOp,
    FuncUnit,
    Instruction,
    IssueKind,
    MemSpace,
    Opcode,
    Special,
    func_unit,
)


class TestFuncUnits:
    def test_alu_default(self):
        for op in (Opcode.ADD, Opcode.MUL, Opcode.SETP, Opcode.SELP, Opcode.SREG):
            assert func_unit(op) is FuncUnit.ALU

    def test_sfu_ops(self):
        for op in (Opcode.SQRT, Opcode.RSQRT, Opcode.RCP, Opcode.EXP,
                   Opcode.LOG, Opcode.SIN, Opcode.COS):
            assert func_unit(op) is FuncUnit.SFU

    def test_mem_ops(self):
        assert func_unit(Opcode.LD) is FuncUnit.MEM
        assert func_unit(Opcode.ST) is FuncUnit.MEM

    def test_ctrl_ops(self):
        for op in (Opcode.BRA, Opcode.RECONV, Opcode.BAR, Opcode.EXIT, Opcode.NOP):
            assert func_unit(op) is FuncUnit.CTRL


class TestFlags:
    def test_branch_flags(self):
        inst = Instruction(Opcode.BRA, target="x")
        assert inst.is_branch and not inst.is_memory

    def test_memory_flags(self):
        ld = Instruction(Opcode.LD, dst=0, srcs=(1,))
        st = Instruction(Opcode.ST, srcs=(0, 1))
        assert ld.is_memory and ld.is_load
        assert st.is_memory and not st.is_load

    def test_writes_register(self):
        assert Instruction(Opcode.ADD, dst=0, srcs=(1, 2)).writes_register
        assert not Instruction(Opcode.ST, srcs=(0, 1)).writes_register
        assert not Instruction(Opcode.SETP, dst=0, srcs=(1,), cmp=CmpOp.LT).writes_register

    def test_writes_predicate(self):
        assert Instruction(Opcode.SETP, dst=0, srcs=(1,), cmp=CmpOp.LT).writes_predicate
        assert not Instruction(Opcode.ADD, dst=0, srcs=(1, 2)).writes_predicate

    def test_unit_property(self):
        assert Instruction(Opcode.LD, dst=0, srcs=(1,)).unit is FuncUnit.MEM


def _expected_kind(inst):
    """The issue kind, derived from the classification helpers alone."""
    if inst.is_branch:
        return IssueKind.BRANCH
    if inst.is_memory:
        return IssueKind.LOAD if inst.is_load else IssueKind.STORE
    if inst.op is Opcode.BAR:
        return IssueKind.BARRIER
    if inst.op is Opcode.EXIT:
        return IssueKind.EXIT
    if inst.writes_predicate:
        return IssueKind.PRED
    if inst.writes_register:
        return IssueKind.SFU if inst.unit is FuncUnit.SFU else IssueKind.ALU
    return IssueKind.NONE


class TestDecode:
    """The decode record against the helpers it replaces on the issue path."""

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
    def test_decode_matches_classification_helpers(self, op):
        no_dst = op in (Opcode.ST, Opcode.BRA, Opcode.RECONV, Opcode.BAR,
                        Opcode.EXIT, Opcode.NOP)
        for pred, imm, space in itertools.product(
            (None, 1), (None, 2.0), (MemSpace.GLOBAL, MemSpace.SHARED)
        ):
            inst = Instruction(
                op, dst=None if no_dst else 3, srcs=(1,) if imm is not None else (1, 2),
                imm=imm, pred=pred, space=space, pc=5,
                cmp=CmpOp.LT if op is Opcode.SETP else None,
            )
            d = inst.decoded
            assert d.kind == _expected_kind(inst)
            # Latency class: only SFU-pipe register writes take the SFU latency.
            assert (d.kind == IssueKind.SFU) == (
                inst.writes_register and inst.unit is FuncUnit.SFU)
            assert d.needs_global_mem == (
                inst.is_memory and inst.space is MemSpace.GLOBAL)
            writes = inst.writes_register or inst.writes_predicate
            assert (d.srcs, d.dst, d.pred, d.pred_is_dst) == (
                inst.srcs, inst.dst if writes else None, inst.pred,
                inst.writes_predicate)

    def test_decoded_once_per_instruction(self):
        inst = Instruction(Opcode.ADD, dst=0, srcs=(1, 2))
        assert inst.decoded is inst.decoded
        # The cache is not a field: equality and hashing ignore it.
        assert inst == Instruction(Opcode.ADD, dst=0, srcs=(1, 2))


class TestRepr:
    def test_repr_contains_op_and_regs(self):
        inst = Instruction(Opcode.ADD, dst=3, srcs=(1, 2), pc=7)
        text = repr(inst)
        assert "add" in text and "r3" in text and "[7]" in text

    def test_repr_shows_guard(self):
        inst = Instruction(Opcode.MOV, dst=0, srcs=(1,), pred=2, pred_neg=True, pc=0)
        assert "@!p2" in repr(inst)

    def test_repr_shows_target(self):
        inst = Instruction(Opcode.BRA, target="loop_1", pc=0)
        assert "loop_1" in repr(inst)
