"""Tests for the reference functional executor: opcode semantics over lanes
(lane state lives with the executor: ``execu.lanes(warp)``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.isa.instructions import CmpOp, Instruction, MemSpace, Opcode, Special
from repro.memory.data import GlobalMemory
from repro.simt import executor as executor_mod
from repro.simt.block import ThreadBlock
from repro.simt.executor import NO_EFFECT, ExecResult, FunctionalExecutor
from repro.simt.warp import Warp
from repro.isa.kernel import KernelBuilder


WARP = 32


def make_warp(num_regs=16, num_preds=4, block_dim=WARP):
    b = KernelBuilder("t")
    b.nop()
    kernel = b.build()
    kernel.num_regs = num_regs
    kernel.num_preds = num_preds
    block = ThreadBlock(0, block_dim, 1, kernel, WARP)
    return Warp(0, block, WARP, num_regs, num_preds, dynamic_id=0)


@pytest.fixture
def env():
    mem = GlobalMemory()
    execu = FunctionalExecutor(mem, WARP)
    warp = make_warp()
    return mem, execu, warp


class TestALU:
    def test_add_registers(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.regs[0] = np.arange(WARP)
        execu.lanes(warp).rf.regs[1] = 2.0
        execu.execute(Instruction(Opcode.ADD, dst=2, srcs=(0, 1), pc=0), warp)
        assert np.array_equal(execu.lanes(warp).rf.regs[2], np.arange(WARP) + 2.0)

    def test_add_immediate(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.regs[0] = np.arange(WARP)
        execu.execute(Instruction(Opcode.ADD, dst=1, srcs=(0,), imm=5.0, pc=0), warp)
        assert np.array_equal(execu.lanes(warp).rf.regs[1], np.arange(WARP) + 5.0)

    def test_div_by_zero_yields_zero(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.regs[0] = 10.0
        execu.lanes(warp).rf.regs[1] = 0.0
        execu.execute(Instruction(Opcode.DIV, dst=2, srcs=(0, 1), pc=0), warp)
        assert np.all(execu.lanes(warp).rf.regs[2] == 0.0)

    def test_mad_with_imm_multiplier(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.regs[0] = np.arange(WARP)
        execu.lanes(warp).rf.regs[1] = 3.0
        execu.execute(
            Instruction(Opcode.MAD, dst=2, srcs=(0, 1), imm=8.0, pc=0), warp
        )
        assert np.array_equal(execu.lanes(warp).rf.regs[2], np.arange(WARP) * 8.0 + 3.0)

    def test_bitwise_ops_cast_through_int(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.regs[0] = 0b1100
        execu.lanes(warp).rf.regs[1] = 0b1010
        execu.execute(Instruction(Opcode.AND, dst=2, srcs=(0, 1), pc=0), warp)
        execu.execute(Instruction(Opcode.OR, dst=3, srcs=(0, 1), pc=0), warp)
        execu.execute(Instruction(Opcode.XOR, dst=4, srcs=(0, 1), pc=0), warp)
        assert np.all(execu.lanes(warp).rf.regs[2] == 0b1000)
        assert np.all(execu.lanes(warp).rf.regs[3] == 0b1110)
        assert np.all(execu.lanes(warp).rf.regs[4] == 0b0110)

    def test_shifts(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.regs[0] = 3.0
        execu.execute(Instruction(Opcode.SHL, dst=1, srcs=(0,), imm=4.0, pc=0), warp)
        assert np.all(execu.lanes(warp).rf.regs[1] == 48.0)
        execu.execute(Instruction(Opcode.SHR, dst=2, srcs=(1,), imm=4.0, pc=0), warp)
        assert np.all(execu.lanes(warp).rf.regs[2] == 3.0)

    def test_sfu_domain_safety(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.regs[0] = -1.0
        execu.execute(Instruction(Opcode.SQRT, dst=1, srcs=(0,), pc=0), warp)
        execu.execute(Instruction(Opcode.LOG, dst=2, srcs=(0,), pc=0), warp)
        assert np.all(np.isfinite(execu.lanes(warp).rf.regs[1]))
        assert np.all(np.isfinite(execu.lanes(warp).rf.regs[2]))

    def test_guard_predicate_masks_write(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.preds[0] = np.arange(WARP) % 2 == 0
        execu.lanes(warp).rf.regs[0] = 7.0
        execu.lanes(warp).rf.regs[1] = 0.0
        execu.execute(
            Instruction(Opcode.MOV, dst=1, srcs=(0,), pred=0, pc=0), warp
        )
        expected = np.where(np.arange(WARP) % 2 == 0, 7.0, 0.0)
        assert np.array_equal(execu.lanes(warp).rf.regs[1], expected)

    def test_guard_predicate_negated(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.preds[0] = np.arange(WARP) % 2 == 0
        execu.lanes(warp).rf.regs[0] = 7.0
        execu.execute(
            Instruction(Opcode.MOV, dst=1, srcs=(0,), pred=0, pred_neg=True, pc=0),
            warp,
        )
        expected = np.where(np.arange(WARP) % 2 == 1, 7.0, 0.0)
        assert np.array_equal(execu.lanes(warp).rf.regs[1], expected)


class TestPredicatesAndSelect:
    def test_setp_all_compares(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.regs[0] = np.arange(WARP)
        cases = {
            CmpOp.LT: np.arange(WARP) < 16,
            CmpOp.LE: np.arange(WARP) <= 16,
            CmpOp.GT: np.arange(WARP) > 16,
            CmpOp.GE: np.arange(WARP) >= 16,
            CmpOp.EQ: np.arange(WARP) == 16,
            CmpOp.NE: np.arange(WARP) != 16,
        }
        for cmp, expected in cases.items():
            execu.execute(
                Instruction(Opcode.SETP, dst=0, srcs=(0,), imm=16.0, cmp=cmp, pc=0),
                warp,
            )
            assert np.array_equal(execu.lanes(warp).rf.preds[0], expected), cmp

    def test_selp(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.preds[0] = np.arange(WARP) < 8
        execu.lanes(warp).rf.regs[0] = 1.0
        execu.lanes(warp).rf.regs[1] = 2.0
        execu.execute(
            Instruction(Opcode.SELP, dst=2, srcs=(0, 1), pred=0, pc=0), warp
        )
        expected = np.where(np.arange(WARP) < 8, 1.0, 2.0)
        assert np.array_equal(execu.lanes(warp).rf.regs[2], expected)


class TestBranch:
    def test_unconditional_branch_takes_all_active(self, env):
        _, execu, warp = env
        result = execu.execute(Instruction(Opcode.BRA, target_pc=5, pc=0), warp)
        assert result.taken_mask == execu.lanes(warp).stack.active_mask

    def test_conditional_branch_taken_mask(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.preds[0] = np.arange(WARP) < 4
        result = execu.execute(
            Instruction(Opcode.BRA, pred=0, target_pc=5, pc=0), warp
        )
        assert result.taken_mask == 0b1111

    def test_conditional_branch_negated(self, env):
        _, execu, warp = env
        execu.lanes(warp).rf.preds[0] = np.arange(WARP) < 4
        result = execu.execute(
            Instruction(Opcode.BRA, pred=0, pred_neg=True, target_pc=5, pc=0), warp
        )
        assert result.taken_mask == execu.lanes(warp).stack.active_mask & ~0b1111


class TestMemoryOps:
    def test_load_gathers_per_lane(self, env):
        mem, execu, warp = env
        base = mem.alloc_array(np.arange(WARP, dtype=float) * 10)
        execu.lanes(warp).rf.regs[0] = base + np.arange(WARP) * 8.0
        result = execu.execute(Instruction(Opcode.LD, dst=1, srcs=(0,), imm=0.0, pc=0), warp)
        assert np.array_equal(execu.lanes(warp).rf.regs[1], np.arange(WARP) * 10.0)
        assert result.mem_mask == execu.lanes(warp).stack.active_mask

    def test_store_scatters(self, env):
        mem, execu, warp = env
        base = mem.alloc_array(np.zeros(WARP))
        execu.lanes(warp).rf.regs[0] = base + np.arange(WARP) * 8.0
        execu.lanes(warp).rf.regs[1] = np.arange(WARP, dtype=float) + 1
        execu.execute(Instruction(Opcode.ST, srcs=(0, 1), imm=0.0, pc=0), warp)
        assert np.array_equal(mem.read_array(base, WARP), np.arange(WARP) + 1.0)

    def test_shared_memory_roundtrip(self, env):
        _, execu, warp = env
        warp.block.kernel.shared_mem_bytes = 0  # uses the 1-word minimum
        execu.lanes(warp).rf.regs[0] = 0.0  # all lanes address shared word 0
        execu.lanes(warp).rf.regs[1] = 42.0
        execu.execute(
            Instruction(Opcode.ST, srcs=(0, 1), imm=0.0, space=MemSpace.SHARED, pc=0),
            warp,
        )
        execu.execute(
            Instruction(Opcode.LD, dst=2, srcs=(0,), imm=0.0, space=MemSpace.SHARED, pc=0),
            warp,
        )
        assert np.all(execu.lanes(warp).rf.regs[2] == 42.0)

    def test_predicated_load_skips_inactive_lanes(self, env):
        mem, execu, warp = env
        base = mem.alloc_array(np.ones(4))
        # Only lane 0 has a valid address; others point far out of bounds
        # but are predicated off, so no error may be raised.
        execu.lanes(warp).rf.preds[0] = np.arange(WARP) == 0
        addrs = np.full(WARP, 10_000_000.0)
        addrs[0] = base
        execu.lanes(warp).rf.regs[0] = addrs
        execu.execute(
            Instruction(Opcode.LD, dst=1, srcs=(0,), imm=0.0, pred=0, pc=0), warp
        )
        assert execu.lanes(warp).rf.regs[1][0] == 1.0


class TestBinding:
    """Static operand-shape checks happen when the handler is bound."""

    @pytest.mark.parametrize("inst", [
        Instruction(Opcode.MAD, dst=2, srcs=(0,), pc=7),            # no multiplier
        Instruction(Opcode.MAD, dst=2, srcs=(0, 1, 2, 3), pc=7),
        Instruction(Opcode.ADD, dst=2, srcs=(), pc=7),
        Instruction(Opcode.ADD, dst=2, srcs=(0,), pc=7),            # no second operand
        Instruction(Opcode.SETP, dst=0, srcs=(0,), cmp=CmpOp.LT, pc=7),
        Instruction(Opcode.SELP, dst=2, srcs=(0,), pred=0, pc=7),
        Instruction(Opcode.MOV, dst=2, pc=7),                       # no operand at all
    ], ids=lambda inst: f"{inst.op.value}{len(inst.srcs)}")
    def test_malformed_operands_name_the_pc(self, env, inst):
        _, execu, warp = env
        with pytest.raises(SimulationError, match="pc=7"):
            execu.execute(inst, warp)
        with pytest.raises(SimulationError, match="pc=7"):  # and again: nothing was cached
            execu.execute(inst, warp)

    def test_unimplemented_opcode_names_the_pc(self, env, monkeypatch):
        _, execu, warp = env
        table = dict(executor_mod._BINARY)
        del table[Opcode.XOR]
        monkeypatch.setattr(executor_mod, "_BINARY", table)
        with pytest.raises(SimulationError, match=r"unimplemented opcode .*XOR.* at pc=7"):
            execu.execute(Instruction(Opcode.XOR, dst=2, srcs=(0, 1), pc=7), warp)

    def test_handler_is_bound_once(self, env):
        _, execu, warp = env
        inst = Instruction(Opcode.ADD, dst=2, srcs=(0, 1), pc=0)
        assert inst.decoded.run is None
        execu.execute(inst, warp)
        run = inst.decoded.run
        execu.execute(inst, warp)
        assert run is not None and inst.decoded.run is run

    def test_payload_free_result_is_shared(self, env):
        _, execu, warp = env
        for inst in (Instruction(Opcode.NOP, pc=0), Instruction(Opcode.BAR, pc=0),
                     Instruction(Opcode.EXIT, pc=0),
                     Instruction(Opcode.ADD, dst=2, srcs=(0, 1), pc=0)):
            assert execu.execute(inst, warp) is NO_EFFECT
        assert NO_EFFECT == ExecResult()


class TestSpecials:
    def test_sreg_values(self, env):
        _, execu, warp = env
        for special, expected in [
            (Special.TID, np.arange(WARP)),
            (Special.LANEID, np.arange(WARP)),
            (Special.CTAID, np.zeros(WARP)),
            (Special.NTID, np.full(WARP, WARP)),
            (Special.GTID, np.arange(WARP)),
            (Special.WARPID, np.zeros(WARP)),
        ]:
            execu.execute(Instruction(Opcode.SREG, dst=0, special=special, pc=0), warp)
            assert np.array_equal(execu.lanes(warp).rf.regs[0], expected), special


@settings(max_examples=50, deadline=None)
@given(
    op=st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MIN, Opcode.MAX]),
    a=st.lists(st.floats(-1e6, 1e6), min_size=WARP, max_size=WARP),
    b=st.lists(st.floats(-1e6, 1e6), min_size=WARP, max_size=WARP),
)
def test_prop_binary_ops_match_numpy(op, a, b):
    mem = GlobalMemory()
    execu = FunctionalExecutor(mem, WARP)
    warp = make_warp()
    av, bv = np.array(a), np.array(b)
    execu.lanes(warp).rf.regs[0] = av
    execu.lanes(warp).rf.regs[1] = bv
    execu.execute(Instruction(op, dst=2, srcs=(0, 1), pc=0), warp)
    reference = {
        Opcode.ADD: av + bv,
        Opcode.SUB: av - bv,
        Opcode.MUL: av * bv,
        Opcode.MIN: np.minimum(av, bv),
        Opcode.MAX: np.maximum(av, bv),
    }[op]
    assert np.array_equal(execu.lanes(warp).rf.regs[2], reference)
