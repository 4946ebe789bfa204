"""Tests for the dataflow analyses (``tests/kernel_lint/dataflow.py``)."""

from __future__ import annotations

from repro.isa.instructions import CmpOp, MemSpace, Special
from repro.isa.kernel import KernelBuilder
from tests.kernel_lint.dataflow import analyze_dataflow


class TestDefiniteAssignment:
    def test_clean_kernel_has_no_uninit_reads(self):
        b = KernelBuilder("clean")
        i = b.sreg(Special.GTID)
        x = b.ld(b.addr(i, base=0, scale=8))
        b.st(b.addr(i, base=4096, scale=8), x)
        assert analyze_dataflow(b.build()).uninit_reads == []

    def test_never_written_register(self):
        b = KernelBuilder("uninit")
        ghost = b.reg()  # never written anywhere
        out = b.reg()
        b.add(out, ghost, 1.0)
        i = b.sreg(Special.GTID)
        b.st(b.addr(i, base=0, scale=8), out)
        reads = analyze_dataflow(b.build()).uninit_reads
        assert (0, "reg", ghost.idx, True) in reads

    def test_written_on_one_path_only(self):
        b = KernelBuilder("maybe")
        i = b.sreg(Special.TID)
        p = b.pred()
        b.setp(p, CmpOp.LT, i, 16.0)
        x = b.reg()
        f = b.begin_if(p)
        b.mov(x, 1.0)
        b.begin_else(f)
        b.nop()
        b.end_if(f)
        out = b.reg()
        add_pc = len(b._instructions)
        b.add(out, x, 1.0)  # x unwritten on the else path
        b.st(b.addr(i, base=0, scale=8), out)
        reads = analyze_dataflow(b.build()).uninit_reads
        assert (add_pc, "reg", x.idx, False) in reads

    def test_predicated_def_counts_as_assignment(self):
        # Compute-under-predicate is the standard partial-warp idiom; it
        # must NOT be reported as a maybe-uninitialized read.
        b = KernelBuilder("pdef")
        i = b.sreg(Special.TID)
        p = b.pred()
        b.setp(p, CmpOp.LT, i, 16.0)
        x = b.reg()
        b.mov(x, 1.0, pred=p)
        out = b.reg()
        b.add(out, x, 1.0)
        b.st(b.addr(i, base=0, scale=8), out)
        assert analyze_dataflow(b.build()).uninit_reads == []


class TestLiveness:
    def test_dead_load_destination(self):
        b = KernelBuilder("deadld")
        i = b.sreg(Special.GTID)
        dead = b.ld(b.addr(i, base=0, scale=8))
        b.st(b.addr(i, base=4096, scale=8), i)
        result = analyze_dataflow(b.build())
        assert any(
            kind == "reg" and idx == dead.idx
            for _, kind, idx in result.dead_writes
        )

    def test_predicated_write_does_not_kill(self):
        # mov x, 1.0; @p mov x, 2.0; st x -- the first mov is still live
        # (lanes with !p observe it), so no dead write may be reported.
        b = KernelBuilder("pkill")
        i = b.sreg(Special.TID)
        p = b.pred()
        b.setp(p, CmpOp.LT, i, 16.0)
        x = b.reg()
        b.mov(x, 1.0)
        b.mov(x, 2.0, pred=p)
        b.st(b.addr(i, base=0, scale=8), x)
        assert analyze_dataflow(b.build()).dead_writes == []

    def test_unpredicated_overwrite_kills(self):
        b = KernelBuilder("kill")
        i = b.sreg(Special.TID)
        x = b.reg()
        mov_pc = len(b._instructions)  # pc of the next emitted instruction
        b.mov(x, 1.0)
        b.mov(x, 2.0)  # unconditional overwrite: first mov is dead
        b.st(b.addr(i, base=0, scale=8), x)
        result = analyze_dataflow(b.build())
        assert (mov_pc, "reg", x.idx) in result.dead_writes

    def test_loop_carried_value_is_live(self):
        b = KernelBuilder("looplive")
        p = b.pred()
        j = b.const(0.0)
        acc = b.const(0.0)
        with b.loop() as lp:
            b.setp(p, CmpOp.GE, j, 4.0)
            lp.break_if(p)
            b.add(acc, acc, 2.0)  # live across the back edge
            b.add(j, j, 1.0)
        i = b.sreg(Special.TID)
        b.st(b.addr(i, base=0, scale=8), acc)
        assert analyze_dataflow(b.build()).dead_writes == []


class TestUniformity:
    def test_tid_branch_is_varying(self):
        b = KernelBuilder("vary")
        i = b.sreg(Special.TID)
        p = b.pred()
        b.setp(p, CmpOp.LT, i, 16.0)
        with b.if_then(p):
            b.nop()
        result = analyze_dataflow(b.build())
        assert result.varying_branch_pcs
        (branch_pc,) = result.varying_branch_pcs
        assert result.is_divergent(branch_pc + 1)

    def test_ctaid_branch_is_uniform(self):
        # Every thread of a block shares CTAID: the branch cannot diverge.
        b = KernelBuilder("uni")
        blk = b.sreg(Special.CTAID)
        p = b.pred()
        b.setp(p, CmpOp.LT, blk, 2.0)
        with b.if_then(p):
            b.nop()
        result = analyze_dataflow(b.build())
        assert result.varying_branch_pcs == frozenset()
        assert result.divergent_pcs == frozenset()

    def test_loaded_condition_is_varying(self):
        b = KernelBuilder("ldvary")
        blk = b.sreg(Special.CTAID)
        x = b.ld(b.addr(blk, base=0, scale=8))
        p = b.pred()
        b.setp(p, CmpOp.GT, x, 0.0)
        with b.if_then(p):
            b.nop()
        assert analyze_dataflow(b.build()).varying_branch_pcs


class TestAffineAddresses:
    def test_lane_stride_of_coalesced_load(self):
        b = KernelBuilder("coal")
        i = b.sreg(Special.GTID)
        x = b.ld(b.addr(i, base=1024, scale=8))
        b.st(b.addr(i, base=8192, scale=8), x)
        accesses = analyze_dataflow(b.build()).mem_accesses
        acc = [a for a in accesses.values() if a.is_load][0]
        assert acc.is_load and acc.space == "global"
        assert acc.lane_stride == 8.0
        assert acc.const_address is None
        assert acc.address == {"": 1024.0, "gtid": 8.0}

    def test_constant_shared_address(self):
        b = KernelBuilder("shconst", shared_mem_bytes=256)
        base = b.const(64.0)
        x = b.ld(base, offset=8, space=MemSpace.SHARED)
        i = b.sreg(Special.GTID)
        b.st(b.addr(i, base=0, scale=8), x)
        accesses = analyze_dataflow(b.build()).mem_accesses
        shared = [a for a in accesses.values() if a.space == "shared"]
        assert len(shared) == 1
        assert shared[0].const_address == 72.0
        assert shared[0].lane_stride == 0.0

    def test_non_affine_address_is_unknown(self):
        b = KernelBuilder("nonaff")
        i = b.sreg(Special.GTID)
        sq = b.reg()
        b.mul(sq, i, i)  # gtid * gtid: not affine
        x = b.ld(sq)
        b.st(b.addr(i, base=0, scale=8), x)
        accesses = analyze_dataflow(b.build()).mem_accesses
        load = [a for a in accesses.values() if a.is_load][0]
        assert load.address is None
        assert load.lane_stride is None
        assert load.const_address is None

    def test_shift_scales_the_stride(self):
        b = KernelBuilder("shift")
        i = b.sreg(Special.GTID)
        addr = b.reg()
        b.shl(addr, i, 4.0)  # stride 16
        x = b.ld(addr)
        b.st(b.addr(i, base=0, scale=8), x)
        accesses = analyze_dataflow(b.build()).mem_accesses
        load = [a for a in accesses.values() if a.is_load][0]
        assert load.lane_stride == 16.0
