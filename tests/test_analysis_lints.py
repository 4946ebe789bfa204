"""Lint rule catalogue tests (``repro.analysis.lints``).

The heart of this file is the broken-kernel fixture suite: one deliberately
corrupted kernel per rule, each triggering **exactly** that rule — both a
positive test (the rule fires) and a precision test (no other rule
misfires on the same kernel).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis import RULES, Severity, lint_kernel
from repro.isa.instructions import (
    CmpOp,
    Instruction,
    MemSpace,
    Opcode,
    Special,
)
from repro.isa.kernel import Kernel, KernelBuilder


def raw_kernel(name, instrs, *, num_regs=4, num_preds=2, shared_mem_bytes=0):
    """Bypass the builder AND ``validate_kernel`` (fixtures are broken)."""
    resolved = [replace(inst, pc=pc) for pc, inst in enumerate(instrs)]
    return Kernel(
        name=name,
        instructions=resolved,
        labels={},
        num_regs=num_regs,
        num_preds=num_preds,
        shared_mem_bytes=shared_mem_bytes,
    )


def _setp_const(dst=0):
    """SETP with an immediate-only comparison: reads no registers."""
    return Instruction(Opcode.SETP, dst=dst, imm=1.0, cmp=CmpOp.EQ)


# ----------------------------------------------------------------------
# One broken kernel per rule
# ----------------------------------------------------------------------
def kernel_cfg001():
    """Unreachable block: pc 1 sits behind an unconditional jump."""
    return raw_kernel(
        "bad_cfg001",
        [
            Instruction(Opcode.BRA, target_pc=2),
            Instruction(Opcode.NOP),
            Instruction(Opcode.EXIT),
        ],
    )


def kernel_cfg002():
    """Backward reconvergence PC: the SIMT stack would never pop."""
    return raw_kernel(
        "bad_cfg002",
        [
            Instruction(Opcode.RECONV),
            _setp_const(),
            Instruction(Opcode.BRA, pred=0, target_pc=3, reconv_pc=0),
            Instruction(Opcode.EXIT),
        ],
    )


def kernel_cfg003():
    """Fall-through path enters an inescapable loop: no path to EXIT."""
    return raw_kernel(
        "bad_cfg003",
        [
            _setp_const(),
            Instruction(Opcode.BRA, pred=0, target_pc=4, reconv_pc=4),
            Instruction(Opcode.NOP),
            Instruction(Opcode.BRA, target_pc=2),
            Instruction(Opcode.RECONV),
            Instruction(Opcode.EXIT),
        ],
    )


def kernel_cfg004():
    """Inner reconvergence PC reachable without executing the inner branch.

    The outer branch jumps straight to pc 7, which is also the *inner*
    branch's reconvergence point — so the inner SIMT stack entry may never
    be popped even though every region is well nested (no CFG002).
    """
    return raw_kernel(
        "bad_cfg004",
        [
            _setp_const(),
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
        ],
    )


def kernel_ctl001():
    """Predicated EXIT: the SM kills all lanes regardless of the guard."""
    return raw_kernel(
        "bad_ctl001",
        [_setp_const(), Instruction(Opcode.EXIT, pred=0)],
    )


def kernel_ctl002():
    """Predicated BAR: barrier arrival ignores the guard."""
    return raw_kernel(
        "bad_ctl002",
        [
            _setp_const(),
            Instruction(Opcode.BAR, pred=0),
            Instruction(Opcode.EXIT),
        ],
    )


def kernel_bar001():
    """BAR inside the divergence region of a tid-dependent branch."""
    b = KernelBuilder("bad_bar001")
    i = b.sreg(Special.TID)
    p = b.pred()
    b.setp(p, CmpOp.LT, i, 16.0)
    with b.if_then(p):
        b.bar()
    return b.build()


def kernel_df001():
    """Arithmetic on a register no path ever writes."""
    b = KernelBuilder("bad_df001")
    i = b.sreg(Special.GTID)
    ghost = b.reg()
    out = b.reg()
    b.add(out, ghost, 1.0)
    b.st(b.addr(i, base=0, scale=8), out)
    return b.build()


def kernel_df002():
    """Load whose destination register is never observed."""
    b = KernelBuilder("bad_df002")
    i = b.sreg(Special.GTID)
    b.ld(b.addr(i, base=0, scale=8))  # dst unread: dead
    b.st(b.addr(i, base=4096, scale=8), i)
    return b.build()


def kernel_mem001():
    """Per-lane stride of 1024 B: a warp access spans ~249 cache lines."""
    b = KernelBuilder("bad_mem001")
    i = b.sreg(Special.GTID)
    x = b.ld(b.addr(i, base=0, scale=1024))
    b.st(b.addr(i, base=1 << 20, scale=8), x)
    return b.build()


def kernel_mem002():
    """Constant shared-memory address past the declared footprint."""
    b = KernelBuilder("bad_mem002", shared_mem_bytes=64)
    addr = b.const(128.0)
    x = b.ld(addr, space=MemSpace.SHARED)
    i = b.sreg(Special.GTID)
    b.st(b.addr(i, base=0, scale=8), x)
    return b.build()


def kernel_mem002_negative():
    """Constant negative global address."""
    b = KernelBuilder("bad_mem002_neg")
    addr = b.const(-8.0)
    x = b.ld(addr)
    i = b.sreg(Special.GTID)
    b.st(b.addr(i, base=0, scale=8), x)
    return b.build()


def kernel_path001():
    """Fall-through arm falls *through* the taken region to the join.

    This is exactly the corruption a builder bug dropping the
    ``bra end`` around an else-arm would produce: Algorithm 2 charges the
    fall-through warp ``target - pc - 1 = 2`` instructions, but the
    shortest real path from pc 2 to the reconvergence point executes 4.
    """
    return raw_kernel(
        "bad_path001",
        [
            _setp_const(),
            Instruction(Opcode.BRA, pred=0, target_pc=4, reconv_pc=6),
            Instruction(Opcode.NOP),
            Instruction(Opcode.NOP),
            Instruction(Opcode.NOP),
            Instruction(Opcode.NOP),
            Instruction(Opcode.RECONV),
            Instruction(Opcode.EXIT),
        ],
    )


BROKEN = {
    "CFG001": kernel_cfg001,
    "CFG002": kernel_cfg002,
    "CFG003": kernel_cfg003,
    "CFG004": kernel_cfg004,
    "CTL001": kernel_ctl001,
    "CTL002": kernel_ctl002,
    "BAR001": kernel_bar001,
    "DF001": kernel_df001,
    "DF002": kernel_df002,
    "MEM001": kernel_mem001,
    "MEM002": kernel_mem002,
    "PATH001": kernel_path001,
}


class TestBrokenKernelFixtures:
    @pytest.mark.parametrize("rule_id", sorted(BROKEN))
    def test_triggers_exactly_its_rule(self, rule_id):
        report = lint_kernel(BROKEN[rule_id]())
        fired = {f.rule for f in report.findings}
        assert fired == {rule_id}, (
            f"expected exactly {{{rule_id}}}, got {fired}:\n"
            + report.format_text()
        )

    @pytest.mark.parametrize("rule_id", sorted(BROKEN))
    def test_severity_matches_registry(self, rule_id):
        report = lint_kernel(BROKEN[rule_id]())
        for finding in report.findings:
            assert finding.severity is RULES[rule_id].severity

    def test_error_rules_fail_the_report(self):
        for rule_id, make in BROKEN.items():
            report = lint_kernel(make())
            expect_ok = RULES[rule_id].severity is not Severity.ERROR
            assert report.ok == expect_ok, rule_id

    def test_mem002_negative_address_variant(self):
        report = lint_kernel(kernel_mem002_negative())
        assert {f.rule for f in report.findings} == {"MEM002"}
        assert "negative" in report.findings[0].message

    def test_every_registered_rule_has_a_fixture(self):
        assert set(BROKEN) == set(RULES)

    def test_duplicate_rule_id_rejected(self):
        from repro.analysis.lints import rule

        with pytest.raises(ValueError, match="duplicate"):
            rule("CFG001", Severity.ERROR, "second")(lambda ctx: iter(()))
        assert RULES["CFG001"].title == "unreachable basic block"


class TestCleanKernels:
    def test_simple_stream_kernel_is_clean(self):
        b = KernelBuilder("clean")
        i = b.sreg(Special.GTID)
        x = b.ld(b.addr(i, base=0, scale=8))
        y = b.reg()
        b.mad(y, x, 2.0, x)
        b.st(b.addr(i, base=4096, scale=8), y)
        report = lint_kernel(b.build())
        assert report.findings == [] and report.ok

    def test_uniform_barrier_is_clean(self):
        # A barrier under *uniform* (ctaid) control flow must not trip
        # BAR001 even though it sits inside a branch region.
        b = KernelBuilder("unibar")
        blk = b.sreg(Special.CTAID)
        p = b.pred()
        b.setp(p, CmpOp.LT, blk, 2.0)
        with b.if_then(p):
            b.bar()
        i = b.sreg(Special.GTID)
        b.st(b.addr(i, base=0, scale=8), i)
        report = lint_kernel(b.build())
        assert report.findings == []

    def test_loop_with_break_is_clean(self):
        b = KernelBuilder("loopclean")
        i = b.sreg(Special.GTID)
        p = b.pred()
        j = b.const(0.0)
        acc = b.const(0.0)
        with b.loop() as lp:
            b.setp(p, CmpOp.GE, j, i)
            lp.break_if(p)
            b.add(acc, acc, 1.0)
            b.add(j, j, 1.0)
        b.st(b.addr(i, base=0, scale=8), acc)
        assert lint_kernel(b.build()).findings == []


class TestWaivers:
    def _noisy_kernel(self):
        b = KernelBuilder("noisy")
        b.waive_lint("MEM001", "intended AoS layout")
        i = b.sreg(Special.GTID)
        x = b.ld(b.addr(i, base=0, scale=1024))
        b.st(b.addr(i, base=1 << 20, scale=8), x)
        return b.build()

    def test_waived_findings_are_reported_but_suppressed(self):
        report = lint_kernel(self._noisy_kernel())
        assert report.findings, "waived findings must stay visible"
        assert all(f.suppressed for f in report.findings)
        assert report.ok and not report.warnings

    def test_waiver_marks_text_output(self):
        report = lint_kernel(self._noisy_kernel())
        assert "(waived)" in report.format_text()

    def test_waiver_survives_kernel_object(self):
        k = self._noisy_kernel()
        assert k.lint_waivers == {"MEM001": "intended AoS layout"}

    def test_error_waiver_suppresses_failure(self):
        k = kernel_mem002()
        k.lint_waivers["MEM002"] = "fixture"
        report = lint_kernel(k)
        assert report.ok and report.findings


class TestReportShape:
    def test_json_round_trip(self):
        report = lint_kernel(kernel_ctl001())
        payload = json.loads(report.to_json())
        assert payload["kernel"] == "bad_ctl001"
        assert payload["ok"] is False and payload["errors"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "CTL001"
        assert finding["severity"] == "error"
        assert finding["pc"] == 1
        assert finding["suppressed"] is False

    def test_findings_carry_disassembly_source(self):
        report = lint_kernel(kernel_ctl002())
        (finding,) = report.findings
        assert finding.source == "[1] @p0 bar"

    def test_by_rule_and_sorting(self):
        report = lint_kernel(kernel_cfg004())
        assert report.by_rule("CFG004") == report.findings
        pcs = [f.pc for f in report.findings]
        assert pcs == sorted(pcs)

    def test_rule_selection(self):
        # Restricting the rule set must silence everything else.
        report = lint_kernel(kernel_ctl001(), rules=["MEM001"])
        assert report.findings == [] and report.ok


class TestBuilderLintHook:
    def test_build_lint_error_raises(self):
        from repro.errors import LintError

        b = KernelBuilder("hooked", shared_mem_bytes=64)
        addr = b.const(128.0)
        x = b.ld(addr, space=MemSpace.SHARED)
        i = b.sreg(Special.GTID)
        b.st(b.addr(i, base=0, scale=8), x)
        with pytest.raises(LintError):
            b.build(lint="error")

    def test_build_lint_warn_only_reports(self, capsys):
        b = KernelBuilder("warned", shared_mem_bytes=64)
        addr = b.const(128.0)
        x = b.ld(addr, space=MemSpace.SHARED)
        i = b.sreg(Special.GTID)
        b.st(b.addr(i, base=0, scale=8), x)
        kernel = b.finalize(lint="warn")
        assert kernel.name == "warned"
        assert "MEM002" in capsys.readouterr().err

    def test_build_rejects_unknown_lint_mode(self):
        from repro.errors import KernelBuildError

        b = KernelBuilder("k")
        with pytest.raises(KernelBuildError):
            b.build(lint="loud")


class TestWorkloadKernelsAreClean:
    def test_every_registered_workload_lints_clean(self, gpu):
        from repro.workloads import make_workload, workload_names

        for name in workload_names(include_synthetic=True):
            spec = make_workload(name, scale=0.5).build(gpu)
            report = lint_kernel(
                spec.kernel,
                warp_size=gpu.config.warp_size,
                line_size=gpu.config.l1d.line_size,
            )
            assert report.ok, f"{name} failed lint:\n" + report.format_text()
            assert not report.warnings, (
                f"{name} has unwaived warnings:\n" + report.format_text()
            )
