"""Lint rule registry and the :func:`lint_kernel` driver.

Each rule has a **stable ID** (referenced by suppressions, tests, and CI
baselines), a default :class:`Severity`, and a checker that walks the shared
:class:`LintContext` (kernel + CFG + lazily-computed dataflow and path
bounds) yielding findings.  The catalogue — documented in
``docs/static_analysis.md`` — currently covers:

=========  ========  =====================================================
rule id    severity  what it catches
=========  ========  =====================================================
CFG001     error     unreachable basic blocks
CFG002     error     ill-nested / backward reconvergence points
CFG003     error     blocks with no path to EXIT (infinite-loop candidate)
CFG004     error     reconvergence PC not dominated by its branch
CTL001     error     predicated EXIT (the SM kills *all* lanes at EXIT)
CTL002     error     predicated BAR (barrier arrival ignores the guard)
BAR001     error     BAR reachable under divergent control flow
DF001      warning   register/predicate read before any write
DF002      warning   dead write (no path observes the value)
MEM001     warning   coalescing-hostile per-lane stride
MEM002     error     out-of-bounds / negative constant address
PATH001    error     CPL Algorithm-2 path size outside static bounds
=========  ========  =====================================================

Suppressions: ``KernelBuilder.waive_lint("DF002", reason=...)`` (or a
``lint_waivers`` attribute on a hand-built :class:`~repro.isa.kernel.Kernel`)
marks a rule as acknowledged for the whole kernel.  Waived findings are
still reported — with ``suppressed=True``, rendered ``(waived)`` in text
and ``"suppressed": true`` in JSON — but do not fail the lint.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..isa.instructions import Opcode
from .cfg import CFG
from .dataflow import DataflowResult, analyze_dataflow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isa.kernel import Kernel
    from .pathlen import PathBounds

__all__ = [
    "Severity",
    "Finding",
    "LintReport",
    "LintContext",
    "RULES",
    "rule",
    "lint_kernel",
]


class Severity(enum.IntEnum):
    """How bad a finding is.  Only ERROR findings fail a lint."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One lint hit, tied to a rule ID and a PC in one kernel."""

    rule: str
    severity: Severity
    message: str
    suppressed: bool = False
    kernel: str = ""
    pc: int = -1
    #: The offending source line, as rendered by ``Kernel.disassemble``.
    source: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "suppressed": self.suppressed,
            "kernel": self.kernel,
            "pc": self.pc,
            "source": self.source,
        }

    def __str__(self) -> str:
        mark = " (waived)" if self.suppressed else ""
        line = f" | {self.source}" if self.source else ""
        return (f"{self.kernel}:pc={self.pc}: {self.severity} [{self.rule}]"
                f"{mark} {self.message}{line}")


@dataclass
class LintReport:
    """All findings for one kernel, plus pass/fail summary logic."""

    kernel: str
    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings
                if f.severity is Severity.ERROR and not f.suppressed]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings
                if f.severity is Severity.WARNING and not f.suppressed]

    @property
    def ok(self) -> bool:
        """True when no unsuppressed ERROR finding exists."""
        return not self.errors

    def by_rule(self, rule_id: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule_id]

    def format_text(self) -> str:
        if not self.findings:
            return f"{self.kernel}: clean"
        lines = [str(f) for f in self.findings]
        lines.append(f"{self.kernel}: {len(self.errors)} error(s), "
                     f"{len(self.warnings)} warning(s)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.findings],
            "kernel": self.kernel,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ----------------------------------------------------------------------
# Shared analysis context
# ----------------------------------------------------------------------
@dataclass
class LintContext:
    """Everything a rule checker may consult, computed lazily and shared."""

    kernel: "Kernel"
    cfg: CFG
    warp_size: int = 32
    line_size: int = 128

    @cached_property
    def dataflow(self) -> DataflowResult:
        return analyze_dataflow(self.kernel, self.cfg)

    @cached_property
    def bounds(self) -> "PathBounds":
        from .pathlen import compute_path_bounds  # deferred: keeps cycles out

        return compute_path_bounds(self.kernel, self.cfg)

    def source(self, pc: int) -> str:
        line = getattr(self.kernel, "source_line", None)
        if callable(line):
            return line(pc)
        return repr(self.kernel.instructions[pc])


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
Checker = Callable[[LintContext], Iterator[Tuple[int, str]]]


@dataclass(frozen=True)
class _Rule:
    """One registered rule: stable ID, severity, title, and its checker."""

    rule_id: str
    severity: Severity
    title: str
    check: Checker


#: The rule catalogue in registration order, keyed by stable ID.
RULES: Dict[str, _Rule] = {}


def rule(rule_id: str, severity: Severity,
         title: str) -> Callable[[Checker], Checker]:
    """Decorator registering a checker under a stable ID in :data:`RULES`."""

    def register(fn: Checker) -> Checker:
        if rule_id in RULES:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        RULES[rule_id] = _Rule(rule_id, severity, title, fn)
        return fn

    return register


# ----------------------------------------------------------------------
# CFG structure rules
# ----------------------------------------------------------------------
@rule("CFG001", Severity.ERROR, "unreachable basic block")
def _check_unreachable(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    for block in ctx.cfg.unreachable_blocks:
        yield block.start, (
            f"basic block BB{block.bid} [{block.start}:{block.end}) is "
            "unreachable from the kernel entry"
        )


@rule("CFG002", Severity.ERROR, "ill-nested or backward reconvergence")
def _check_reconv_nesting(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    branches = ctx.cfg.branches
    for site in branches:
        if site.reconv_pc <= site.pc:
            yield site.pc, (
                f"reconvergence pc {site.reconv_pc} does not lie after the "
                f"branch (backward or self reconvergence)"
            )
    for outer in branches:
        for inner in branches:
            if inner.pc == outer.pc or not outer.contains(inner.pc):
                continue
            if inner.reconv_pc > outer.reconv_pc:
                yield inner.pc, (
                    f"branch region [{inner.pc + 1}, {inner.reconv_pc}) is "
                    f"not nested inside the enclosing branch at pc="
                    f"{outer.pc} (which reconverges at {outer.reconv_pc}); "
                    "the SIMT stack pops in the wrong order"
                )


@rule("CFG003", Severity.ERROR, "no path to EXIT (infinite-loop candidate)")
def _check_reaches_exit(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    cfg = ctx.cfg
    for block in cfg.blocks:
        if block.bid in cfg.reachable and block.bid not in cfg.reaches_exit:
            yield block.start, (
                f"no execution path from pc {block.start} ever reaches an "
                "EXIT: every warp entering this block loops forever"
            )


@rule("CFG004", Severity.ERROR, "reconvergence point not dominated by branch")
def _check_reconv_dominated(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    cfg = ctx.cfg
    for site in cfg.branches:
        if site.is_loop_break:
            # Sibling loop breaks legitimately share the loop-exit RECONV,
            # which the *loop header*, not each break, dominates.
            continue
        if not (site.pc < site.reconv_pc < len(ctx.kernel.instructions)):
            # Backward / out-of-range reconvergence is CFG002's territory.
            continue
        if not cfg.pc_dominates(site.pc, site.reconv_pc):
            yield site.pc, (
                f"reconvergence pc {site.reconv_pc} is reachable without "
                f"executing the branch at pc {site.pc}: the SIMT stack entry "
                "pushed here may never be popped"
            )


# ----------------------------------------------------------------------
# Control / predication rules
# ----------------------------------------------------------------------
@rule("CTL001", Severity.ERROR, "predicated EXIT")
def _check_predicated_exit(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    for inst in ctx.kernel.instructions:
        if inst.op is Opcode.EXIT and inst.pred is not None:
            yield inst.pc, (
                "EXIT ignores its guard predicate: the SM kills every "
                "active lane regardless — use a branch around the EXIT "
                "instead"
            )


@rule("CTL002", Severity.ERROR, "predicated BAR")
def _check_predicated_bar(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    for inst in ctx.kernel.instructions:
        if inst.op is Opcode.BAR and inst.pred is not None:
            yield inst.pc, (
                "BAR ignores its guard predicate: the whole warp arrives at "
                "the barrier regardless of the guard"
            )


@rule("BAR001", Severity.ERROR, "barrier under divergent control flow")
def _check_barrier_divergence(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    df = ctx.dataflow
    for inst in ctx.kernel.instructions:
        if inst.op is not Opcode.BAR or not df.is_divergent(inst.pc):
            continue
        culprits = [
            site.pc
            for site in ctx.cfg.divergence_region_of(inst.pc)
            if site.pc in df.varying_branch_pcs
        ]
        yield inst.pc, (
            "BAR executes inside the divergence region of branch(es) at pc "
            f"{culprits} whose condition is not provably block-uniform: "
            "warps that exit the region early deadlock the barrier"
        )


# ----------------------------------------------------------------------
# Dataflow rules
# ----------------------------------------------------------------------
@rule("DF001", Severity.WARNING, "read before any write")
def _check_uninit_reads(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    names = {"reg": "register r", "pred": "predicate p"}
    for pc, kind, idx, never in ctx.dataflow.uninit_reads:
        how = (
            "is never written anywhere in the kernel"
            if never
            else "is unwritten on at least one path from the entry"
        )
        yield pc, (
            f"{names[kind]}{idx} {how}; the read observes the "
            "zero-initialized register file"
        )


@rule("DF002", Severity.WARNING, "dead write")
def _check_dead_writes(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    names = {"reg": "register r", "pred": "predicate p"}
    for pc, kind, idx in ctx.dataflow.dead_writes:
        yield pc, (
            f"value written to {names[kind]}{idx} is never observed on any "
            "path"
        )


# ----------------------------------------------------------------------
# Memory access-pattern rules
# ----------------------------------------------------------------------
@rule("MEM001", Severity.WARNING, "coalescing-hostile stride")
def _check_strides(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    for pc, acc in sorted(ctx.dataflow.mem_accesses.items()):
        if acc.lane_stride is None or acc.lane_stride == 0.0:
            continue
        span = abs(acc.lane_stride) * (ctx.warp_size - 1) + 8
        lines = math.ceil(span / ctx.line_size)
        if lines > 4:
            kind = "load" if acc.is_load else "store"
            yield pc, (
                f"{acc.space} {kind} has per-lane stride "
                f"{acc.lane_stride:g} B: one warp access spans ~{lines} "
                f"cache lines (> 4); consider restructuring for coalescing"
            )


@rule("MEM002", Severity.ERROR, "out-of-bounds constant address")
def _check_const_addresses(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    shared_bytes = ctx.kernel.shared_mem_bytes
    for pc, acc in sorted(ctx.dataflow.mem_accesses.items()):
        addr = acc.const_address
        if addr is None:
            continue
        kind = "load" if acc.is_load else "store"
        if addr < 0:
            yield pc, (
                f"{acc.space} {kind} at constant negative address "
                f"{addr:g}"
            )
        elif acc.space == "shared" and addr + 8 > shared_bytes:
            yield pc, (
                f"shared {kind} at constant address {addr:g} overruns the "
                f"kernel's shared memory footprint of {shared_bytes} bytes"
            )


# ----------------------------------------------------------------------
# CPL path-size cross-check
# ----------------------------------------------------------------------
@rule("PATH001", Severity.ERROR, "CPL path size outside static bounds")
def _check_path_sizes(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    bounds = ctx.bounds
    for site in ctx.cfg.branches:
        estimates = (
            ("fall-through", site.pc + 1, max(0, site.target_pc - site.pc - 1)),
            ("taken", site.target_pc, max(0, site.reconv_pc - site.target_pc)),
        )
        for arm, entry, estimate in estimates:
            if entry == site.reconv_pc:
                continue  # empty arm: estimate 0 by construction
            region = bounds.region_bounds(entry, site.reconv_pc)
            if region is None or math.isinf(region[1]):
                # Arm never reaches the reconvergence point (flagged by the
                # CFG rules when it matters) or contains a loop: the static
                # warp-level envelope is unbounded, nothing to enforce.
                continue
            lo, hi = region
            if not lo <= estimate <= hi:
                yield site.pc, (
                    f"Algorithm-2 {arm} path size {estimate} of the branch "
                    f"at pc {site.pc} escapes the static envelope "
                    f"[{lo:g}, {hi:g}] of instructions executable between "
                    f"pc {entry} and the reconvergence point "
                    f"{site.reconv_pc}: CPL criticality accounting will "
                    "drift"
                )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def lint_kernel(
    kernel: "Kernel",
    *,
    warp_size: int = 32,
    line_size: int = 128,
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the lint rule catalogue over ``kernel``.

    Args:
        kernel: a finalized :class:`~repro.isa.kernel.Kernel`.
        warp_size: lanes per warp (MEM001 span computation).
        line_size: cache line size in bytes (MEM001 span computation).
        rules: restrict to these rule IDs (default: every registered rule).

    Returns:
        A :class:`LintReport`; ``report.ok`` is False when any unsuppressed
        ERROR-severity finding exists.
    """
    ctx = LintContext(
        kernel=kernel,
        cfg=CFG(kernel),
        warp_size=warp_size,
        line_size=line_size,
    )
    waivers = frozenset(getattr(kernel, "lint_waivers", ()) or ())
    selected = RULES if rules is None else {
        rid: RULES[rid] for rid in rules if rid in RULES
    }
    report = LintReport(kernel=kernel.name)
    for rule_def in selected.values():
        for pc, message in rule_def.check(ctx):
            report.findings.append(
                Finding(
                    rule=rule_def.rule_id,
                    severity=rule_def.severity,
                    kernel=kernel.name,
                    pc=pc,
                    message=message,
                    source=ctx.source(pc),
                    suppressed=rule_def.rule_id in waivers,
                )
            )
    report.findings.sort(key=lambda f: (f.pc, f.rule))
    return report
