"""Instruction definitions for the simulator's PTX-like ISA.

The ISA is deliberately small: enough arithmetic, predicate, branch, and
memory operations to express the Rodinia/Parboil-style kernels the paper
evaluates, while keeping the functional executor fast.  Registers are untyped
64-bit floats (bitwise operations cast through int64), predicates are
booleans, and memory is a flat byte-addressed global space plus a per-block
shared space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple


class Opcode(enum.Enum):
    """Every operation the SIMT core can issue."""

    # Arithmetic / logic (ALU pipe)
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    NEG = "neg"
    MAD = "mad"  # dst = src0 * src1 + src2
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    SETP = "setp"  # predicate dst = cmp(src0, src1)
    SELP = "selp"  # dst = pred ? src0 : src1
    FLOOR = "floor"

    # Special function unit (SFU pipe)
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    RCP = "rcp"
    EXP = "exp"
    LOG = "log"
    SIN = "sin"
    COS = "cos"

    # Memory (MEM pipe)
    LD = "ld"  # dst = mem[src0 + imm]
    ST = "st"  # mem[src0 + imm] = src1

    # Control (CTRL pipe)
    BRA = "bra"
    RECONV = "reconv"  # reconvergence point marker (no-op at execution)
    BAR = "bar"  # block-wide barrier
    EXIT = "exit"
    NOP = "nop"

    # Special registers
    SREG = "sreg"  # dst = special value


class FuncUnit(enum.Enum):
    """Execution pipe an opcode occupies; determines issue latency."""

    ALU = "alu"
    SFU = "sfu"
    MEM = "mem"
    CTRL = "ctrl"


class CmpOp(enum.Enum):
    """Comparison operators for SETP."""

    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"


class MemSpace(enum.Enum):
    """Address spaces for LD/ST."""

    GLOBAL = "global"
    SHARED = "shared"


class Special(enum.Enum):
    """Special (read-only) per-thread values readable via SREG."""

    TID = "tid"  # thread index within the block
    CTAID = "ctaid"  # block index within the grid
    NTID = "ntid"  # block dimension (threads per block)
    NCTAID = "nctaid"  # grid dimension (blocks per grid)
    GTID = "gtid"  # global thread id = ctaid * ntid + tid
    LANEID = "laneid"  # lane within the warp
    WARPID = "warpid"  # warp index within the block


_OPCODE_UNIT = {
    Opcode.SQRT: FuncUnit.SFU,
    Opcode.RSQRT: FuncUnit.SFU,
    Opcode.RCP: FuncUnit.SFU,
    Opcode.EXP: FuncUnit.SFU,
    Opcode.LOG: FuncUnit.SFU,
    Opcode.SIN: FuncUnit.SFU,
    Opcode.COS: FuncUnit.SFU,
    Opcode.LD: FuncUnit.MEM,
    Opcode.ST: FuncUnit.MEM,
    Opcode.BRA: FuncUnit.CTRL,
    Opcode.RECONV: FuncUnit.CTRL,
    Opcode.BAR: FuncUnit.CTRL,
    Opcode.EXIT: FuncUnit.CTRL,
    Opcode.NOP: FuncUnit.CTRL,
}


def func_unit(op: Opcode) -> FuncUnit:
    """Return the execution pipe for ``op`` (default: ALU)."""
    return _OPCODE_UNIT.get(op, FuncUnit.ALU)


class IssueKind(enum.IntEnum):
    """What the SM's issue path does with an instruction once selected.

    The register-writing kinds double as the latency class: ``ALU`` and
    ``PRED`` complete after the ALU latency, ``SFU`` after the SFU latency.
    """

    NONE = 0  # no scoreboard write: NOP, RECONV
    ALU = 1
    SFU = 2
    PRED = 3  # writes a predicate (SETP)
    LOAD = 4
    STORE = 5
    BRANCH = 6
    BARRIER = 7
    EXIT = 8


_CTRL_KIND = {Opcode.LD: IssueKind.LOAD, Opcode.ST: IssueKind.STORE,
              Opcode.BRA: IssueKind.BRANCH, Opcode.BAR: IssueKind.BARRIER,
              Opcode.EXIT: IssueKind.EXIT}


@dataclass(slots=True)
class Decoded:
    """What the issue path needs about one static instruction, derived once
    (:attr:`Instruction.decoded`) instead of from the opcode on every issue.

    Attributes:
        kind: an :class:`IssueKind` value, as a plain int.
        needs_global_mem: global-space LD/ST — needs an MSHR to issue.
        srcs, dst, pred, pred_is_dst: the scoreboard operands the SM's
            readiness walk reads (``dst`` is ``None`` when nothing is
            written; WAW hazards stall issue too).
        run: the reference executor's handler ``run(executor, warp, lanes)
            -> ExecResult``; :class:`repro.simt.executor.FunctionalExecutor`
            binds it (and checks the operand shapes) at the first
            execution.  The timing path never reads it.
    """

    kind: int
    needs_global_mem: bool
    srcs: Tuple[int, ...]
    dst: Optional[int]
    pred: Optional[int]
    pred_is_dst: bool
    run: Optional[Callable] = None


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Attributes:
        op: the opcode.
        dst: destination register index (or predicate index for SETP), or
            ``None`` when the op produces no value.
        srcs: source register indices.
        imm: immediate operand (constant arithmetic operand, memory offset,
            or special-register selector for SREG).
        pred: guarding predicate register index; the instruction only takes
            effect in lanes where the predicate holds (inverted when
            ``pred_neg``).  For BRA this is the branch condition.
        pred_neg: invert the guarding predicate.
        cmp: comparison operator (SETP only).
        space: address space (LD/ST only).
        target: branch-target label, resolved to a PC by
            :func:`repro.isa.program.validate_kernel`.
        reconv: reconvergence-point label for potentially divergent branches.
        special: the special value selector (SREG only).
        pc: index of the instruction in its kernel, filled at finalize time.
    """

    op: Opcode
    dst: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    imm: Optional[float] = None
    pred: Optional[int] = None
    pred_neg: bool = False
    cmp: Optional[CmpOp] = None
    space: MemSpace = MemSpace.GLOBAL
    target: Optional[str] = None
    reconv: Optional[str] = None
    special: Optional[Special] = None
    pc: int = -1
    target_pc: int = field(default=-1)
    reconv_pc: int = field(default=-1)

    # These classification helpers sit on the per-issue hot path (several
    # lookups per issued instruction); ``cached_property`` turns the repeat
    # calls into instance-dict hits.  (``cached_property`` writes straight
    # into ``__dict__`` and therefore works on frozen dataclasses.)

    @cached_property
    def unit(self) -> FuncUnit:
        """Execution pipe this instruction occupies."""
        return func_unit(self.op)

    @cached_property
    def is_branch(self) -> bool:
        return self.op is Opcode.BRA

    @cached_property
    def is_memory(self) -> bool:
        return self.op in (Opcode.LD, Opcode.ST)

    @cached_property
    def is_load(self) -> bool:
        return self.op is Opcode.LD

    @cached_property
    def writes_register(self) -> bool:
        """True when ``dst`` names a general register this op writes."""
        return self.dst is not None and self.op not in (Opcode.SETP, Opcode.ST)

    @cached_property
    def writes_predicate(self) -> bool:
        return self.op is Opcode.SETP

    @cached_property
    def decoded(self) -> Decoded:
        """The instruction's decode record (built on first use)."""
        kind = _CTRL_KIND.get(self.op)
        if kind is None:
            if self.writes_predicate:
                kind = IssueKind.PRED
            elif not self.writes_register:
                kind = IssueKind.NONE
            elif self.unit is FuncUnit.SFU:
                kind = IssueKind.SFU
            else:
                kind = IssueKind.ALU
        writes = self.writes_register or self.writes_predicate
        return Decoded(
            kind=int(kind),
            needs_global_mem=self.is_memory and self.space is MemSpace.GLOBAL,
            srcs=self.srcs,
            dst=self.dst if writes else None,
            pred=self.pred,
            pred_is_dst=self.writes_predicate,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        guard = ""
        if self.pred is not None:
            guard = f"@{'!' if self.pred_neg else ''}p{self.pred} "
        parts = [f"[{self.pc}] {guard}{self.op.value}"]
        if self.dst is not None:
            prefix = "p" if self.op is Opcode.SETP else "r"
            parts.append(f"{prefix}{self.dst}")
        parts.extend(f"r{s}" for s in self.srcs)
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"-> {self.target}")
        return " ".join(parts)
