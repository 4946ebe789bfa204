"""Kernel container and the :class:`KernelBuilder` authoring DSL.

Workloads write kernels through the builder, which provides structured
control flow (``if_then`` / ``if_else`` / ``loop``) and automatically emits
the reconvergence points that the SIMT stack needs to model branch
divergence.  Conditional branches produced by the builder are always forward
branches whose reconvergence label is the end of the structured block; back
edges are unconditional, so divergence bookkeeping stays simple and exact.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from ..errors import KernelBuildError
from .instructions import CmpOp, Decoded, Instruction, MemSpace, Opcode, Special
from .program import validate_kernel


@dataclass(frozen=True)
class Reg:
    """Handle for a general-purpose register."""

    idx: int


@dataclass(frozen=True)
class Pred:
    """Handle for a predicate register."""

    idx: int


Operand = Union[Reg, int, float]


@dataclass
class Kernel:
    """A finalized, validated kernel.

    Attributes:
        name: kernel name (used in reports).
        instructions: the static instruction stream, with labels resolved.
        labels: label name -> PC.
        num_regs: general registers per thread.
        num_preds: predicate registers per thread.
        shared_mem_bytes: per-block shared memory footprint.
    """

    name: str
    instructions: List[Instruction]
    labels: Dict[str, int]
    num_regs: int
    num_preds: int
    shared_mem_bytes: int = 0

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    @cached_property
    def decoded(self) -> List[Decoded]:
        """Every instruction's decode record, indexed by PC: the table the
        SM's issue path reads (built once per kernel)."""
        return [inst.decoded for inst in self.instructions]

    # ------------------------------------------------------------------
    # Listing / source quoting
    # ------------------------------------------------------------------
    def _label_for(self, pc: int) -> str:
        for label, label_pc in self.labels.items():
            if label_pc == pc:
                return label
        return f"pc {pc}"

    def format_instruction(self, inst: Instruction) -> str:
        """Render one instruction unambiguously.

        Unlike ``repr(inst)``, the rendering shows predicate negation
        (``@!p0``), the comparison operator of SETP (``setp.lt``), the
        memory space of LD/ST (``ld.shared``), and the reconvergence point
        of conditional branches (``reconv=<label>``).
        """
        guard = ""
        if inst.pred is not None and inst.op is not Opcode.SELP:
            guard = f"@{'!' if inst.pred_neg else ''}p{inst.pred} "
        op = inst.op
        if op is Opcode.BRA:
            target = (
                self._label_for(inst.target_pc)
                if inst.target_pc >= 0
                else repr(inst.target)
            )
            text = f"bra {target}"
            if inst.pred is not None:
                reconv = (
                    self._label_for(inst.reconv_pc)
                    if inst.reconv_pc >= 0
                    else "?"
                )
                text += f", reconv={reconv}"
        elif op is Opcode.SETP:
            cmp_name = inst.cmp.value if inst.cmp is not None else "?"
            operands = [f"p{inst.dst}"] + [f"r{s}" for s in inst.srcs]
            if inst.imm is not None:
                operands.append(_fmt_imm(inst.imm))
            text = f"setp.{cmp_name} " + ", ".join(operands)
        elif op is Opcode.SELP:
            operands = [f"r{inst.dst}"] + [f"r{s}" for s in inst.srcs]
            if inst.imm is not None:
                operands.append(_fmt_imm(inst.imm))
            operands.append(f"p{inst.pred}")
            text = "selp " + ", ".join(operands)
        elif op is Opcode.SREG:
            special = inst.special.value if inst.special is not None else "?"
            text = f"sreg r{inst.dst}, {special}"
        elif op in (Opcode.LD, Opcode.ST):
            suffix = "" if inst.space is MemSpace.GLOBAL else f".{inst.space.value}"
            offset = int(inst.imm or 0)
            sign = "+" if offset >= 0 else "-"
            addr = f"[r{inst.srcs[0]} {sign} {abs(offset)}]"
            if op is Opcode.LD:
                text = f"ld{suffix} r{inst.dst}, {addr}"
            else:
                text = f"st{suffix} {addr}, r{inst.srcs[1]}"
        else:
            operands = []
            if inst.dst is not None:
                operands.append(f"r{inst.dst}")
            operands.extend(f"r{s}" for s in inst.srcs)
            if inst.imm is not None:
                operands.append(_fmt_imm(inst.imm))
            text = op.value + (" " + ", ".join(operands) if operands else "")
        return guard + text

    def source_line(self, pc: int) -> str:
        """The disassembly line for ``pc``."""
        return f"[{pc}] {self.format_instruction(self.instructions[pc])}"

    def disassemble(self) -> str:
        """Human-readable listing of the whole kernel.

        Every line round-trips the information the SIMT pipeline consumes:
        guard predicates with negation, SETP comparison operators, LD/ST
        memory spaces, and branch targets with their reconvergence labels.
        """
        pc_labels: Dict[int, List[str]] = {}
        for label, pc in self.labels.items():
            pc_labels.setdefault(pc, []).append(label)
        lines = []
        for inst in self.instructions:
            for label in sorted(pc_labels.get(inst.pc, ())):
                lines.append(f"{label}:")
            lines.append(f"  {inst.pc:3d}:  {self.format_instruction(inst)}")
        return "\n".join(lines)


def _fmt_imm(value: float) -> str:
    if value == int(value):
        return f"#{int(value)}"
    return f"#{value!r}"


class _IfFrame:
    """Bookkeeping for one structured if/else region."""

    def __init__(self, else_label: str, end_label: str) -> None:
        self.else_label = else_label
        self.end_label = end_label
        self.has_else = False
        self.closed = False


class LoopFrame:
    """Bookkeeping for one structured loop region.

    Exposes ``break_if`` / ``break_unless`` so loop bodies can emit the
    (potentially divergent) exit branch.
    """

    def __init__(self, builder: "KernelBuilder", start_label: str, end_label: str) -> None:
        self._builder = builder
        self.start_label = start_label
        self.end_label = end_label
        self.closed = False

    def break_if(self, pred: Pred) -> None:
        """Exit the loop in lanes where ``pred`` is true."""
        self._builder._emit(
            Instruction(
                Opcode.BRA,
                pred=pred.idx,
                pred_neg=False,
                target=self.end_label,
                reconv=self.end_label,
            )
        )

    def break_unless(self, pred: Pred) -> None:
        """Exit the loop in lanes where ``pred`` is false."""
        self._builder._emit(
            Instruction(
                Opcode.BRA,
                pred=pred.idx,
                pred_neg=True,
                target=self.end_label,
                reconv=self.end_label,
            )
        )


class KernelBuilder:
    """Incrementally builds a :class:`Kernel`.

    Example::

        b = KernelBuilder("saxpy")
        i = b.sreg(Special.GTID)
        x = b.ld(b.addr(i, base=0, scale=8))
        y = b.ld(b.addr(i, base=4096, scale=8))
        r = b.reg()
        b.mad(r, x, 2.0, y)
        b.st(b.addr(i, base=8192, scale=8), r)
        kernel = b.build()
    """

    def __init__(self, name: str, shared_mem_bytes: int = 0) -> None:
        self.name = name
        self.shared_mem_bytes = shared_mem_bytes
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._next_reg = 0
        self._next_pred = 0
        self._next_label = 0
        self._open_frames: List[object] = []

    # ------------------------------------------------------------------
    # Resource allocation
    # ------------------------------------------------------------------
    def reg(self) -> Reg:
        """Allocate a fresh general register."""
        self._next_reg += 1
        return Reg(self._next_reg - 1)

    def regs(self, count: int) -> List[Reg]:
        """Allocate ``count`` fresh general registers."""
        return [self.reg() for _ in range(count)]

    def pred(self) -> Pred:
        """Allocate a fresh predicate register."""
        self._next_pred += 1
        return Pred(self._next_pred - 1)

    def fresh_label(self, stem: str) -> str:
        """Return a unique label name derived from ``stem``."""
        self._next_label += 1
        return f"{stem}_{self._next_label}"

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def _emit(self, inst: Instruction) -> None:
        self._instructions.append(inst)

    def label(self, name: str) -> None:
        """Bind ``name`` to the next instruction's PC."""
        if name in self._labels:
            raise KernelBuildError(f"duplicate label {name!r} in kernel {self.name!r}")
        self._labels[name] = len(self._instructions)

    def _operands(
        self, op: Opcode, operands: Tuple[Operand, ...]
    ) -> Tuple[Tuple[int, ...], Optional[float]]:
        """Split operands into register sources and at most one immediate.

        The immediate, when present, must be the final operand; this keeps
        the instruction encoding unambiguous.
        """
        srcs: List[int] = []
        imm: Optional[float] = None
        for i, operand in enumerate(operands):
            if isinstance(operand, Reg):
                if imm is not None:
                    raise KernelBuildError(
                        f"{op.value}: immediate operand must come last "
                        f"(kernel {self.name!r})"
                    )
                srcs.append(operand.idx)
            elif isinstance(operand, (int, float)):
                if imm is not None:
                    raise KernelBuildError(
                        f"{op.value}: at most one immediate operand allowed "
                        f"(kernel {self.name!r})"
                    )
                imm = float(operand)
            else:
                raise KernelBuildError(
                    f"{op.value}: bad operand {operand!r} (kernel {self.name!r})"
                )
        return tuple(srcs), imm

    def _alu(
        self,
        op: Opcode,
        dst: Reg,
        *operands: Operand,
        pred: Optional[Pred] = None,
        pred_neg: bool = False,
    ) -> Reg:
        srcs, imm = self._operands(op, operands)
        self._emit(
            Instruction(
                op,
                dst=dst.idx,
                srcs=srcs,
                imm=imm,
                pred=None if pred is None else pred.idx,
                pred_neg=pred_neg,
            )
        )
        return dst

    # ------------------------------------------------------------------
    # Arithmetic / logic
    # ------------------------------------------------------------------
    def mov(self, dst: Reg, src: Operand, **kw) -> Reg:
        """dst = src."""
        return self._alu(Opcode.MOV, dst, src, **kw)

    def add(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a + b."""
        return self._alu(Opcode.ADD, dst, a, b, **kw)

    def sub(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a - b."""
        return self._alu(Opcode.SUB, dst, a, b, **kw)

    def mul(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a * b."""
        return self._alu(Opcode.MUL, dst, a, b, **kw)

    def div(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a / b (0 when b is 0)."""
        return self._alu(Opcode.DIV, dst, a, b, **kw)

    def mod(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a mod b (0 when b is 0)."""
        return self._alu(Opcode.MOD, dst, a, b, **kw)

    def min_(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = min(a, b)."""
        return self._alu(Opcode.MIN, dst, a, b, **kw)

    def max_(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = max(a, b)."""
        return self._alu(Opcode.MAX, dst, a, b, **kw)

    def abs_(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = |a|."""
        return self._alu(Opcode.ABS, dst, a, **kw)

    def neg(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = -a."""
        return self._alu(Opcode.NEG, dst, a, **kw)

    def mad(self, dst: Reg, a: Operand, b: Operand, c: Operand, **kw) -> Reg:
        """dst = a * b + c.  An immediate is only encodable as ``b`` (the
        multiplier); a scalar ``c`` is materialized into a register first."""
        if not isinstance(a, Reg):
            a = self._const(a)
        if not isinstance(c, Reg):
            c = self._const(c)
        if isinstance(b, Reg):
            srcs, imm = (a.idx, b.idx, c.idx), None
        else:
            srcs, imm = (a.idx, c.idx), float(b)
        pred = kw.get("pred")
        self._emit(
            Instruction(
                Opcode.MAD,
                dst=dst.idx,
                srcs=srcs,
                imm=imm,
                pred=None if pred is None else pred.idx,
                pred_neg=kw.get("pred_neg", False),
            )
        )
        return dst

    def and_(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a & b (bitwise, via int64)."""
        return self._alu(Opcode.AND, dst, a, b, **kw)

    def or_(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a | b (bitwise, via int64)."""
        return self._alu(Opcode.OR, dst, a, b, **kw)

    def xor(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a ^ b (bitwise, via int64)."""
        return self._alu(Opcode.XOR, dst, a, b, **kw)

    def not_(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = ~a (bitwise, via int64)."""
        return self._alu(Opcode.NOT, dst, a, **kw)

    def shl(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a << b."""
        return self._alu(Opcode.SHL, dst, a, b, **kw)

    def shr(self, dst: Reg, a: Operand, b: Operand, **kw) -> Reg:
        """dst = a >> b."""
        return self._alu(Opcode.SHR, dst, a, b, **kw)

    def floor(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = floor(a)."""
        return self._alu(Opcode.FLOOR, dst, a, **kw)

    def sqrt(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = sqrt(max(a, 0)) (SFU)."""
        return self._alu(Opcode.SQRT, dst, a, **kw)

    def rsqrt(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = 1/sqrt(a), domain-clamped (SFU)."""
        return self._alu(Opcode.RSQRT, dst, a, **kw)

    def rcp(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = 1/a, domain-clamped (SFU)."""
        return self._alu(Opcode.RCP, dst, a, **kw)

    def exp(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = exp(a), input clamped to +-700 (SFU)."""
        return self._alu(Opcode.EXP, dst, a, **kw)

    def log(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = log(max(a, tiny)) (SFU)."""
        return self._alu(Opcode.LOG, dst, a, **kw)

    def sin(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = sin(a) (SFU)."""
        return self._alu(Opcode.SIN, dst, a, **kw)

    def cos(self, dst: Reg, a: Operand, **kw) -> Reg:
        """dst = cos(a) (SFU)."""
        return self._alu(Opcode.COS, dst, a, **kw)

    def selp(self, dst: Reg, pred: Pred, a: Operand, b: Operand) -> Reg:
        """dst = a where pred else b."""
        srcs, imm = self._operands(Opcode.SELP, (a, b))
        self._emit(
            Instruction(Opcode.SELP, dst=dst.idx, srcs=srcs, imm=imm, pred=pred.idx)
        )
        return dst

    def setp(self, dst: Pred, cmp: CmpOp, a: Operand, b: Operand) -> Pred:
        """Set predicate ``dst`` = ``cmp(a, b)`` per lane."""
        srcs, imm = self._operands(Opcode.SETP, (a, b))
        self._emit(Instruction(Opcode.SETP, dst=dst.idx, srcs=srcs, imm=imm, cmp=cmp))
        return dst

    def sreg(self, special: Special, dst: Optional[Reg] = None) -> Reg:
        """Read a special register (thread id, block id, ...) into ``dst``."""
        if dst is None:
            dst = self.reg()
        self._emit(Instruction(Opcode.SREG, dst=dst.idx, special=special))
        return dst

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def ld(
        self,
        addr: Reg,
        dst: Optional[Reg] = None,
        offset: int = 0,
        space: MemSpace = MemSpace.GLOBAL,
        pred: Optional[Pred] = None,
        pred_neg: bool = False,
    ) -> Reg:
        """Load ``dst = space[addr + offset]`` (8-byte word)."""
        if dst is None:
            dst = self.reg()
        self._emit(
            Instruction(
                Opcode.LD,
                dst=dst.idx,
                srcs=(addr.idx,),
                imm=float(offset),
                space=space,
                pred=None if pred is None else pred.idx,
                pred_neg=pred_neg,
            )
        )
        return dst

    def st(
        self,
        addr: Reg,
        src: Reg,
        offset: int = 0,
        space: MemSpace = MemSpace.GLOBAL,
        pred: Optional[Pred] = None,
        pred_neg: bool = False,
    ) -> None:
        """Store ``space[addr + offset] = src`` (8-byte word)."""
        self._emit(
            Instruction(
                Opcode.ST,
                srcs=(addr.idx, src.idx),
                imm=float(offset),
                space=space,
                pred=None if pred is None else pred.idx,
                pred_neg=pred_neg,
            )
        )

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def bra(self, target: str) -> None:
        """Unconditional branch (used for back edges; never diverges)."""
        self._emit(Instruction(Opcode.BRA, target=target))

    def bar(self) -> None:
        """Block-wide synchronization barrier."""
        self._emit(Instruction(Opcode.BAR))

    def exit(self) -> None:
        """Terminate the thread."""
        self._emit(Instruction(Opcode.EXIT))

    def nop(self, count: int = 1) -> None:
        """Emit ``count`` NOPs (useful for padding basic blocks in tests)."""
        for _ in range(count):
            self._emit(Instruction(Opcode.NOP))

    def begin_if(self, pred: Pred, invert: bool = False) -> _IfFrame:
        """Open an if-region executed in lanes where ``pred`` holds.

        With ``invert=True`` the region executes where ``pred`` is false.
        """
        frame = _IfFrame(self.fresh_label("else"), self.fresh_label("endif"))
        # Branch around the then-body when the condition does NOT hold.
        self._emit(
            Instruction(
                Opcode.BRA,
                pred=pred.idx,
                pred_neg=not invert,
                target=frame.else_label,
                reconv=frame.end_label,
            )
        )
        self._open_frames.append(frame)
        return frame

    def begin_else(self, frame: _IfFrame) -> None:
        """Switch from the then-body to the else-body of ``frame``."""
        if frame.has_else or frame.closed:
            raise KernelBuildError("begin_else on an already-closed if frame")
        if not self._open_frames or self._open_frames[-1] is not frame:
            raise KernelBuildError("begin_else must match the innermost open if")
        frame.has_else = True
        self.bra(frame.end_label)
        self.label(frame.else_label)

    def end_if(self, frame: _IfFrame) -> None:
        """Close an if-region, emitting its reconvergence point."""
        if frame.closed:
            raise KernelBuildError("end_if on an already-closed if frame")
        if not self._open_frames or self._open_frames[-1] is not frame:
            raise KernelBuildError("end_if must match the innermost open frame")
        self._open_frames.pop()
        frame.closed = True
        if not frame.has_else:
            self.label(frame.else_label)
        self.label(frame.end_label)
        self._emit(Instruction(Opcode.RECONV))

    @contextlib.contextmanager
    def if_then(self, pred: Pred, invert: bool = False):
        """``with b.if_then(p): ...`` sugar for an else-less if-region."""
        frame = self.begin_if(pred, invert=invert)
        yield frame
        self.end_if(frame)

    def begin_loop(self) -> LoopFrame:
        """Open a loop region; exit it with ``frame.break_if/break_unless``."""
        frame = LoopFrame(self, self.fresh_label("loop"), self.fresh_label("endloop"))
        self.label(frame.start_label)
        self._open_frames.append(frame)
        return frame

    def end_loop(self, frame: LoopFrame) -> None:
        """Close a loop region: back edge plus reconvergence point."""
        if frame.closed:
            raise KernelBuildError("end_loop on an already-closed loop frame")
        if not self._open_frames or self._open_frames[-1] is not frame:
            raise KernelBuildError("end_loop must match the innermost open frame")
        self._open_frames.pop()
        frame.closed = True
        self.bra(frame.start_label)
        self.label(frame.end_label)
        self._emit(Instruction(Opcode.RECONV))

    @contextlib.contextmanager
    def loop(self):
        """``with b.loop() as lp: ... lp.break_unless(p) ...`` sugar."""
        frame = self.begin_loop()
        yield frame
        self.end_loop(frame)

    # ------------------------------------------------------------------
    # Convenience composites
    # ------------------------------------------------------------------
    def addr(self, index: Reg, base: int = 0, scale: int = 8) -> Reg:
        """Compute ``base + index * scale`` into a fresh register."""
        dst = self.reg()
        if scale == 1:
            self.add(dst, index, float(base))
        else:
            self.mad(dst, index, float(scale), self._const(float(base)))
        return dst

    def _const(self, value: float) -> Reg:
        dst = self.reg()
        self.mov(dst, value)
        return dst

    def const(self, value: float) -> Reg:
        """Materialize an immediate into a fresh register."""
        return self._const(float(value))

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def build(self) -> Kernel:
        """Finalize: append EXIT, resolve labels, validate, freeze."""
        if self._open_frames:
            raise KernelBuildError(
                f"kernel {self.name!r} has {len(self._open_frames)} unclosed "
                "structured block(s)"
            )
        if not self._instructions or self._instructions[-1].op is not Opcode.EXIT:
            self.exit()
        # Labels may point one past the end (e.g. a loop end right before
        # the implicit EXIT we just appended would have been fine); clamp is
        # unnecessary because we emit EXIT after closing all frames.
        resolved: List[Instruction] = []
        for pc, inst in enumerate(self._instructions):
            target_pc = -1
            reconv_pc = -1
            if inst.target is not None:
                if inst.target not in self._labels:
                    raise KernelBuildError(
                        f"undefined label {inst.target!r} in kernel {self.name!r}"
                    )
                target_pc = self._labels[inst.target]
            if inst.reconv is not None:
                if inst.reconv not in self._labels:
                    raise KernelBuildError(
                        f"undefined reconvergence label {inst.reconv!r} "
                        f"in kernel {self.name!r}"
                    )
                reconv_pc = self._labels[inst.reconv]
            resolved.append(
                replace(inst, pc=pc, target_pc=target_pc, reconv_pc=reconv_pc)
            )
        kernel = Kernel(
            name=self.name,
            instructions=resolved,
            labels=dict(self._labels),
            num_regs=max(self._next_reg, 1),
            num_preds=max(self._next_pred, 1),
            shared_mem_bytes=self.shared_mem_bytes,
        )
        validate_kernel(kernel)
        return kernel
