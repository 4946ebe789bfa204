"""Functional (value-level) execution of instructions, one warp at a time.

This is the *reference* executor: it computes architectural results for the
active lanes of one warp with numpy and owns that warp's lane state —
register and predicate values and the reconvergence stack
(:class:`WarpLanes`).  Nothing on the timing path calls it: the recorder's
functional pass (:mod:`repro.trace.functional`) computes every value before
timing starts, batched over all the warps at one PC, and
``tests/test_trace_functional.py`` holds the pass to what this executor
does warp by warp.  The two share one definition of the opcode semantics,
:func:`bind_compute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import SimulationError
from ..isa.instructions import CmpOp, Instruction, MemSpace, Opcode
from .mask import bools_from_mask, mask_from_bools
from .registers import WarpRegisterFile
from .stack import SIMTStack


@dataclass(slots=True)
class ExecResult:
    """Outcome of functionally executing one instruction for one warp.

    Instructions with nothing to report (ALU/SFU/NOP, BAR, EXIT) all return
    the shared :data:`NO_EFFECT`, which nobody may write to; a LD/ST or
    branch result is a fresh record.

    Attributes:
        taken_mask: for branches, lanes (within the incoming active mask)
            whose predicate selected the branch target.
        mem_addrs: for LD/ST, per-lane byte addresses (full warp width;
            only lanes in ``mem_mask`` are meaningful).
        mem_mask: lanes that actually access memory (active mask further
            restricted by the instruction's guard predicate).
    """

    taken_mask: int = 0
    mem_addrs: Optional[np.ndarray] = None
    mem_mask: int = 0


#: The shared payload-free result.
NO_EFFECT = ExecResult()


class WarpLanes:
    """One warp's architectural state: lane values and where its lanes are."""

    __slots__ = ("rf", "stack")

    def __init__(self, warp) -> None:
        kernel = warp.block.kernel
        self.rf = WarpRegisterFile(kernel.num_regs, kernel.num_preds, warp.warp_size)
        self.stack = SIMTStack(entry_pc=0, mask=warp.initial_mask)


#: ``run(executor, warp, lanes) -> ExecResult``: one instruction's bound handler.
Handler = Callable[["FunctionalExecutor", object, WarpLanes], ExecResult]


class FunctionalExecutor:
    """Executes instructions against per-warp lane state and data memory."""

    def __init__(self, global_mem, warp_size: int) -> None:
        self._mem = global_mem
        self._warp_size = warp_size
        self._lanes: Dict[object, WarpLanes] = {}

    def lanes(self, warp) -> WarpLanes:
        """``warp``'s lane state (created, zeroed, at first use)."""
        lanes = self._lanes.get(warp)
        if lanes is None:
            lanes = self._lanes[warp] = WarpLanes(warp)
        return lanes

    def execute(self, inst: Instruction, warp) -> ExecResult:
        """Execute ``inst`` for ``warp``'s currently active lanes."""
        decoded = inst.decoded
        run = decoded.run
        if run is None:
            run = decoded.run = _bind(inst)
        return run(self, warp, self.lanes(warp))

    # ------------------------------------------------------------------
    def _guard_mask(self, lanes: WarpLanes, pred: Optional[int], neg: bool) -> int:
        """Active lanes further restricted by the guard predicate."""
        active = lanes.stack.active_mask
        if pred is None:
            return active
        pmask = mask_from_bools(lanes.rf.preds[pred])
        if neg:
            pmask = ~pmask & ((1 << self._warp_size) - 1)
        return active & pmask


# ----------------------------------------------------------------------
# Binding: one handler per static instruction, built at first execution.
# Operand-shape errors are static facts and are raised here, once.
# ----------------------------------------------------------------------
def _bind(inst: Instruction) -> Handler:
    op = inst.op
    if op is Opcode.BRA:
        return _bind_branch(inst)
    if op in (Opcode.NOP, Opcode.RECONV, Opcode.BAR, Opcode.EXIT):
        return lambda ex, warp, lanes: NO_EFFECT  # control: the caller's move
    if op is Opcode.LD or op is Opcode.ST:
        return _bind_memory(inst)
    return _bind_value(inst, bind_compute(inst))


def _bind_branch(inst: Instruction) -> Handler:
    pred, neg = inst.pred, inst.pred_neg
    if pred is None:
        return lambda ex, warp, lanes: ExecResult(taken_mask=lanes.stack.active_mask)

    def run(ex, warp, lanes) -> ExecResult:
        # The predicate is the branch condition here, not a guard.
        taken = mask_from_bools(lanes.rf.preds[pred])
        if neg:
            taken = ~taken & ((1 << ex._warp_size) - 1)
        return ExecResult(taken_mask=taken & lanes.stack.active_mask)

    return run


def _bind_memory(inst: Instruction) -> Handler:
    pred, neg, dst = inst.pred, inst.pred_neg, inst.dst
    base = inst.srcs[0]
    is_load = inst.op is Opcode.LD
    shared = inst.space is MemSpace.SHARED
    value_reg = None if is_load else inst.srcs[1]
    offset = np.int64(0.0 if inst.imm is None else inst.imm)

    def run(ex, warp, lanes) -> ExecResult:
        rf = lanes.rf
        effect_mask = ex._guard_mask(lanes, pred, neg)
        addrs = rf.regs[base].astype(np.int64)
        if offset:
            addrs += offset
        if effect_mask:
            where = bools_from_mask(effect_mask, ex._warp_size)
            if is_load:
                values = (warp.block.shared_load(addrs, where) if shared
                          else ex._mem.load(addrs, where))
                rf.write(dst, values, where)
            elif shared:
                warp.block.shared_store(addrs, rf.regs[value_reg], where)
            else:
                ex._mem.store(addrs, rf.regs[value_reg], where)
        return ExecResult(mem_addrs=addrs, mem_mask=effect_mask)

    return run


def _bind_value(inst: Instruction, compute: Callable) -> Handler:
    """Handler writing ``compute(rf, ex, warp)`` to ``dst`` under the guard."""
    pred, neg, dst = inst.pred, inst.pred_neg, inst.dst
    if inst.op is Opcode.SELP:
        pred = None  # the predicate selects; every active lane is written
    to_pred = inst.op is Opcode.SETP

    def run(ex, warp, lanes) -> ExecResult:
        rf = lanes.rf
        where = bools_from_mask(lanes.stack.active_mask, ex._warp_size)
        if pred is not None:
            pvals = rf.preds[pred]
            where = where & ~pvals if neg else where & pvals
        np.copyto((rf.preds if to_pred else rf.regs)[dst], compute(rf, ex, warp),
                  where=where)
        return NO_EFFECT

    return run


def bind_compute(inst: Instruction) -> Callable:
    """``compute(rf, ex, warp) -> lane values`` for a value-producing op.

    Every binding is elementwise over whatever ``rf.regs[r]`` /
    ``rf.preds[p]`` / ``warp.special_values(s)`` hand back, so the same
    closures serve one warp's ``(warp_size,)`` rows here and a whole group
    of warps' ``(G, warp_size)`` rows in the trace recorder's functional
    pass (:mod:`repro.trace.functional`): opcode semantics live here only.
    """
    op, srcs, imm, pc = inst.op, inst.srcs, inst.imm, inst.pc
    if op is Opcode.SREG:
        special = inst.special
        return lambda rf, ex, warp: warp.special_values(special)
    if op is Opcode.MAD:
        if imm is not None and len(srcs) == 2:
            a, c, scale = srcs[0], srcs[1], np.float64(imm)
            return lambda rf, ex, warp: rf.regs[a] * scale + rf.regs[c]
        if len(srcs) == 3:
            a, b, c = srcs
            return lambda rf, ex, warp: rf.regs[a] * rf.regs[b] + rf.regs[c]
        raise SimulationError(f"malformed MAD operands at pc={pc}")
    fn = _UNARY.get(op)
    if fn is not None:
        if srcs:
            a = srcs[0]
            return lambda rf, ex, warp: fn(rf.regs[a])
        if imm is None:
            raise SimulationError(f"missing operand at pc={pc}")
        const = np.float64(imm)  # broadcast over the lanes by the write
        return lambda rf, ex, warp: fn(const)
    select = op is Opcode.SELP
    fn = _COMPARES[inst.cmp] if op is Opcode.SETP else _BINARY.get(op)
    if fn is None and not select:
        raise SimulationError(f"unimplemented opcode {op!r} at pc={pc}")
    if len(srcs) == 2:
        a, b, const = srcs[0], srcs[1], None
    elif len(srcs) == 1 and imm is not None:
        a, b, const = srcs[0], None, np.float64(imm)
    else:
        raise SimulationError(f"malformed operands at pc={pc}")
    if select:
        sel = inst.pred
        return lambda rf, ex, warp: np.where(
            rf.preds[sel], rf.regs[a], const if b is None else rf.regs[b])
    return lambda rf, ex, warp: fn(rf.regs[a], const if b is None else rf.regs[b])


def _to_int(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).astype(np.int64)


def _safe_div(a: np.ndarray, b) -> np.ndarray:
    b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), np.shape(a)).copy()
    zero = b_arr == 0
    b_arr[zero] = 1.0
    out = a / b_arr
    out = np.where(zero, 0.0, out)
    return out


def _safe_mod(a: np.ndarray, b) -> np.ndarray:
    b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), np.shape(a)).copy()
    zero = b_arr == 0
    b_arr[zero] = 1.0
    out = np.mod(a, b_arr)
    return np.where(zero, 0.0, out)


def _safe_unary(fn, domain_fix):
    def wrapped(a: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            out = fn(domain_fix(a))
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)

    return wrapped


_UNARY = {
    Opcode.MOV: lambda a: a,
    Opcode.ABS: np.abs,
    Opcode.NEG: np.negative,
    Opcode.NOT: lambda a: (~_to_int(a)).astype(np.float64),
    Opcode.FLOOR: np.floor,
    Opcode.SQRT: _safe_unary(np.sqrt, lambda a: np.maximum(a, 0.0)),
    Opcode.RSQRT: _safe_unary(lambda a: 1.0 / np.sqrt(a), lambda a: np.maximum(a, 1e-300)),
    Opcode.RCP: _safe_unary(lambda a: 1.0 / a, lambda a: np.where(a == 0, 1e-300, a)),
    Opcode.EXP: _safe_unary(np.exp, lambda a: np.clip(a, -700, 700)),
    Opcode.LOG: _safe_unary(np.log, lambda a: np.maximum(a, 1e-300)),
    Opcode.SIN: np.sin,
    Opcode.COS: np.cos,
}

_BINARY = {
    Opcode.ADD: np.add,
    Opcode.SUB: np.subtract,
    Opcode.MUL: np.multiply,
    Opcode.DIV: _safe_div,
    Opcode.MOD: _safe_mod,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
    Opcode.AND: lambda a, b: (_to_int(a) & _to_int(b)).astype(np.float64),
    Opcode.OR: lambda a, b: (_to_int(a) | _to_int(b)).astype(np.float64),
    Opcode.XOR: lambda a, b: (_to_int(a) ^ _to_int(b)).astype(np.float64),
    Opcode.SHL: lambda a, b: (_to_int(a) << np.clip(_to_int(b), 0, 62)).astype(np.float64),
    Opcode.SHR: lambda a, b: (_to_int(a) >> np.clip(_to_int(b), 0, 62)).astype(np.float64),
}

_COMPARES = {
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
}
