"""Opcode semantics: what a value-producing instruction computes.

:func:`bind_compute` is the one definition of every arithmetic, logic,
compare, select and special-register opcode.  The recorder's functional
pass (:mod:`repro.trace.functional`) runs its closures over a group of
warps' ``(G, warp_size)`` register rows at once; the per-warp reference
executor the tests hold that pass to runs the same closures over one
warp's ``(warp_size,)`` rows.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import SimulationError
from .instructions import CmpOp, Instruction, Opcode


def bind_compute(inst: Instruction) -> Callable:
    """``compute(rf, warp) -> lane values`` for a value-producing op.

    Every binding is elementwise over whatever ``rf.regs[r]`` /
    ``rf.preds[p]`` / ``warp.special_values(s)`` hand back, so the same
    closures serve one warp's rows and a whole group of warps' rows.
    Operand-shape errors are static facts and are raised here, once.
    """
    op, srcs, imm, pc = inst.op, inst.srcs, inst.imm, inst.pc
    if op is Opcode.SREG:
        special = inst.special
        return lambda rf, warp: warp.special_values(special)
    if op is Opcode.MAD:
        if imm is not None and len(srcs) == 2:
            a, c, scale = srcs[0], srcs[1], np.float64(imm)
            return lambda rf, warp: rf.regs[a] * scale + rf.regs[c]
        if len(srcs) == 3:
            a, b, c = srcs
            return lambda rf, warp: rf.regs[a] * rf.regs[b] + rf.regs[c]
        raise SimulationError(f"malformed MAD operands at pc={pc}")
    fn = _UNARY.get(op)
    if fn is not None:
        if srcs:
            a = srcs[0]
            return lambda rf, warp: fn(rf.regs[a])
        if imm is None:
            raise SimulationError(f"missing operand at pc={pc}")
        const = np.float64(imm)  # broadcast over the lanes by the write
        return lambda rf, warp: fn(const)
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
        return lambda rf, warp: np.where(
            rf.preds[sel], rf.regs[a], const if b is None else rf.regs[b])
    return lambda rf, warp: fn(rf.regs[a], const if b is None else rf.regs[b])


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
