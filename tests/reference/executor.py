"""Functional (value-level) execution of instructions, one warp at a time.

This is the *reference* executor: it computes architectural results for the
active lanes of one warp with numpy and owns that warp's lane state —
register and predicate values and the reconvergence stack
(:class:`WarpLanes`) — and each block's shared memory.  The simulator never
calls it: the recorder's functional pass (:mod:`repro.trace.functional`)
computes every value before timing starts, batched over all the warps at
one PC, and ``tests/test_trace_functional.py`` holds the pass to what this
executor does warp by warp.  The two share one definition of the opcode semantics,
:func:`repro.isa.semantics.bind_compute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.isa.instructions import Instruction, MemSpace, Opcode, Special
from repro.isa.semantics import bind_compute
from repro.simt.mask import bools_from_mask, mask_from_bools

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

    __slots__ = ("warp", "rf", "stack")

    def __init__(self, warp) -> None:
        kernel = warp.block.kernel
        self.warp = warp
        self.rf = WarpRegisterFile(kernel.num_regs, kernel.num_preds, warp.warp_size)
        self.stack = SIMTStack(entry_pc=0, mask=warp.initial_mask)

    def special_values(self, special: Special) -> np.ndarray:
        """What :func:`bind_compute`'s SREG closure reads."""
        return special_values(self.warp, special)


def special_values(warp, special: Special) -> np.ndarray:
    """Lane values of a special register of ``warp``, computed on demand."""
    block = warp.block
    lanes = np.arange(warp.warp_size, dtype=np.float64)
    tid = warp.warp_id_in_block * warp.warp_size + lanes
    if special is Special.TID:
        return tid
    if special is Special.GTID:
        return block.block_id * block.block_dim + tid
    if special is Special.LANEID:
        return lanes
    return np.full(warp.warp_size, float({
        Special.CTAID: block.block_id,
        Special.NTID: block.block_dim,
        Special.NCTAID: block.grid_dim,
        Special.WARPID: warp.warp_id_in_block,
    }[special]))


#: ``run(executor, warp, lanes) -> ExecResult``: one instruction's bound handler.
Handler = Callable[["FunctionalExecutor", object, WarpLanes], ExecResult]


class FunctionalExecutor:
    """Executes instructions against per-warp lane state and data memory."""

    def __init__(self, global_mem, warp_size: int) -> None:
        self._mem = global_mem
        self._warp_size = warp_size
        self._lanes: Dict[object, WarpLanes] = {}
        self._shared: Dict[object, np.ndarray] = {}
        #: Bound handlers, one per static instruction, built at its first
        #: execution.  The handler depends on the instruction's fields
        #: only, so equal instructions share one.
        self.handlers: Dict[Instruction, Handler] = {}

    def lanes(self, warp) -> WarpLanes:
        """``warp``'s lane state (created, zeroed, at first use)."""
        lanes = self._lanes.get(warp)
        if lanes is None:
            lanes = self._lanes[warp] = WarpLanes(warp)
        return lanes

    def execute(self, inst: Instruction, warp) -> ExecResult:
        """Execute ``inst`` for ``warp``'s currently active lanes."""
        run = self.handlers.get(inst)
        if run is None:
            run = self.handlers[inst] = _bind(inst)
        return run(self, warp, self.lanes(warp))

    # -- per-block shared memory -----------------------------------------
    def shared(self, block) -> np.ndarray:
        """``block``'s shared-memory words (created, zeroed, at first use)."""
        words = self._shared.get(block)
        if words is None:
            words = self._shared[block] = np.zeros(
                max(1, block.kernel.shared_mem_bytes // 8), dtype=np.float64)
        return words

    def shared_load(self, block, addrs: np.ndarray, mask_bools: np.ndarray) -> np.ndarray:
        words = self.shared(block)
        return np.where(mask_bools, words[(addrs // 8) % len(words)], 0.0)

    def shared_store(self, block, addrs: np.ndarray, values: np.ndarray,
                     mask_bools: np.ndarray) -> None:
        words = self.shared(block)
        idx = (addrs // 8) % len(words)
        # Serialize lane stores in lane order (deterministic conflict winner).
        for lane in np.nonzero(mask_bools)[0]:
            words[idx[lane]] = values[lane]

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
                values = (ex.shared_load(warp.block, addrs, where) if shared
                          else ex._mem.load(addrs, where))
                rf.write(dst, values, where)
            elif shared:
                ex.shared_store(warp.block, addrs, rf.regs[value_reg], where)
            else:
                ex._mem.store(addrs, rf.regs[value_reg], where)
        return ExecResult(mem_addrs=addrs, mem_mask=effect_mask)

    return run


def _bind_value(inst: Instruction, compute: Callable) -> Handler:
    """Handler writing ``compute(rf, lanes)`` to ``dst`` under the guard."""
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
        np.copyto((rf.preds if to_pred else rf.regs)[dst], compute(rf, lanes),
                  where=where)
        return NO_EFFECT

    return run
