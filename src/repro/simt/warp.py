"""Warp runtime state: what the timing model keeps per resident warp.

A timed :class:`Warp` follows a recorded stream
(:class:`repro.trace.format.WarpStream`): it holds the stream's columns and
a cursor, the three scoreboard lists, its barrier status, and the per-warp
statistics (issue counts, stall cycles, criticality counter inputs) that
feed the CAWA components.  It holds no lane values — registers, predicates
and the reconvergence stack belong to whoever computes values (the recorder's
functional pass, or the per-warp reference executor in
:mod:`repro.simt.executor`) — and allocates no NumPy array.  The stream is
optional: scheduler / CPL / LSU / statistics bookkeeping can be exercised
on a warp that will never issue.
"""

from __future__ import annotations

import enum
import math
from array import array
from typing import Optional

import numpy as np

from ..errors import TraceFormatError
from ..isa.instructions import Special
from .mask import full_mask

#: ``n_lines`` of a memory record without line addresses (shared space, or
#: every lane predicated off): -1 as the unsigned 64-bit value a stream's
#: aux column stores.  Part of the trace format
#: (:mod:`repro.trace.format` re-exports it) but defined down here, where
#: the SM's issue path can import it.
NO_LINES = (1 << 64) - 1
_NO_AUX: "array[int]" = array("Q")


class WarpStatus(enum.Enum):
    RUNNING = "running"
    AT_BARRIER = "at_barrier"
    FINISHED = "finished"


class Warp:
    """One hardware warp resident on an SM."""

    # Exactly the attributes ``__init__`` sets.  Past ~30 instance
    # attributes CPython stops keeping them inline, and the issue path's
    # loads and stores take the slower dict-hint forms.
    __slots__ = (
        "warp_id_in_block", "block", "warp_size", "dynamic_id",
        "initial_mask", "status",
        "reg_ready", "reg_from_load", "pred_ready",
        "_insts", "_decoded", "_stream", "_pcs", "_aux", "_aux_pos",
        "_needs_mem",
        "start_cycle", "finish_cycle", "issued_instructions",
        "thread_instructions", "divergent_branches", "last_issue_cycle",
        "data_stall_cycles", "mem_stall_cycles", "obs_barrier_release",
        "ready_at", "_opready", "_by_load", "_queued",
        "_cpl_idx", "_cpl_prev_issue", "_cpl_due", "_criticality",
        "is_critical_flag",
    )

    def __init__(
        self,
        warp_id_in_block: int,
        block,
        warp_size: int,
        num_regs: int,
        num_preds: int,
        dynamic_id: int,
        stream=None,
    ) -> None:
        self.warp_id_in_block = warp_id_in_block
        self.block = block
        self.warp_size = warp_size
        #: Monotonic dispatch-order id; GTO's "oldest" tie-break key.
        self.dynamic_id = dynamic_id

        first_thread = warp_id_in_block * warp_size
        active_threads = max(0, min(warp_size, block.block_dim - first_thread))
        self.initial_mask = full_mask(active_threads)
        self.status = WarpStatus.RUNNING

        # -- scoreboard --------------------------------------------------
        # Plain lists, written by the SM's issue path in the arm that holds
        # the instruction's kind: the cycle each register / predicate is
        # available, and whether a register's last writer was a load (lets
        # the stall accounting attribute data stalls to memory).
        self.reg_ready = [0.0] * num_regs
        self.reg_from_load = [False] * num_regs
        self.pred_ready = [0.0] * num_preds

        # -- the recorded stream and the cursor into it -------------------
        # ``issued_instructions`` is the cursor: record ``i`` is the
        # ``i``-th instruction the warp issues.  The PC column is
        # materialised as a list while the warp is resident and dropped
        # when it retires; masks and the aux payload (consumed once, in
        # order, from ``_aux_pos``) are read in place.
        kernel = block.kernel
        #: The kernel's static instructions and their decode records, by PC.
        self._insts = kernel.instructions
        self._decoded = kernel.decoded
        self._stream = stream
        self._pcs = ()
        self._aux = _NO_AUX
        self._aux_pos = 0
        #: True when the next instruction needs an MSHR (global LD/ST).
        self._needs_mem: bool = False
        if stream is not None:
            if not len(stream):
                raise TraceFormatError("warp trace has no records")
            self._pcs = stream.pcs.tolist()
            self._aux = stream.aux
            self._needs_mem = self._decoded[self._pcs[0]].needs_global_mem

        # -- timing / statistics ---------------------------------------
        self.start_cycle: float = 0.0
        self.finish_cycle: Optional[float] = None
        self.issued_instructions: int = 0
        #: Summed active lanes over the stream; known when the warp retires.
        self.thread_instructions: int = 0
        self.divergent_branches: int = 0
        #: ``start_cycle - 1`` until the first issue: gaps start one past it.
        self.last_issue_cycle: float = -1.0
        #: Gap cycles spent waiting on operands (the rest is scheduler
        #: stall), and the part of them a load caused.
        self.data_stall_cycles: float = 0.0
        self.mem_stall_cycles: float = 0.0
        #: Cycle this warp was last released from a block barrier, or -1.0.
        #: Written only when the event bus is live (see
        #: :meth:`repro.sm.sm.StreamingMultiprocessor._release_barrier`);
        #: consumed-and-reset by the issue-time stall decomposition so the
        #: barrier wait is attributed to the BARRIER bucket, not the
        #: operand-dependence ones.
        self.obs_barrier_release: float = -1.0

        # -- readiness of the next instruction --------------------------
        # Written at the end of the warp's own issue — where the scoreboard
        # was written and the cursor moved — and frozen in between: nothing
        # else moves either (a fresh warp's scoreboard is all zero, so its
        # first instruction is ready at dispatch).
        #: Earliest cycle the next instruction can issue: operands ready
        #: and one cycle past the previous issue.
        self.ready_at: float = 0.0
        #: Cycle the next instruction's operands are all available.
        self._opready: float = 0.0
        #: True when a load-produced register is (one of) the latest operands.
        self._by_load: bool = False
        #: True while this warp has an entry in its SM slot's wake heap
        #: (event-driven core).  Guards the one-entry-per-warp invariant.
        self._queued: bool = False

        # -- CPL inputs (Section 3.1, Eq. 1; the counter is derived) -----
        #: Index of the latest issue CPL accounted (-1: none) and the
        #: ``last_issue_cycle`` before it — the CPI inputs — written by the
        #: SM's issue path when a CPL predictor is present.
        self._cpl_idx: int = -1
        self._cpl_prev_issue: float = 0.0
        #: The nInst anchor ``D + at`` written by ``on_branch``: nInst ``D``
        #: right after the latest conditional branch, at issue index ``at``.
        self._cpl_due: float = -1.0
        #: Eq. 1 as of the latest issue, or ``None`` until read.
        self._criticality: Optional[float] = None
        #: Latched slow-warp verdict, refreshed periodically by CPL.
        self.is_critical_flag: bool = False

    # ------------------------------------------------------------------
    @property
    def pc(self) -> int:
        """PC of the next record (a warp without a stream has none)."""
        return self._pcs[self.issued_instructions]

    @property
    def finished(self) -> bool:
        return self.status is WarpStatus.FINISHED

    @property
    def cpl_inst_disparity(self) -> float:
        """nInst: the latest branch's disparity less one per later issue,
        clamped at zero (as per-issue decrements clamped at zero are)."""
        left = self._cpl_due - self._cpl_idx
        return left if left > 0.0 else 0.0

    @property
    def total_stall_cycles(self) -> float:
        """Summed gaps between issues (from dispatch, for the first): no gap
        is negative, so the sum telescopes."""
        return self.last_issue_cycle - self.start_cycle - (self.issued_instructions - 1)

    @property
    def sched_stall_cycles(self) -> float:
        """Gap cycles with every operand ready: exact, as cycles are whole."""
        return self.total_stall_cycles - self.data_stall_cycles

    @property
    def cpl_stall(self) -> float:
        """nStall: data stall cycles, once CPL has accounted an issue."""
        return self.data_stall_cycles if self._cpl_idx >= 0 else 0.0

    @property
    def criticality(self) -> float:
        """``nInst * CPI_avg + nStall`` as of the latest issue, on read."""
        value = self._criticality
        if value is None:
            idx = self._cpl_idx
            cpi = 1.0
            if idx > 0:
                elapsed = self._cpl_prev_issue - self.start_cycle
                if elapsed > idx:
                    cpi = elapsed / idx
            value = self._criticality = self.cpl_inst_disparity * cpi + self.cpl_stall
        return value

    def special_values(self, special: Special) -> np.ndarray:
        """Lane values of a special register, computed on demand: the
        timing model never asks, the reference executor does."""
        block = self.block
        lanes = np.arange(self.warp_size, dtype=np.float64)
        tid = self.warp_id_in_block * self.warp_size + lanes
        if special is Special.TID:
            return tid
        if special is Special.GTID:
            return block.block_id * block.block_dim + tid
        if special is Special.LANEID:
            return lanes
        return np.full(self.warp_size, float({
            Special.CTAID: block.block_id,
            Special.NTID: block.block_dim,
            Special.NCTAID: block.grid_dim,
            Special.WARPID: self.warp_id_in_block,
        }[special]))

    def issuable_at(self) -> float:
        """Earliest cycle this warp could issue, or ``inf`` if blocked.

        Accounts for operand readiness and the one-instruction-per-cycle
        issue limit (but not MSHR back-pressure; the SM layers that on).
        """
        return self.ready_at if self.status is WarpStatus.RUNNING else math.inf

    def mark_finished(self, cycle: float) -> None:
        self.status = WarpStatus.FINISHED
        self.finish_cycle = cycle
        stream = self._stream
        if stream is not None:
            self.thread_instructions = stream.threads()
            # Results keep their warps, which must not keep the PC list
            # (or pin the program's columns) alive.
            self._stream = None
            self._pcs = ()
            self._aux = _NO_AUX
        self.block.note_warp_finished(self, cycle)

    @property
    def execution_time(self) -> float:
        """Cycles from block dispatch to this warp's EXIT."""
        end = self.finish_cycle if self.finish_cycle is not None else self.last_issue_cycle
        return max(0.0, end - self.start_cycle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Warp(block={self.block.block_id}, w={self.warp_id_in_block}, "
            f"issued={self.issued_instructions}, "
            f"status={self.status.value}, crit={self.criticality:.1f})"
        )
