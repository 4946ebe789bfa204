"""Warp runtime state.

A :class:`Warp` bundles everything the SM pipeline needs to schedule and
execute one warp: its SIMT stack, register file/scoreboard, barrier status,
and the per-warp statistics (issue counts, stall cycles, criticality
counter) that feed the CAWA components.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional

import numpy as np

from ..isa.instructions import Special
from .mask import full_mask
from .registers import WarpRegisterFile
from .stack import SIMTStack


class WarpStatus(enum.Enum):
    RUNNING = "running"
    AT_BARRIER = "at_barrier"
    FINISHED = "finished"


class Warp:
    """One hardware warp resident on an SM."""

    def __init__(
        self,
        warp_id_in_block: int,
        block,
        warp_size: int,
        num_regs: int,
        num_preds: int,
        dynamic_id: int,
    ) -> None:
        self.warp_id_in_block = warp_id_in_block
        self.block = block
        #: The kernel's static instruction list (indexed by PC).
        self._insts = block.kernel.instructions
        self.warp_size = warp_size
        #: Monotonic dispatch-order id; GTO's "oldest" tie-break key.
        self.dynamic_id = dynamic_id

        first_thread = warp_id_in_block * warp_size
        active_threads = max(0, min(warp_size, block.block_dim - first_thread))
        self.initial_mask = full_mask(active_threads)

        self.rf = WarpRegisterFile(num_regs, num_preds, warp_size)
        self.stack = SIMTStack(entry_pc=0, mask=self.initial_mask)
        self.status = WarpStatus.RUNNING

        lanes = np.arange(warp_size, dtype=np.float64)
        tid = first_thread + lanes
        self._specials: Dict[Special, np.ndarray] = {
            Special.TID: tid,
            Special.CTAID: np.full(warp_size, float(block.block_id)),
            Special.NTID: np.full(warp_size, float(block.block_dim)),
            Special.NCTAID: np.full(warp_size, float(block.grid_dim)),
            Special.GTID: block.block_id * block.block_dim + tid,
            Special.LANEID: lanes,
            Special.WARPID: np.full(warp_size, float(warp_id_in_block)),
        }

        # -- timing / statistics ---------------------------------------
        self.start_cycle: float = 0.0
        self.finish_cycle: Optional[float] = None
        self.issued_instructions: int = 0
        self.thread_instructions: int = 0
        self.divergent_branches: int = 0
        self.last_issue_cycle: float = 0.0
        self.total_stall_cycles: float = 0.0
        self.mem_stall_cycles: float = 0.0
        self.sched_stall_cycles: float = 0.0
        self.pending_loads: int = 0
        #: Cycle this warp was last released from a block barrier, or -1.0.
        #: Written only when the event bus is live (see
        #: :meth:`repro.sm.sm.StreamingMultiprocessor._release_barrier`);
        #: consumed-and-reset by the issue-time stall decomposition so the
        #: barrier wait is attributed to the BARRIER bucket, not the
        #: operand-dependence ones.
        self.obs_barrier_release: float = -1.0

        # -- readiness of the next instruction --------------------------
        # Written by :meth:`refresh_readiness` wherever this warp's PC or
        # scoreboard has just moved (its own issue, barrier release,
        # dispatch) and frozen in between: nobody else writes either.
        #: Earliest cycle the next instruction can issue: operands ready
        #: and one cycle past the previous issue.
        self.ready_at: float = 0.0
        #: Cycle the next instruction's operands are all available.
        self._opready: float = 0.0
        #: True when a load-produced register is (one of) the latest operands.
        self._by_load: bool = False
        #: True when the next instruction needs an MSHR (global LD/ST).
        self._needs_mem: bool = False
        #: True while this warp has an entry in its SM slot's wake heap
        #: (event-driven core).  Guards the one-entry-per-warp invariant.
        self._queued: bool = False

        # -- CPL state (Section 3.1) -----------------------------------
        #: Relative dynamic-instruction disparity term (nInst in Eq. 1).
        self.cpl_inst_disparity: float = 0.0
        #: Accumulated stall cycles term (nStall in Eq. 1).
        self.cpl_stall: float = 0.0
        #: Cached criticality counter value (Eq. 1), kept current by CPL.
        self.criticality: float = 0.0
        #: Latched slow-warp verdict, refreshed periodically by CPL.
        self.is_critical_flag: bool = False

    # ------------------------------------------------------------------
    @property
    def pc(self) -> int:
        return self.stack.pc

    @property
    def active_mask(self) -> int:
        return self.stack.active_mask

    @property
    def finished(self) -> bool:
        return self.status is WarpStatus.FINISHED

    @property
    def at_barrier(self) -> bool:
        return self.status is WarpStatus.AT_BARRIER

    def special_values(self, special: Special) -> np.ndarray:
        return self._specials[special]

    def refresh_readiness(self) -> None:
        """Recompute the next instruction's readiness: the one scoreboard
        walk per issue.

        The SM calls this at the end of the warp's own issue — where the
        scoreboard was written and the stack advanced — and when a barrier
        release or a dispatch makes the warp schedulable; the wake heap,
        the ready pool and the next issue's stall accounting all read the
        stored result.
        """
        d = self._insts[self.stack.pc].decoded
        ready, self._by_load = self.rf.operands_ready_detail(
            d.srcs, d.dst, d.pred, d.pred_is_dst
        )
        self._opready = ready
        floor = (self.last_issue_cycle + 1 if self.issued_instructions
                 else self.start_cycle)
        self.ready_at = ready if ready > floor else floor
        self._needs_mem = d.needs_global_mem

    def issuable_at(self) -> float:
        """Earliest cycle this warp could issue, or ``inf`` if blocked.

        Accounts for operand readiness and the one-instruction-per-cycle
        issue limit (but not MSHR back-pressure; the SM layers that on).
        """
        return self.ready_at if self.status is WarpStatus.RUNNING else math.inf

    def mark_finished(self, cycle: float) -> None:
        self.status = WarpStatus.FINISHED
        self.finish_cycle = cycle
        self.block.note_warp_finished(self, cycle)

    @property
    def execution_time(self) -> float:
        """Cycles from block dispatch to this warp's EXIT."""
        end = self.finish_cycle if self.finish_cycle is not None else self.last_issue_cycle
        return max(0.0, end - self.start_cycle)

    def active_lane_count(self) -> int:
        return self.stack.active_mask.bit_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Warp(block={self.block.block_id}, w={self.warp_id_in_block}, "
            f"pc={self.pc if not self.finished else 'done'}, "
            f"status={self.status.value}, crit={self.criticality:.1f})"
        )
