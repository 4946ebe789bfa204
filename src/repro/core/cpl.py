"""Criticality Prediction Logic — CPL (paper Section 3.1).

Maintains one criticality counter per warp (Eq. 1):

    nCriticality = nInst * CPI_avg + nStall

* ``nInst`` accumulates the *inferred remaining path length* at every
  conditional branch (Algorithm 2): when a warp's branch outcome commits it
  to a path, the size of that path (from the branch's PC, target PC, and
  reconvergence PC) is added; divergent warps, which must execute both
  paths, accumulate both.  Every committed instruction decrements the term,
  balancing announced work against completed work, so warps that still owe
  more instructions rank higher.
* ``nStall`` accumulates the stall cycles observed between two consecutive
  issues of the warp (Algorithm 3) — memory latency, scoreboard hazards, and
  scheduler-induced wait all land here.
* ``CPI_avg`` is the warp's measured average cycles-per-instruction, scaling
  the instruction term into cycle units.

The scheduler (gCAWS) orders warps by the counter; CACP uses the derived
binary verdict :meth:`CriticalityPredictor.is_critical` (counter above the
block median — the paper's "slower than 50% of warps" definition).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..isa.instructions import Instruction
from ..obs.events import Ev
from ..simt.warp import Warp

_EV_CPL_DELTA = int(Ev.CPL_DELTA)


class CriticalityPredictor:
    """Tracks per-warp criticality counters for one SM."""

    def __init__(self, update_period: int = 64) -> None:
        #: How often (in issues per block) the block-median threshold used by
        #: :meth:`is_critical` is refreshed.
        self.update_period = update_period
        self._block_threshold: Dict[int, float] = {}
        self._block_issue_count: Dict[int, int] = {}
        #: Event bus (``repro.obs``) or ``None``; set by ``wire_gpu``.
        self.obs = None
        #: SM id stamped on emitted :data:`~repro.obs.events.Ev.CPL_DELTA`
        #: records (the predictor itself is per-SM but does not know it).
        self.obs_owner = -1

    # ------------------------------------------------------------------
    # Counter updates
    # ------------------------------------------------------------------
    def on_branch(
        self,
        warp: Warp,
        inst: Instruction,
        diverged: bool,
        all_taken: bool,
        now: float = 0.0,
    ) -> None:
        """Account the inferred path length of a resolved conditional branch.

        ``all_taken`` is only meaningful for uniform branches.  Path sizes
        are derived from static PCs exactly as Algorithm 2 infers them:
        fall-through path = [pc+1, target), taken path = [target, reconv),
        divergent = both.  ``now`` stamps the emitted CPL_DELTA event and
        has no effect on the counter itself.
        """
        if inst.pred is None or inst.reconv_pc < 0:
            return  # unconditional back edge: no disparity information
        fallthrough_len = max(0, inst.target_pc - inst.pc - 1)
        taken_len = max(0, inst.reconv_pc - inst.target_pc)
        if diverged:
            delta = fallthrough_len + taken_len
        elif all_taken:
            delta = taken_len
        else:
            delta = fallthrough_len
        warp.cpl_inst_disparity += delta
        self._refresh(warp)
        if self.obs is not None:
            self.obs.emit((_EV_CPL_DELTA, now, self.obs_owner,
                           warp.block.block_id, warp.warp_id_in_block,
                           delta, warp.criticality))

    def on_issue(self, warp: Warp, stall_cycles: float) -> None:
        """Per-issue update: commit-decrement plus observed stall latency."""
        disparity = warp.cpl_inst_disparity
        if disparity > 0:
            disparity -= 1
            warp.cpl_inst_disparity = disparity
        if stall_cycles > 0.0:
            warp.cpl_stall += stall_cycles
        # Eq. 1, as _refresh/_cpi compute it (inlined: once per instruction).
        issued = warp.issued_instructions
        cpi = 1.0
        if issued > 0:
            elapsed = warp.last_issue_cycle - warp.start_cycle
            if elapsed > issued:
                cpi = elapsed / issued
        warp.criticality = disparity * cpi + warp.cpl_stall
        block = warp.block
        block_id = block.block_id
        counts = self._block_issue_count
        count = counts.get(block_id, 0) + 1
        counts[block_id] = count
        if count % self.update_period == 0:
            self._refresh_block_threshold(block)

    def _refresh(self, warp: Warp) -> None:
        cpi = self._cpi(warp)
        warp.criticality = warp.cpl_inst_disparity * cpi + warp.cpl_stall

    @staticmethod
    def _cpi(warp: Warp) -> float:
        issued = warp.issued_instructions
        if issued <= 0:
            return 1.0
        elapsed = warp.last_issue_cycle - warp.start_cycle
        if elapsed < 1.0:
            elapsed = 1.0
        cpi = elapsed / issued
        return cpi if cpi > 1.0 else 1.0

    # ------------------------------------------------------------------
    # Criticality verdicts
    # ------------------------------------------------------------------
    def _refresh_block_threshold(self, block) -> None:
        """Recompute and latch per-warp slow-warp flags for ``block``.

        Flags are sticky between refreshes: CACP needs a verdict that is
        stable over a data-reuse window, not one that flaps with every
        counter update around the block median.
        """
        live = [w for w in block.warps if not w.finished]
        if not live:
            self._block_threshold[block.block_id] = 0.0
            return
        ordered = sorted(w.criticality for w in live)
        threshold = ordered[len(ordered) // 2]
        self._block_threshold[block.block_id] = threshold
        for warp in live:
            warp.is_critical_flag = warp.criticality >= threshold

    def is_critical(self, warp: Warp) -> bool:
        """Latched verdict: does the warp rank in the slower half of its block?"""
        if warp.block.block_id not in self._block_threshold:
            self._refresh_block_threshold(warp.block)
        return warp.is_critical_flag

    def rank_in_block(self, warp: Warp) -> int:
        """Criticality rank within the block (0 = least critical).

        Used by the Figure 12 priority-over-time analysis.
        """
        peers = [w.criticality for w in warp.block.warps if not w.finished]
        return sum(1 for c in peers if c < warp.criticality)

    def forget_block(self, block_id: int) -> None:
        """Drop cached state for a committed block."""
        self._block_threshold.pop(block_id, None)
        self._block_issue_count.pop(block_id, None)
