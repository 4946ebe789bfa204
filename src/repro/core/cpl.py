"""Criticality Prediction Logic — CPL (paper Section 3.1).

One criticality counter per warp (Eq. 1):

    nCriticality = nInst * CPI_avg + nStall

* ``nInst`` accumulates the *inferred remaining path length* at every
  conditional branch (Algorithm 2): when a warp's branch outcome commits it
  to a path, the size of that path (from the branch's PC, target PC, and
  reconvergence PC) is added; divergent warps, which must execute both
  paths, accumulate both.  Every committed instruction decrements the term,
  balancing announced work against completed work, so warps that still owe
  more instructions rank higher.
* ``nStall`` accumulates the data stall cycles observed between two
  consecutive issues of the warp (Algorithm 3) — memory latency and
  scoreboard hazards, not scheduler-induced wait.
* ``CPI_avg`` is the warp's measured average cycles-per-instruction, scaling
  the instruction term into cycle units.

Hardware updates the counter on every issue; here a warp keeps only its
inputs and :attr:`repro.simt.warp.Warp.criticality` derives it when read.

The scheduler (gCAWS) orders warps by the counter; CACP uses the derived
binary verdict :meth:`CriticalityPredictor.is_critical` (counter above the
block median — the paper's "slower than 50% of warps" definition), which
the SM refreshes every ``update_period`` issues of a block.
"""

from __future__ import annotations

from typing import Dict

from ..isa.instructions import Instruction
from ..obs.events import Ev
from ..simt.warp import Warp

_EV_CPL_DELTA = int(Ev.CPL_DELTA)


class CriticalityPredictor:
    """Tracks per-warp criticality counters for one SM."""

    def __init__(self, update_period: int = 64) -> None:
        #: How often (in issues per block, ``ThreadBlock.cpl_issues``) the
        #: block-median threshold used by :meth:`is_critical` is refreshed.
        self.update_period = update_period
        self._block_threshold: Dict[int, float] = {}
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
        warp._cpl_due = warp.cpl_inst_disparity + delta + warp._cpl_idx
        warp._criticality = None
        if self.obs is not None:
            self.obs.emit((_EV_CPL_DELTA, now, self.obs_owner,
                           warp.block.block_id, warp.warp_id_in_block,
                           delta, warp.criticality))

    # ------------------------------------------------------------------
    # Criticality verdicts
    # ------------------------------------------------------------------
    def refresh_block(self, block) -> None:
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
            self.refresh_block(warp.block)
        return warp.is_critical_flag

    def forget_block(self, block_id: int) -> None:
        """Drop cached state for a committed block."""
        self._block_threshold.pop(block_id, None)
