"""Per-warp register file with a ready-cycle scoreboard.

The reference executor's (:mod:`tests.reference.executor`): lane values, plus
the scoreboard walk written out as plain methods.  The scoreboard only
tracks *when* each register's value would be available in hardware, which
is what creates realistic stall behaviour (RAW hazards on long-latency
loads are the dominant source of warp stalls the paper's CPL measures).
A timed :class:`~repro.simt.warp.Warp` keeps the same three scoreboard
lists without the values, and the SM's issue path walks them inline.

Registers are warp-wide: one 64-bit float per lane.  The scoreboard is also
warp-wide (one ready cycle per architectural register), matching how GPU
scoreboards track dependencies at warp granularity.
"""

from __future__ import annotations

import numpy as np


class WarpRegisterFile:
    """Registers, predicates, and their scoreboards for one warp."""

    def __init__(self, num_regs: int, num_preds: int, warp_size: int) -> None:
        self.warp_size = warp_size
        self.regs = np.zeros((num_regs, warp_size), dtype=np.float64)
        self.preds = np.zeros((num_preds, warp_size), dtype=bool)
        # The scoreboards are plain Python lists: they are read one scalar
        # at a time, where list indexing is several times cheaper than
        # numpy scalar indexing.  Writers store a completion cycle and,
        # for a register, whether a load produced it.
        self.reg_ready = [0.0] * num_regs
        self.pred_ready = [0.0] * num_preds
        #: True for registers whose last writer was a load; lets the stall
        #: accounting attribute data stalls to the memory subsystem.
        self.reg_from_load = [False] * num_regs

    # -- value access -------------------------------------------------
    def read(self, reg: int) -> np.ndarray:
        """Lane values of ``reg`` (a view; callers must not mutate)."""
        return self.regs[reg]

    def write(self, reg: int, values: np.ndarray, mask_bools: np.ndarray) -> None:
        """Write ``values`` into ``reg`` in lanes where ``mask_bools``."""
        np.copyto(self.regs[reg], values, where=mask_bools)

    def read_pred(self, pred: int) -> np.ndarray:
        return self.preds[pred]

    def write_pred(self, pred: int, values: np.ndarray, mask_bools: np.ndarray) -> None:
        np.copyto(self.preds[pred], values, where=mask_bools)

    # -- scoreboard ---------------------------------------------------
    def operands_ready_at(self, srcs, dst, pred, pred_is_dst: bool = False) -> float:
        """Earliest cycle at which all named operands are available.

        ``srcs`` are read registers, ``dst`` is the written register (WAW
        hazards also stall issue), ``pred`` is a read predicate.  When
        ``pred_is_dst`` the instruction writes predicate ``dst`` instead of a
        general register.
        """
        ready = 0.0
        for src in srcs:
            value = self.reg_ready[src]
            if value > ready:
                ready = value
        if dst is not None:
            board = self.pred_ready if pred_is_dst else self.reg_ready
            value = board[dst]
            if value > ready:
                ready = value
        if pred is not None:
            value = self.pred_ready[pred]
            if value > ready:
                ready = value
        return float(ready)

    def operands_ready_detail(self, srcs, dst, pred, pred_is_dst: bool = False):
        """Like :meth:`operands_ready_at` but also reports memory provenance.

        Returns ``(ready_cycle, limited_by_load)`` where the flag is True
        when a register produced by a load is (one of) the latest operands.
        """
        ready = 0.0
        by_load = False
        reg_ready = self.reg_ready
        from_load = self.reg_from_load
        for src in srcs:
            value = reg_ready[src]
            if value > ready:
                ready = value
                by_load = from_load[src]
            elif value == ready and from_load[src]:
                by_load = True
        if dst is not None:
            value = self.pred_ready[dst] if pred_is_dst else reg_ready[dst]
            if value > ready:
                ready = value
                by_load = not pred_is_dst and from_load[dst]
        if pred is not None:
            value = self.pred_ready[pred]
            if value > ready:
                ready = value
                by_load = False
        return ready, by_load
