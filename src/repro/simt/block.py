"""Thread-block (CTA) life-cycle and barrier bookkeeping.

All warps of a block are dispatched to an SM together and share the
block's synchronization barrier, and the block only commits when its
slowest (critical) warp exits — exactly the coupling that creates the
warp-criticality problem the paper studies.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import SimulationError


class ThreadBlock:
    """One cooperative thread array resident on an SM."""

    def __init__(
        self,
        block_id: int,
        block_dim: int,
        grid_dim: int,
        kernel,
        warp_size: int,
        trace=None,
    ) -> None:
        self.block_id = block_id
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.kernel = kernel
        self.warp_size = warp_size
        self.num_warps = (block_dim + warp_size - 1) // warp_size
        self.warps: List = []  # filled by the dispatcher
        #: The :class:`~repro.trace.format.LaunchTrace` this block's warps
        #: follow; ``None`` for a block built by hand, whose warps can be
        #: kept books on but never issue.
        self.trace = trace

        self.dispatch_cycle: float = 0.0
        self.commit_cycle: Optional[float] = None
        self._finished_warps = 0
        self._barrier_waiting = 0
        #: Issues of this block's warps (CPL's verdict-refresh cadence).
        self.cpl_issues = 0

    # -- barriers --------------------------------------------------------
    def barrier_arrive(self, warp) -> bool:
        """Register ``warp`` at the block barrier.

        Returns True when this arrival releases the barrier (all unfinished
        warps have arrived); the SM then resumes every waiting warp.
        """
        from .warp import WarpStatus

        if warp.status is not WarpStatus.RUNNING:
            raise SimulationError("warp arrived at barrier while not running")
        warp.status = WarpStatus.AT_BARRIER
        self._barrier_waiting += 1
        outstanding = self.num_warps - self._finished_warps
        return self._barrier_waiting >= outstanding

    def barrier_release(self) -> List:
        """Release all warps waiting at the barrier; returns them."""
        from .warp import WarpStatus

        released = [w for w in self.warps if w.status is WarpStatus.AT_BARRIER]
        for warp in released:
            warp.status = WarpStatus.RUNNING
        self._barrier_waiting = 0
        return released

    # -- completion ------------------------------------------------------
    def note_warp_finished(self, warp, cycle: float) -> None:
        # A finishing warp can also release a barrier the rest already
        # reached: the SM polls ``barrier_pending_release`` for that.
        self._finished_warps += 1
        if self._finished_warps == self.num_warps:
            self.commit_cycle = cycle

    @property
    def barrier_pending_release(self) -> bool:
        outstanding = self.num_warps - self._finished_warps
        return 0 < outstanding <= self._barrier_waiting

    @property
    def live_warps(self) -> int:
        """Warps of this block that have not yet exited."""
        return self.num_warps - self._finished_warps

    @property
    def done(self) -> bool:
        return self._finished_warps >= self.num_warps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThreadBlock(id={self.block_id}, warps={self.num_warps}, "
            f"finished={self._finished_warps})"
        )
