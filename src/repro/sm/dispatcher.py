"""Grid-to-SM thread-block dispatcher.

Blocks are dispatched in id order to the least-loaded SM that can accept
them (occupancy limits in :meth:`StreamingMultiprocessor.can_accept`); as a
block commits, the freed resources let the next pending block in.  This is
the GPGPU-sim behaviour the paper's thread-block life-cycle discussion
assumes: a block's resources are held until its slowest warp exits.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from ..simt.block import ThreadBlock


class BlockDispatcher:
    """Feeds a kernel launch's blocks onto SMs."""

    def __init__(self, kernel, grid_dim: int, block_dim: int, warp_size: int,
                 trace=None) -> None:
        self.kernel = kernel
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        #: ``trace`` is the launch's recording
        #: (:class:`~repro.trace.format.LaunchTrace`): each block's warps
        #: take their streams from it when the block becomes resident.
        self._pending: Deque[ThreadBlock] = deque(
            ThreadBlock(block_id, block_dim, grid_dim, kernel, warp_size, trace)
            for block_id in range(grid_dim)
        )
        self.dispatched = 0

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def exhausted(self) -> bool:
        return not self._pending

    def try_dispatch(self, sms: List, now: float) -> int:
        """Dispatch as many pending blocks as occupancy allows; returns count."""
        count = 0
        progress = True
        while self._pending and progress:
            progress = False
            # Least-loaded-first keeps SMs balanced like GPGPU-sim's
            # round-robin CTA issuance.
            for sm in sorted(sms, key=lambda s: len(s.blocks)):
                if not self._pending:
                    break
                block = self._pending[0]
                if sm.can_accept(self.kernel, self.block_dim):
                    sm.add_block(self._pending.popleft(), now)
                    self.dispatched += 1
                    count += 1
                    progress = True
        return count
