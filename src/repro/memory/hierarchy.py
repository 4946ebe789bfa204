"""Composition of the full memory hierarchy's timing path.

One :class:`MemoryHierarchy` serves every SM: it owns the shared L2 and the
DRAM model, while each SM brings its own L1 data cache + MSHR file.  The
timing walk happens at access time — hit/miss outcomes and queueing delays
compose into a single completion cycle the LSU writes into the warp's
scoreboard.  The LSU probes its L1 itself and calls :meth:`miss` on a miss.
"""

from __future__ import annotations

from ..config import GPUConfig
from .cache import Cache
from .l2 import BankedL2
from .dram import DRAMModel
from .mshr import MSHRFile
from .request import MemRequest


class MemoryHierarchy:
    """Shared L2 + DRAM; L1s are owned by SMs and passed per access."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.l2 = BankedL2(
            config.l2,
            num_banks=config.l2_banks,
            latency=config.l2_latency,
            service_interval=config.l2_service_interval,
        )
        self.dram = DRAMModel(config.dram_latency, config.dram_service_interval)
        #: Every SM's L1D has the config's geometry and latency.
        self._l1_latency = config.l1d.hit_latency

    def miss(self, l1: Cache, mshr: MSHRFile, req: MemRequest,
             now: float) -> float:
        """Serve ``req`` after its ``l1`` probe missed; returns the cycle
        the line's data is available.  A miss to a line already in flight
        merges with its fill (``mshr.merged_misses`` counts those)."""
        l1_latency = self._l1_latency
        merged, at = mshr.merge_or_start(req.line_addr, now)
        if merged:
            floor = now + l1_latency
            return at if at > floor else floor

        start = at + l1_latency
        l2_hit, queued_start, l2_ready = self.l2.access(req, start)
        completion = (l2_ready if l2_hit
                      else self.dram.access(queued_start, req.warp_key[0]))
        mshr.register(req.line_addr, completion, now)
        return completion
