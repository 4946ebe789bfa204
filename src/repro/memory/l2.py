"""Banked unified L2 cache timing wrapper."""

from __future__ import annotations

from typing import List

from ..config import CacheConfig
from ..obs.events import LEVEL_L2, Ev
from .cache import Cache
from .replacement import LRUPolicy
from .request import MemRequest

_EV_L2_BANK = int(Ev.L2_BANK)


class BankedL2:
    """Unified L2 shared by all SMs, interleaved across banks by line address.

    Tags/replacement live in one :class:`Cache` (capacity behaviour); each
    bank contributes an independent service queue (bandwidth behaviour).
    """

    def __init__(
        self,
        config: CacheConfig,
        num_banks: int,
        latency: int,
        service_interval: int,
    ) -> None:
        self.cache = Cache(config, LRUPolicy(), level=LEVEL_L2)
        self._line_size = config.line_size
        self.num_banks = num_banks
        self.latency = latency
        self.service_interval = service_interval
        self._bank_next_free: List[float] = [0.0] * num_banks
        #: Event bus (``repro.obs``) or ``None``; set by ``wire_gpu``.
        self.obs = None

    def bank_of(self, line_addr: int) -> int:
        return (line_addr // self._line_size) % self.num_banks

    def access(self, req: MemRequest, now: float):
        """Probe the L2; returns ``(hit, queued_start, data_ready_time)``.

        ``queued_start`` is when the bank actually begins service (after
        queueing); ``data_ready_time`` adds the L2 latency.  On a miss the
        caller starts the DRAM trip from ``queued_start`` so the paper's
        minimum latencies (120 to L2, 220 to DRAM) hold end to end.
        """
        bank = (req.line_addr // self._line_size) % self.num_banks
        bank_next_free = self._bank_next_free
        busy_until = bank_next_free[bank]
        start = now if now >= busy_until else busy_until
        bank_next_free[bank] = start + self.service_interval
        hit = self.cache.access(req)
        if self.obs is not None:
            self.obs.emit((_EV_L2_BANK, now, req.warp_key[0], bank,
                           1 if hit else 0, start - now))
        return hit, start, start + self.latency

    @property
    def stats(self):
        return self.cache.stats
