"""DRAM timing model: minimum access latency plus bandwidth queueing."""

from __future__ import annotations

from ..obs.events import Ev

_EV_DRAM_ENQ = int(Ev.DRAM_ENQ)
_EV_DRAM_SERVICE = int(Ev.DRAM_SERVICE)


class DRAMModel:
    """Single-channel DRAM with a fixed minimum latency.

    Each request occupies the channel for ``service_interval`` cycles, so
    bursts of misses queue up behind each other — the bandwidth contention
    that memory-intensive workloads like kmeans expose.
    """

    def __init__(self, latency: int, service_interval: int) -> None:
        self.latency = latency
        self.service_interval = service_interval
        self._next_free = 0.0
        self.accesses = 0
        #: Event bus (``repro.obs``) or ``None``; set by ``wire_gpu``.
        self.obs = None

    def access(self, now: float, sm_id: int = -1) -> float:
        """Completion time of a request arriving at ``now``.

        ``sm_id`` only stamps emitted DRAM events (the channel itself is
        device-level); timing is independent of it.
        """
        start = max(now, self._next_free)
        self._next_free = start + self.service_interval
        self.accesses += 1
        if self.obs is not None:
            self.obs.emit((_EV_DRAM_ENQ, now, sm_id, start - now))
            self.obs.emit((_EV_DRAM_SERVICE, start, sm_id,
                           start + self.latency))
        return start + self.latency
