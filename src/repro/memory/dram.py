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
        self.busy_cycles = 0.0
        #: Cumulative cycles requests spent waiting for the channel (the
        #: ``start - now`` queueing component of every access).
        self.queue_cycles = 0.0
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
        self.busy_cycles += self.service_interval
        self.queue_cycles += start - now
        if self.obs is not None:
            self.obs.emit((_EV_DRAM_ENQ, now, sm_id, start - now))
            self.obs.emit((_EV_DRAM_SERVICE, start, sm_id,
                           start + self.latency))
        return start + self.latency

    def queue_delay(self, now: float) -> float:
        """Instantaneous backlog: how long a request arriving *now* waits.

        Clamped at zero so a clock that just jumped past ``_next_free``
        (skip-clock boundaries) never reports a negative — or stale
        positive — delay computed from an out-of-date ``now``.
        """
        return max(0.0, self._next_free - now)

    def queue_delay_estimate(self, now: float | None = None) -> float:
        """Mean queueing delay per access (diagnostics).

        Historically this was ``busy_cycles / accesses`` — the mean
        *service occupancy*, which silently mixed service time into the
        "queue delay" it claimed to report and, worse, was read at skip
        boundaries where the caller's ``now`` had already jumped past the
        backlog it implied.  It now reports the true mean queueing wait
        (``queue_cycles / accesses``); pass ``now`` to fold in the current
        live backlog via :meth:`queue_delay` so estimates taken mid-run
        are consistent with the clock position.
        """
        if not self.accesses:
            return 0.0 if now is None else self.queue_delay(now)
        mean = self.queue_cycles / self.accesses
        if now is None:
            return mean
        # A probe right after a burst must not under-report: the live
        # backlog is a floor on what the next request will actually wait.
        return max(mean, self.queue_delay(now))
