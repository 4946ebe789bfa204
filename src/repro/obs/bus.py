"""The probe/event-bus layer: near-zero-cost when disabled.

Every instrumented component (SM, LSU, L1D/L2 tag arrays, MSHR file, DRAM
channel, CPL predictor, CACP policy) carries an ``obs`` attribute that is
``None`` by default.  The *entire* disabled-path cost of the subsystem is
one pointer test per probe site::

    if self.obs is not None:
        self.obs.emit((Ev.CACHE_HIT, cycle, sm, ...))

— no closures, no no-op observers, no per-event allocation.  When
``GPUConfig.events != "off"`` the GPU builds an :class:`EventBus` from the
spec and :func:`wire_gpu` points every component's ``obs`` at it.

The bus owns one primary :class:`~repro.obs.collect.RingCollector` (the
retained recording) and fans every event out to any *attached* collectors
— objects with an ``append(event)`` method, e.g.
:class:`~repro.obs.stalls.StallAccounting` or the event-bus-fed
:class:`~repro.stats.timeline.TimelineProfiler`.  Attaching collectors
never perturbs timing: probes only ever append to Python lists
(``tests/test_obs_parity.py`` pins bit-identical cycles with collectors
on/off, replayed and recorded in place).

Buffer specs (``GPUConfig.events``):

===============  ======================================================
``"off"``        no bus; every ``obs`` stays ``None`` (the default)
``"on"``         ring buffer with the default capacity (1 Mi events)
``"ring[:N]"``   drop-oldest ring of N events
``"spill[:N]"``  unbounded recording; chunks of min(N, 64Ki) events are
                 zlib-spilled under ``.repro_cache/events/spill/``
===============  ======================================================
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigError
from .collect import DEFAULT_CAPACITY, RingCollector

#: Spec keywords accepted by :func:`parse_spec` (besides ``off``).
SPEC_KINDS = ("on", "ring", "spill")


def parse_spec(spec: str):
    """Parse an events spec; returns ``(kind, capacity)`` or raises.

    ``kind`` is ``"off"``, ``"ring"`` or ``"spill"``; ``capacity`` is the
    buffer/chunk size in events.  Shared by :class:`repro.config.GPUConfig`
    validation and :func:`bus_from_spec`, so the two can never drift.
    """
    spec = (spec or "off").strip()
    if spec == "off":
        return "off", 0
    head, _, tail = spec.partition(":")
    if head not in SPEC_KINDS:
        raise ConfigError(
            f"events spec must be 'off', 'on', 'ring[:N]' or 'spill[:N]', "
            f"got {spec!r}"
        )
    if head == "on":
        if tail:
            raise ConfigError(f"events spec 'on' takes no capacity, got {spec!r}")
        return "ring", DEFAULT_CAPACITY
    if not tail:
        return head, DEFAULT_CAPACITY
    try:
        capacity = int(tail)
    except ValueError:
        raise ConfigError(
            f"events spec capacity must be an integer, got {spec!r}"
        ) from None
    if capacity <= 0:
        raise ConfigError(f"events spec capacity must be positive, got {spec!r}")
    return head, capacity


class EventBus:
    """Fan-out point for event records; owns the primary ring collector."""

    __slots__ = ("ring", "spec", "_sinks")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 spill_dir=None, spec: str = "on") -> None:
        self.ring = RingCollector(capacity, spill_dir=spill_dir)
        self.spec = spec
        self._sinks: List = [self.ring]

    # -- hot path -------------------------------------------------------
    def emit(self, ev: tuple) -> None:
        for sink in self._sinks:
            sink.append(ev)

    # -- collector management -------------------------------------------
    def attach(self, collector) -> None:
        """Fan events out to ``collector`` (an object with ``append(ev)``)."""
        if not callable(getattr(collector, "append", None)):
            raise TypeError(
                f"collector {type(collector).__name__} has no append() method"
            )
        self._sinks.append(collector)

    def detach(self, collector) -> None:
        self._sinks.remove(collector)

    @property
    def collectors(self) -> List:
        """Attached collectors (excluding the primary ring)."""
        return self._sinks[1:]

    # -- reads ----------------------------------------------------------
    @property
    def emitted(self) -> int:
        """Total events emitted through this bus (monotonic)."""
        return self.ring.total

    def events(self) -> List[tuple]:
        """Retained events in emission order."""
        return self.ring.events()


def bus_from_spec(spec: str) -> Optional[EventBus]:
    """Build an :class:`EventBus` from a ``GPUConfig.events`` spec.

    Returns ``None`` for ``"off"``.  Spill mode resolves its directory
    lazily through :func:`repro.obs.store.spill_dir` (kept out of module
    scope to avoid the ``repro`` package-init import cycle).
    """
    kind, capacity = parse_spec(spec)
    if kind == "off":
        return None
    if kind == "spill":
        from .store import spill_dir  # lazy: store -> result_cache -> repro

        return EventBus(capacity, spill_dir=spill_dir(), spec=spec)
    return EventBus(capacity, spec=spec)


# ----------------------------------------------------------------------
# Wiring
# ----------------------------------------------------------------------
def wire_gpu(gpu, bus: EventBus) -> None:
    """Point every probe on the device at ``bus``: per SM (SM, LSU, MSHR,
    CPL, CACP) and on the shared hierarchy (L2 banks + tag array, DRAM
    channel).  Each L1D's sink is :func:`repro.feedback.l1_sink`'s to
    decide: the bus, or a scheduler fan-out in front of it."""
    for sm in gpu.sms:
        sm.obs = bus
        sm.lsu.obs = bus
        sm.mshr.obs = bus
        sm.mshr.obs_owner = sm.sm_id
        if sm.cpl is not None:
            sm.cpl.obs = bus
            sm.cpl.obs_owner = sm.sm_id
        policy = sm.l1d.policy
        if getattr(policy, "name", "") == "cacp":
            policy.obs = bus
    hierarchy = gpu.hierarchy
    hierarchy.l2.obs = bus
    hierarchy.l2.cache.obs = bus
    hierarchy.dram.obs = bus
