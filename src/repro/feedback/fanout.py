"""Each L1's record sink: the event bus, or a scheduler fan-out before it.

A cache decision has one record, the :mod:`repro.obs` ``CACHE_*`` event
(schema v2 names the warps involved), handed to the cache's one sink.
:func:`l1_sink` decides that sink for an SM's L1 from what its schedulers
declare in ``FEEDBACK_KINDS``: ``None`` with no bus and no subscriber, the
bus with no subscriber, else an :class:`L1Fanout` that calls the handlers
of the record's kind — in scheduler-slot order, synchronously, in the
cache's decision order — and then the bus, if any.  A subscriber therefore
receives the very tuples the bus records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from ..obs.events import Ev

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.bus import EventBus
    from ..scheduling.base import WarpScheduler

#: A subscriber callback: receives one cache record tuple.
Handler = Callable[[tuple], None]


class L1Fanout:
    """One SM's L1 sink when a scheduler subscribes: handlers by kind,
    then the bus."""

    __slots__ = ("handlers", "bus")

    def __init__(self, handlers: Dict[int, List[Handler]],
                 bus: Optional["EventBus"] = None) -> None:
        #: kind -> handlers in scheduler-slot order.
        self.handlers = handlers
        #: The event bus (``repro.obs``), or ``None`` when events are off.
        self.bus = bus

    def emit(self, record: tuple) -> None:
        handlers = self.handlers.get(record[0])
        if handlers is not None:
            for handler in handlers:
                handler(record)
        bus = self.bus
        if bus is not None:
            bus.emit(record)


def l1_sink(schedulers: Sequence["WarpScheduler"], bus: Optional["EventBus"] = None
            ) -> Union[None, "EventBus", L1Fanout]:
    """The sink of one SM's L1: ``None``, ``bus`` or an :class:`L1Fanout`.

    ``schedulers`` are the SM's slots, in order; each subscribes its
    ``on_signal`` to the ``Ev`` kinds in its ``FEEDBACK_KINDS`` (an unknown
    kind raises ``ValueError``).
    """
    handlers: Dict[int, List[Handler]] = {}
    for scheduler in schedulers:
        for kind in scheduler.FEEDBACK_KINDS:
            handlers.setdefault(int(Ev(kind)), []).append(scheduler.on_signal)
    return L1Fanout(handlers, bus) if handlers else bus
