"""``repro.obs`` — the structured observability subsystem.

A typed, versioned event schema (:mod:`~repro.obs.events`), a
near-zero-cost probe/event bus (:mod:`~repro.obs.bus`), bounded
collectors and the canonical event order (:mod:`~repro.obs.collect`),
per-warp stall attribution (:mod:`~repro.obs.stalls`), and Chrome-trace /
CSV exporters (:mod:`~repro.obs.export`).  Streams are recorded on
demand, never stored.  See ``docs/observability.md``.

Only the leaf modules are imported eagerly — the recording harness
(:func:`record_events`) pulls in the GPU and the experiment runner, so it
is exposed via module ``__getattr__`` instead.
"""

from __future__ import annotations

from .bus import EventBus, bus_from_spec, parse_spec, wire_gpu
from .collect import RingCollector, sort_events
from .events import (
    EVENT_FIELDS,
    SCHEMA_VERSION,
    STALL_NAMES,
    Ev,
    SchemaError,
    Stall,
    event_to_dict,
    schema_table,
    validate_events,
    validate_schema,
)
from .export import KindCounter, chrome_trace, events_csv, write_chrome_trace
from .stalls import StallAccounting

__all__ = [
    "Ev",
    "Stall",
    "SchemaError",
    "SCHEMA_VERSION",
    "STALL_NAMES",
    "EVENT_FIELDS",
    "validate_events",
    "validate_schema",
    "event_to_dict",
    "schema_table",
    "EventBus",
    "bus_from_spec",
    "parse_spec",
    "wire_gpu",
    "RingCollector",
    "sort_events",
    "StallAccounting",
    "chrome_trace",
    "write_chrome_trace",
    "events_csv",
    "KindCounter",
    "record_events",
]


def __getattr__(name: str):
    if name == "record_events":
        from .harness import record_events

        return record_events
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
