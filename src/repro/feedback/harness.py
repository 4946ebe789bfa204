"""One-call recording of a cell's cache records.

:func:`record_signals` is :func:`repro.obs.harness.record_events` filtered
to the three cache decisions schedulers subscribe to: miss, fill and
eviction, at both levels.  Kept in its own module (exported lazily from
``repro.feedback``) because it imports the GPU and the experiment runner.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import GPUConfig
from ..obs.collect import sort_events
from ..obs.events import Ev

#: The kinds :func:`record_signals` keeps.
CACHE_DECISIONS = frozenset(
    int(kind) for kind in (Ev.CACHE_MISS, Ev.CACHE_FILL, Ev.CACHE_EVICT))


class _CacheDecisions(list):
    """A bus collector keeping the cache decisions only."""

    def append(self, record: tuple) -> None:
        if record[0] in CACHE_DECISIONS:
            super().append(record)


def record_signals(
    workload: str,
    scheme: str,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    check: bool = True,
) -> Tuple[object, List[tuple]]:
    """Run one cell recording its cache decisions; return ``(result, records)``.

    Records come in the canonical ``(cycle, sm, kind, fields)`` order
    (:func:`~repro.obs.collect.sort_events`), so two recordings of one
    cell compare with ``==``.  Like :func:`~repro.obs.harness.record_events`,
    a sampled config records the sampled replay.  The bus retains a single
    event: the records are the collector's.
    """
    from ..obs.harness import record_events

    records = _CacheDecisions()
    result, _ = record_events(workload, scheme, scale, config,
                              collectors=(records,), check=check,
                              events="ring:1")
    return result, sort_events(records)
