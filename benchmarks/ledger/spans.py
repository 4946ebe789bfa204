"""Span stack for the traced pass: self time per layer, from outside the program.

Two kinds of span share one stack, so a parent's self time is always its
duration minus what its children covered:

* **layer calls** (``Tracer.wrap``) — one per call into a layer boundary
  (``sm.tick``, ``scheduler.select`` ...).  A wide cell makes millions of
  them, so they are not kept: each adds its self time and a call count to
  the ``(cell, layer)`` aggregate.
* **coarse spans** (``Tracer.span``) — workload, pass, cell, phase, serve
  job.  Each is recorded individually with name, start, end, parent id
  and the cell identifier, kept in memory and written as Chrome-trace JSON
  when the run ends.

The clock is injectable so the arithmetic is testable without sleeping.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class LayerStat:
    """Aggregate of one layer within one cell."""

    __slots__ = ("self_s", "calls", "counted")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        #: Sum of the wrapper's ``count(result)`` values (ticks that
        #: issued, selects that declined, lines coalesced ...).
        self.counted = 0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: One ``[child_seconds]`` accumulator per open span, innermost last.
        self._stack: List[List[float]] = []
        self._open_ids: List[int] = []
        #: Identifier stamped on coarse spans and keying the aggregates.
        self.cell: Optional[str] = None
        self.layers: Dict[str, Dict[str, LayerStat]] = {}
        self.spans: List[dict] = []
        #: Seconds handed to :meth:`exclude`: inside the spans' wall, in nobody's self time.
        self.excluded_s = 0.0

    # -- layer calls -----------------------------------------------------
    def _stat(self, layer: str) -> LayerStat:
        per_cell = self.layers.get(self.cell)
        if per_cell is None:
            per_cell = self.layers[self.cell] = {}
        stat = per_cell.get(layer)
        if stat is None:
            stat = per_cell[layer] = LayerStat()
        return stat

    def wrap(self, fn: Callable, layer: str,
             count: Optional[Callable[[object], int]] = None) -> Callable:
        """Timing wrapper around ``fn`` (a bound method or plain function).

        Returns whatever ``fn`` returns and lets its exceptions through;
        the span is popped either way.
        """
        stack = self._stack
        clock = self.clock
        stat_for = self._stat

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                _close(stack, frame, clock() - start, stat_for(layer))
                raise
            stat = stat_for(layer)
            _close(stack, frame, clock() - start, stat)
            if count is not None:
                stat.counted += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- coarse spans ----------------------------------------------------
    @contextmanager
    def span(self, name: str, **args):
        """Record one coarse span; nests with layer calls on the same stack."""
        frame = [0.0]
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._open_ids[-1] if self._open_ids else None,
            "cell": self.cell,
            "start": self.clock(),
            "args": args,
        }
        self.spans.append(record)
        self._stack.append(frame)
        self._open_ids.append(span_id)
        try:
            yield record
        finally:
            record["end"] = self.clock()
            duration = record["end"] - record["start"]
            self._open_ids.pop()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            record["self_s"] = duration - frame[0]

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` that just elapsed (the host-speed sampler's slice)
        out of the innermost open span's self time."""
        self.excluded_s += seconds
        if self._stack:
            self._stack[-1][0] += seconds

    def add_span(self, name: str, start: float, end: float, parent: Optional[int],
                 cell: Optional[str] = None, **args) -> None:
        """Record a span timed elsewhere (a client thread's serve job); it
        takes no part in the self-time stack, which belongs to one thread."""
        self.spans.append({"id": len(self.spans), "name": name, "parent": parent,
                           "cell": cell, "start": start, "end": end, "args": args})

    # -- queries ---------------------------------------------------------
    def total(self, layer: str, field: str = "self_s", cell: Optional[str] = None):
        """Sum of one layer's ``self_s`` / ``calls`` / ``counted`` over the
        cells (or over ``cell`` alone)."""
        cells = [cell] if cell is not None else list(self.layers)
        return sum(getattr(self.layers[c][layer], field)
                   for c in cells if c in self.layers and layer in self.layers[c])

    def layer_self_total(self) -> float:
        return sum(stat.self_s for per_cell in self.layers.values()
                   for stat in per_cell.values())

    def span_total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and "end" in s)

    def chrome_events(self, origin: float, pid: int = 0) -> List[dict]:
        """Coarse spans as Chrome-trace (``chrome://tracing``, Perfetto) events."""
        return [{
            "name": s["name"], "ph": "X", "pid": pid, "tid": 0,
            "ts": (s["start"] - origin) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "args": dict(s["args"], id=s["id"], parent=s["parent"],
                         cell=s["cell"], self_s=s.get("self_s")),
        } for s in self.spans if "end" in s]


def write_chrome_trace(path: str, tracers: List[Tracer]) -> None:
    """One file for the run: a Chrome-trace process per tracer (workload)."""
    starts = [s["start"] for tracer in tracers for s in tracer.spans]
    origin = min(starts, default=0.0)
    events = [event for pid, tracer in enumerate(tracers)
              for event in tracer.chrome_events(origin, pid)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _close(stack: list, frame: list, duration: float, stat: LayerStat) -> None:
    stack.pop()
    if stack:
        stack[-1][0] += duration
    stat.self_s += duration - frame[0]
    stat.calls += 1


def shadow(tracer: Tracer, obj, attr: str, layer: str,
           count: Optional[Callable[[object], int]] = None) -> bool:
    """Shadow ``obj.attr`` with a timing wrapper *on the instance*.

    The class is untouched; a missing attribute (a later commit renamed or
    deleted the boundary) or a ``__slots__`` object is skipped and the
    layer simply reports zero calls.
    """
    fn = getattr(obj, attr, None)
    if fn is None or not callable(fn):
        return False
    try:
        setattr(obj, attr, tracer.wrap(fn, layer, count))
    except AttributeError:
        return False
    return True
