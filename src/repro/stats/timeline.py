"""Warp execution timeline profiling and ASCII rendering.

The :class:`TimelineProfiler` records when each warp issued instructions;
:func:`render_block_timeline` draws a per-warp activity strip ("Gantt
chart") for one thread block, which makes warp criticality — a slow
warp's lonely tail after its siblings finish — directly visible in a
terminal.

The profiler is an **event-bus collector** (see :mod:`repro.obs`): attach
it with :meth:`repro.obs.bus.EventBus.attach` and it reconstructs every
timeline from ``WARP_START`` / ``WARP_ISSUE`` / ``WARP_FINISH`` events::

    bus = bus_from_spec("on")
    profiler = TimelineProfiler()
    bus.attach(profiler)
    gpu = GPU(config, obs=bus)

(``docs/observability.md`` has the bus and its collector protocol).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.events import Ev

WarpKey = Tuple[int, int, int]  # (sm_id, block_id, warp_id_in_block)

_EV_WARP_START = int(Ev.WARP_START)
_EV_WARP_ISSUE = int(Ev.WARP_ISSUE)
_EV_WARP_FINISH = int(Ev.WARP_FINISH)

#: Activity density glyphs, sparse to dense.
_GLYPHS = " .:-=+*#%@"


@dataclass
class WarpTimeline:
    """Issue cycles recorded for one warp."""

    issue_cycles: List[float] = field(default_factory=list)
    start_cycle: float = 0.0
    finish_cycle: Optional[float] = None


class TimelineProfiler:
    """Event-bus collector recording every warp's issue cycles."""

    def __init__(self) -> None:
        self.timelines: Dict[WarpKey, WarpTimeline] = {}

    # -- event-bus collector protocol ----------------------------------
    def append(self, ev: Sequence) -> None:
        """Consume one event record (bus fan-out or stored stream)."""
        kind = ev[0]
        if kind == _EV_WARP_ISSUE:
            key = (ev[2], ev[3], ev[4])
            timeline = self.timelines.get(key)
            if timeline is None:
                timeline = WarpTimeline(start_cycle=ev[1])
                self.timelines[key] = timeline
            timeline.issue_cycles.append(ev[1])
        elif kind == _EV_WARP_START:
            key = (ev[2], ev[3], ev[4])
            if key not in self.timelines:
                self.timelines[key] = WarpTimeline(start_cycle=ev[1])
        elif kind == _EV_WARP_FINISH:
            timeline = self.timelines.get((ev[2], ev[3], ev[4]))
            if timeline is not None:
                timeline.finish_cycle = ev[1]

    # ------------------------------------------------------------------
    def block_keys(self) -> List[Tuple[int, int]]:
        """(sm_id, block_id) pairs observed, in first-seen order."""
        seen = []
        for sm_id, block_id, _ in self.timelines:
            if (sm_id, block_id) not in seen:
                seen.append((sm_id, block_id))
        return seen

    def block_timelines(self, sm_id: int, block_id: int) -> Dict[int, WarpTimeline]:
        """warp_id -> timeline for one block."""
        return {
            warp_id: timeline
            for (s, b, warp_id), timeline in self.timelines.items()
            if s == sm_id and b == block_id
        }


def render_block_timeline(
    profiler: TimelineProfiler,
    sm_id: int,
    block_id: int,
    width: int = 72,
) -> str:
    """ASCII activity strip: one row per warp, glyph = issue density."""
    warps = profiler.block_timelines(sm_id, block_id)
    warps = {w: t for w, t in warps.items() if t.issue_cycles}
    if not warps:
        return f"(no issue samples for SM{sm_id} block {block_id})"
    t0 = min(t.issue_cycles[0] for t in warps.values())
    t1 = max(t.issue_cycles[-1] for t in warps.values())
    span = max(1.0, t1 - t0)
    bucket = span / width

    lines = [
        f"SM{sm_id} block {block_id}: warp activity over cycles "
        f"{t0:.0f}..{t1:.0f} ({bucket:.0f} cycles/char)"
    ]
    max_density = 1
    histograms = {}
    for warp_id, timeline in sorted(warps.items()):
        histogram = [0] * width
        for cycle in timeline.issue_cycles:
            slot = min(width - 1, int((cycle - t0) / bucket))
            histogram[slot] += 1
        histograms[warp_id] = histogram
        max_density = max(max_density, max(histogram))

    for warp_id, histogram in histograms.items():
        strip = "".join(
            _GLYPHS[min(len(_GLYPHS) - 1, (count * (len(_GLYPHS) - 1)) // max_density)]
            for count in histogram
        )
        finish = warps[warp_id].finish_cycle
        tail = f" done @{finish:.0f}" if finish is not None else ""
        lines.append(f"  w{warp_id:<3}|{strip}|{tail}")
    return "\n".join(lines)


def critical_tail_cycles(profiler: TimelineProfiler, sm_id: int, block_id: int) -> float:
    """Cycles between the first and last warp completion in a block.

    The paper's warp-criticality cost in its rawest form: how long the
    block kept resources allocated after its first warp went idle.
    """
    warps = profiler.block_timelines(sm_id, block_id)
    finishes = [t.finish_cycle for t in warps.values() if t.finish_cycle is not None]
    if len(finishes) < 2:
        return 0.0
    return max(finishes) - min(finishes)
