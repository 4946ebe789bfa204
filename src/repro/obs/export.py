"""Exporters: Chrome Trace Format / Perfetto JSON and CSV metric dumps.

The Chrome trace maps the device onto the trace-viewer hierarchy:

* one **process row per SM** (pid = sm id; device-level events with
  ``sm == -1`` land on a synthetic "device" process);
* one **thread per warp** (tid assigned deterministically from the sorted
  set of ``(block, warp)`` keys seen on that SM), named ``b<block>/w<warp>``;
* ``WARP_ISSUE`` renders as a 1-cycle complete slice named by opcode,
  ``WARP_STALL`` as a complete slice over the stalled interval named by
  the stall reason — so a skip-clock jump shows up as a *gap* (or an
  explicit stall slice), never as fabricated busy time;
* cache / MSHR / LSU events become instants on a per-SM ``mem`` thread;
  L2 / DRAM / CACP instants live on the device process.

Byte determinism: :func:`write_chrome_trace` canonically sorts the events
(:func:`~repro.obs.collect.sort_events`) and serializes with
``sort_keys=True`` and fixed separators, so two runs emitting the same
event multiset export byte-identical files.

Timestamps are in microseconds per the trace format; we map **1 cycle ==
1 µs** so Perfetto's time axis reads directly in cycles.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from .collect import sort_events
from .events import (
    COMMON_FIELDS,
    EVENT_FIELDS,
    Ev,
    LEVEL_NAMES,
    STALL_NAMES,
    event_to_dict,
)

#: pid used for device-level events (sm == -1).  Real SM pids are sm_id+1
#: so pid 0 (disallowed by some viewers) never appears.
DEVICE_PID = 1_000_000

#: tid for the per-SM memory instant track and device-level track.
MEM_TID = 0


def _pid(sm: int) -> int:
    return DEVICE_PID if sm < 0 else sm + 1


def chrome_trace(events: Iterable[Sequence]) -> Dict[str, object]:
    """Build a Chrome Trace Format / Perfetto ``traceEvents`` document."""
    events = sort_events(events)

    # Deterministic warp->tid maps, one per SM.  tid 0 is the mem track.
    warps_by_sm: Dict[int, List[Tuple[int, int]]] = {}
    for ev in events:
        if ev[0] in (int(Ev.WARP_START), int(Ev.WARP_ISSUE),
                     int(Ev.WARP_STALL), int(Ev.WARP_FINISH)):
            warps_by_sm.setdefault(ev[2], []).append((ev[3], ev[4]))
    tids: Dict[Tuple[int, int, int], int] = {}
    for sm, keys in warps_by_sm.items():
        for i, (block, warp) in enumerate(sorted(set(keys))):
            tids[(sm, block, warp)] = i + 1

    out: List[Dict[str, object]] = []

    def meta(pid: int, tid: int, name: str, what: str) -> None:
        out.append({
            "ph": "M", "name": what, "pid": pid, "tid": tid,
            "args": {"name": name},
        })

    # Process/thread naming metadata.
    seen_pids = sorted({_pid(ev[2]) for ev in events})
    for pid in seen_pids:
        label = "device" if pid == DEVICE_PID else f"SM {pid - 1}"
        meta(pid, MEM_TID, label, "process_name")
        meta(pid, MEM_TID, "mem", "thread_name")
    for (sm, block, warp), tid in sorted(tids.items()):
        meta(_pid(sm), tid, f"b{block}/w{warp}", "thread_name")

    _issue = int(Ev.WARP_ISSUE)
    _stall = int(Ev.WARP_STALL)
    _start = int(Ev.WARP_START)
    _finish = int(Ev.WARP_FINISH)
    for ev in events:
        kind, cycle, sm = ev[0], ev[1], ev[2]
        pid = _pid(sm)
        if kind == _issue:
            out.append({
                "ph": "X", "name": str(ev[6]), "cat": "issue",
                "pid": pid, "tid": tids[(sm, ev[3], ev[4])],
                "ts": cycle, "dur": 1, "args": {"pc": ev[5]},
            })
        elif kind == _stall:
            reason = STALL_NAMES.get(int(ev[5]), str(ev[5]))
            out.append({
                "ph": "X", "name": reason, "cat": "stall",
                "pid": pid, "tid": tids[(sm, ev[3], ev[4])],
                "ts": ev[7], "dur": ev[6], "args": {"reason": reason},
            })
        elif kind in (_start, _finish):
            out.append({
                "ph": "i", "s": "t",
                "name": "start" if kind == _start else "finish",
                "cat": "warp", "pid": pid,
                "tid": tids[(sm, ev[3], ev[4])], "ts": cycle, "args": {},
            })
        else:
            row = event_to_dict(ev)
            name = row.pop("kind")
            row.pop("cycle")
            row.pop("sm")
            if "level" in row:
                name = f"{row['level']}_{name.split('_', 1)[1]}"
            out.append({
                "ph": "i", "s": "p", "name": name, "cat": "mem",
                "pid": pid, "tid": MEM_TID, "ts": cycle, "args": row,
            })

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "cycles_per_us": 1},
    }


def write_chrome_trace(events: Iterable[Sequence], path) -> Path:
    """Serialize :func:`chrome_trace` byte-deterministically to ``path``."""
    doc = chrome_trace(events)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return path


def events_csv(events: Iterable[Sequence]) -> str:
    """Flat CSV dump: common columns plus the union of all field names."""
    events = sort_events(events)
    field_names: List[str] = []
    for kind in Ev:
        for name in EVENT_FIELDS[kind]:
            if name not in field_names:
                field_names.append(name)
    header = list(COMMON_FIELDS) + field_names
    buf = io.StringIO()
    # Quoting keeps a CPL_VERDICT's ``warps`` tuple in one cell.
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for ev in events:
        row = event_to_dict(ev)
        writer.writerow([str(row.get(col, "")) for col in header])
    return buf.getvalue()


def kind_counts(events: Iterable[Sequence]) -> Dict[str, int]:
    """Event count per kind name (``repro events stats`` summary)."""
    counts: Dict[int, int] = {}
    for ev in events:
        counts[ev[0]] = counts.get(ev[0], 0) + 1
    return {
        Ev(code).name: n
        for code, n in sorted(counts.items())
    }


#: Re-export for exporters' callers.
__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "events_csv",
    "kind_counts",
    "DEVICE_PID",
    "LEVEL_NAMES",
]
