"""Progress channel between executor processes and the asyncio server.

A running job's only link back to the server is an append-only JSONL
*progress file* in the server's spool directory: the worker appends one
JSON object per line with a single ``os.write`` on an ``O_APPEND`` file
descriptor (atomic for these record sizes on POSIX), and the server tails
the file and fans new records out to SSE subscribers.  No pipes or
queues cross the executor boundary, so the channel survives any
start-method (fork/spawn) and needs no cleanup protocol — the server
unlinks the file when the job is evicted.

Record kinds (the ``kind`` field):

``started``
    the executor picked the job up (carries the worker ``pid``).
``cell``
    a sweep finished one grid cell (``workload``, ``scheme``, ``cycles``).
``obs``
    periodic snapshot from the live :mod:`repro.obs` event bus of an
    events-enabled run: events emitted so far, current simulated cycle,
    and the issue/stall counts seen since the last snapshot.
``obs_summary``
    end-of-run totals per event kind (from the same bus).
``finished`` / ``failed``
    terminal worker-side records; the server appends its own ``result``
    availability marker when the executor future resolves.
"""

from __future__ import annotations

import json
import os

from ..obs.events import Ev
from ..obs.export import KindCounter

_ISSUE = int(Ev.WARP_ISSUE)
_STALL = int(Ev.WARP_STALL)


class ProgressWriter:
    """Append-only JSONL writer used inside executor processes."""

    def __init__(self, path: os.PathLike) -> None:
        self._path = os.fspath(path)
        os.makedirs(os.path.dirname(self._path) or ".", exist_ok=True)
        self._fd = os.open(
            self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    def emit(self, kind: str, **fields) -> None:
        record = {"kind": kind}
        record.update(fields)
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            os.write(self._fd, data)
        except OSError:
            # Progress is best-effort; never fail the simulation over it.
            pass

    def close(self) -> None:
        try:
            os.close(self._fd)
        except OSError:
            pass


class ObsProgressCollector(KindCounter):
    """Event-bus collector that periodically snapshots run progress.

    Attached to the job's :class:`repro.obs.bus.EventBus` alongside the
    primary ring (collectors never perturb timing — the obs parity suite
    pins that), it counts events per kind as they are emitted and every
    ``interval`` events writes an ``obs`` progress record: total events,
    the cycle stamp of the triggering event, and how many issue/stall
    events arrived since the previous snapshot.  This is what makes the
    server's SSE feed carry live *simulation* progress rather than just
    queue transitions.  The counts cover the whole run, so the job's bus
    needs no ring of its own beyond one event.
    """

    def __init__(self, writer: ProgressWriter, interval: int = 20000) -> None:
        super().__init__()
        self._writer = writer
        self._interval = max(1, interval)
        self.seen = 0
        self.snapshots = 0
        #: Issue and stall counts at the previous snapshot.
        self._last = (0, 0)

    def append(self, ev: tuple) -> None:
        counts = self.counts
        counts[ev[0]] = counts.get(ev[0], 0) + 1
        self.seen += 1
        if self.seen % self._interval == 0:
            self._snapshot(cycle=ev[1])

    def _snapshot(self, cycle) -> None:
        self.snapshots += 1
        issues = self.counts.get(_ISSUE, 0)
        stalls = self.counts.get(_STALL, 0)
        self._writer.emit(
            "obs",
            events=self.seen,
            cycle=cycle,
            issues=issues - self._last[0],
            stalls=stalls - self._last[1],
        )
        self._last = (issues, stalls)

    def finalize(self) -> None:
        """Flush a final snapshot plus per-kind totals."""
        if self.seen and (self.seen % self._interval) != 0:
            self._snapshot(cycle=None)
        self._writer.emit("obs_summary", events=self.seen, kinds=self.named())


def read_new_records(path: os.PathLike, offset: int):
    """Read complete JSONL records appended after byte ``offset``.

    Returns ``(records, new_offset)``.  A trailing partial line (the
    writer mid-append) is left for the next poll.  A missing file reads
    as empty — the worker may not have started yet.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return [], offset
    if not chunk:
        return [], offset
    end = chunk.rfind(b"\n")
    if end < 0:
        return [], offset
    complete = chunk[: end + 1]
    records = []
    for line in complete.splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    return records, offset + len(complete)
