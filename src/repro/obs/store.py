"""Persistent event-stream store under ``.repro_cache/events/``.

Recorded event streams are artifacts like traces: zlib-compressed JSON
envelopes with a format marker, schema version, and provenance metadata
(workload, scheme, config fingerprint, event count).  ``repro events
record`` writes them; ``repro events stats`` / ``export`` read them back, so
an expensive run is recorded once and analyzed many times.

Layout::

    .repro_cache/events/
        <workload>-<scheme>-<scale>-<fingerprint12>.evt.z   saved streams
        spill/                                              RingCollector spill chunks

All imports of :func:`repro.experiments.result_cache.cache_dir` are lazy
(inside functions): ``result_cache`` does ``from .. import __version__``,
which is only defined at the *end* of ``repro/__init__``, so importing it
at module scope from a package-init-reachable module would cycle.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import fslock
from ..errors import ReproError
from .events import SCHEMA_VERSION, event_from_json, validate_events

#: Subdirectory of the repro cache holding event artifacts.
EVENTS_SUBDIR = "events"
#: On-disk format marker.
FORMAT = "repro-events"
#: Bump on envelope (not schema) changes.
FORMAT_VERSION = 1
#: File suffix for saved streams.
SUFFIX = ".evt.z"


class EventStoreError(ReproError):
    """A saved event stream is missing, corrupt, or incompatible."""


def events_dir() -> Path:
    """Root directory for event artifacts.

    Only resolved here: :func:`save_events` and the collector's spill path
    create it when they first write, so the read-only commands
    (:func:`list_events`, :func:`stats`, :func:`gc`) never touch the disk.
    """
    from ..experiments.result_cache import cache_dir  # lazy: import cycle

    return cache_dir() / EVENTS_SUBDIR


def spill_dir() -> Path:
    """Directory for :class:`~repro.obs.collect.RingCollector` spill chunks."""
    return events_dir() / "spill"


def event_key(workload: str, scheme: str, scale: float,
              fingerprint: str) -> str:
    """Stable artifact key: workload x scheme x scale x config fingerprint."""
    scale_tag = f"{scale:g}".replace(".", "p")
    return f"{workload}-{scheme}-{scale_tag}-{fingerprint[:12]}"


def event_path(key: str) -> Path:
    return events_dir() / f"{key}{SUFFIX}"


def save_events(path: Path, events: Iterable[Sequence],
                meta: Optional[Dict[str, object]] = None) -> Path:
    """Write an event stream (validated against the schema) to ``path``."""
    records = [list(ev) for ev in events]
    validate_events(records)
    envelope = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "count": len(records),
        "events": records,
    }
    path = Path(path)
    payload = json.dumps(envelope, sort_keys=True).encode("utf-8")
    # Atomic (temp + os.replace): a concurrent reader of the same artifact
    # sees either the previous complete stream or this one, never a torn
    # zlib payload.
    fslock.atomic_write_bytes(path, zlib.compress(payload, level=6))
    return path


def load_events(path: Path) -> Tuple[List[tuple], Dict[str, object]]:
    """Read ``(events, meta)`` back; validates format, version, schema."""
    path = Path(path)
    if not path.exists():
        raise EventStoreError(f"no event stream at {path}")
    try:
        envelope = json.loads(zlib.decompress(path.read_bytes()))
    except (zlib.error, ValueError) as exc:
        raise EventStoreError(f"corrupt event stream {path}: {exc}") from exc
    if envelope.get("format") != FORMAT:
        raise EventStoreError(
            f"{path} is not a {FORMAT} artifact "
            f"(format={envelope.get('format')!r})"
        )
    if envelope.get("version") != FORMAT_VERSION:
        raise EventStoreError(
            f"{path} has envelope version {envelope.get('version')!r}, "
            f"this build reads {FORMAT_VERSION}"
        )
    if envelope.get("schema_version") != SCHEMA_VERSION:
        raise EventStoreError(
            f"{path} uses event schema v{envelope.get('schema_version')!r}, "
            f"this build speaks v{SCHEMA_VERSION}"
        )
    events = [event_from_json(ev) for ev in envelope.get("events", [])]
    validate_events(events)
    return events, dict(envelope.get("meta", {}))


def list_events() -> List[Tuple[str, Path]]:
    """``(key, path)`` for every saved stream, sorted by key."""
    root = events_dir()
    out = [
        (p.name[: -len(SUFFIX)], p)
        for p in sorted(root.glob(f"*{SUFFIX}"))
        if p.is_file()
    ]
    out.sort()
    return out


def stats() -> dict:
    """Entry count and byte total for the event-stream store."""
    root = events_dir()
    out = fslock.dir_stats(root, f"*{SUFFIX}")
    out["dir"] = str(root)
    return out


def gc(
    max_age_seconds: Optional[float] = None,
    max_entries: Optional[int] = None,
    blocking: bool = True,
) -> int:
    """Lock-safe garbage collection of stale event streams (and spill
    chunks), same contract as :func:`repro.experiments.result_cache.gc`."""
    return fslock.collect(events_dir(), f"*{SUFFIX}", max_age_seconds,
                          max_entries, blocking, age_only=("spill/*",))
