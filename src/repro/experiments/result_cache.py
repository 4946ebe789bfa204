"""Persistent on-disk result cache for experiment runs.

Figure scripts and benchmarks replay the same (workload, scheme, scale)
cells across processes; simulating each cell takes seconds while loading a
cached :class:`~repro.stats.counters.RunResult` takes milliseconds.  This
module stores serialized results as JSON files under ``.repro_cache/``.

Key design:

* The cache key hashes workload, scheme, scale, the workload kwargs, the
  **full config fingerprint** (:meth:`repro.config.GPUConfig.fingerprint`)
  and the package version.  Any config or version change therefore misses
  cleanly instead of returning stale numbers.
* Collector reports (:func:`repro.experiments.runner.cell_report`) are
  ``*.json`` entries beside the results, so :func:`clear` and :func:`gc`
  cover them too; :func:`stats` counts them apart.
* Entries are written atomically (temp file + ``os.replace`` via
  :mod:`repro.fslock`) so concurrent sweep workers — and the
  :mod:`repro.serve` executor processes — can share one cache directory
  without torn reads.  Garbage collection (:func:`gc`, ``repro cache gc``)
  holds an advisory lock so two collectors never race each other;
  individual entry writes stay lock-free.
* The directory defaults to ``.repro_cache/`` under the current working
  directory; override with the ``REPRO_CACHE_DIR`` environment variable or
  :func:`set_cache_dir`.  Set ``REPRO_DISK_CACHE=0`` to disable entirely —
  the trace store (below) honours the same switch.
* The trace store lives alongside the results, under ``traces/``
  inside :func:`cache_dir` (see :mod:`repro.trace.store`), and is cleared
  separately.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Optional

from .. import __version__
from .. import fslock
from ..stats.counters import result_from_dict

#: Environment variable overriding the cache directory.
ENV_DIR = "REPRO_CACHE_DIR"
#: Environment variable disabling the disk cache when set to "0".
ENV_ENABLE = "REPRO_DISK_CACHE"
#: Default directory (relative to the current working directory).
DEFAULT_DIR = ".repro_cache"
#: Bump to invalidate every existing entry on a format change.
FORMAT_VERSION = 1

_dir_override: Optional[Path] = None


def enabled() -> bool:
    """True unless ``REPRO_DISK_CACHE=0`` is set."""
    return os.environ.get(ENV_ENABLE, "1") != "0"


def cache_dir() -> Path:
    """Resolve the cache directory (override > env var > default)."""
    if _dir_override is not None:
        return _dir_override
    return Path(os.environ.get(ENV_DIR, DEFAULT_DIR))


def set_cache_dir(path: Optional[os.PathLike]) -> None:
    """Force the cache directory (``None`` restores env/default resolution)."""
    global _dir_override
    _dir_override = Path(path) if path is not None else None


def cache_key(
    workload: str,
    scheme: str,
    scale: float,
    config_fingerprint: str,
    workload_kwargs: Optional[dict] = None,
) -> str:
    """Deterministic key for one run cell.

    Hashes every input that changes the simulated outcome plus the package
    version, so upgrading the simulator or tweaking any config field
    invalidates old entries.  ``workload_kwargs`` as in
    :func:`repro.trace.store.trace_key`.
    """
    payload = json.dumps(
        {
            "workload": workload,
            "scheme": scheme,
            "scale": scale,
            "config": config_fingerprint,
            "kwargs": sorted((workload_kwargs or {}).items()),
            "version": __version__,
            "format": FORMAT_VERSION,
        },
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]
    return f"{workload}-{scheme}-{digest}"


def _entry_path(key: str) -> Path:
    return cache_dir() / f"{key}.json"


def load(key: str, decode: Callable[[Any], Any] = result_from_dict) -> Any:
    """Return the cached entry for ``key`` as ``decode`` makes it from the
    stored JSON (a result by default), or ``None`` on miss/corruption."""
    if not enabled():
        return None
    path = _entry_path(key)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return decode(data)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError):
        # Corrupt or stale-format entry: treat as a miss and drop it.
        try:
            path.unlink()
        except OSError:
            pass
        return None


def store(key: str, entry: Any) -> None:
    """Persist the plain JSON ``entry`` (a result's ``to_dict()``, or a
    report) under ``key`` (atomic; safe across processes)."""
    if not enabled():
        return
    try:
        fslock.atomic_write_json(_entry_path(key), entry)
    except OSError:
        # A read-only or full filesystem must never break a simulation run.
        pass


def clear() -> int:
    """Delete every cache entry; returns the number of files removed."""
    directory = cache_dir()
    removed = 0
    if directory.is_dir():
        for entry in sorted(directory.glob("*.json")):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def stats() -> dict:
    """Result entry count and byte total of the result-cache directory, and
    the same for its report entries under ``"reports"`` (their names carry
    the collector after a dot; a result's name has no dot)."""
    directory = cache_dir()
    reports = fslock.dir_stats(directory, "*.*.json")
    every = fslock.dir_stats(directory, "*.json")
    return dict({name: every[name] - reports[name] for name in every},
                reports=reports, dir=str(directory))


def gc(
    max_age_seconds: Optional[float] = None,
    max_entries: Optional[int] = None,
    blocking: bool = True,
) -> int:
    """Lock-safe garbage collection of stale result entries.

    Removes entries older than ``max_age_seconds`` and/or beyond the
    newest ``max_entries``, oldest first.  Holds the cache directory's
    advisory GC lock for the enumerate-and-delete section; with
    ``blocking=False`` a held lock means another collector is already at
    work and this call returns 0 immediately.  Concurrent writers need no
    lock: replaced entries carry fresh mtimes and unlinked entries simply
    miss on next load.
    """
    return fslock.collect(cache_dir(), "*.json", max_age_seconds,
                          max_entries, blocking)
