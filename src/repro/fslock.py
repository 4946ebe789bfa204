"""Advisory file locking and atomic-write helpers for the on-disk stores.

The two persistent stores under ``.repro_cache/`` (results and traces)
are shared by concurrent writers: parallel sweep workers and —
with :mod:`repro.serve` — a long-lived server's executor processes, all
racing against interactive CLI invocations.  Three primitives keep that
safe:

* :func:`atomic_write_bytes` / :func:`atomic_write_json` — temp file in the
  destination directory + ``os.replace``, so a reader only ever sees either
  the old complete entry or the new complete entry, never a torn write.
* :func:`locked` — an advisory lock (``fcntl.flock`` where available, a
  no-op elsewhere) held on a sidecar ``*.lock`` file, blocking or not.
  Writers of individual entries do **not** take locks (``os.replace``
  already makes them safe); locks exist for multi-file critical sections,
  i.e. garbage collection (:func:`collect`), where "enumerate then
  delete" must not interleave with another collector.

POSIX advisory locks are per-(process, file) — they do not exclude threads
of the same process — which is exactly the granularity the stores need:
in-process callers already serialize through the GIL-protected module
functions, while separate processes are the real hazard.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl

    _HAVE_FCNTL = True
except ImportError:  # pragma: no cover - Windows fallback
    fcntl = None  # type: ignore[assignment]
    _HAVE_FCNTL = False

#: Suffix for sidecar lock files (kept distinct from every store's entry
#: globs so lock files are never mistaken for cache entries).
LOCK_SUFFIX = ".lock"


def lock_path(directory: os.PathLike, name: str = "gc") -> Path:
    """Sidecar lock file for a named critical section in ``directory``."""
    return Path(directory) / f".{name}{LOCK_SUFFIX}"


@contextlib.contextmanager
def locked(path: os.PathLike, blocking: bool = True) -> Iterator[bool]:
    """Hold an exclusive advisory lock on ``path``; yields whether it did.

    ``blocking=False`` yields ``False`` at once if the lock is already
    held, letting a caller skip rather than queue (two concurrent
    ``repro cache gc`` runs need one winner, not a convoy).  Creates the
    lock file (and its directory) on demand.  Reduces to a no-op where
    ``fcntl`` is unavailable — single-writer platforms lose only GC
    mutual exclusion, never data integrity (entry writes stay atomic
    regardless).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as handle:
        acquired = True
        if _HAVE_FCNTL:
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB))
            except BlockingIOError:
                acquired = False
        try:
            yield acquired
        finally:
            if acquired and _HAVE_FCNTL:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def atomic_write_bytes(path: os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses a filesystem boundary.  On any failure the temp file is
    removed and the original entry (if any) is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: os.PathLike, payload: object, **dumps_kwargs) -> None:
    """Serialize ``payload`` as JSON and write it atomically to ``path``."""
    atomic_write_bytes(
        path, json.dumps(payload, **dumps_kwargs).encode("utf-8")
    )


def dir_stats(directory: os.PathLike, pattern: str) -> dict:
    """``{"entries": N, "bytes": B}`` for files matching ``pattern``.

    Entries that vanish mid-scan (a concurrent GC or overwrite) are simply
    skipped — statistics over a live directory are best-effort by nature.
    """
    directory = Path(directory)
    entries = 0
    total = 0
    if directory.is_dir():
        for entry in sorted(directory.glob(pattern)):
            try:
                total += entry.stat().st_size
            except OSError:
                continue
            entries += 1
    return {"entries": entries, "bytes": total}


def gc_entries(
    directory: os.PathLike,
    pattern: str,
    max_age_seconds: Optional[float] = None,
    max_entries: Optional[int] = None,
    now: Optional[float] = None,
) -> int:
    """Delete stale files matching ``pattern`` under ``directory``.

    ``max_age_seconds`` removes entries whose mtime is older than the
    cutoff; ``max_entries`` then removes the oldest entries beyond the
    cap.  Returns the number of files removed.  Callers are expected to
    hold the directory's GC lock (:func:`collect` does) so two collectors
    never race each other; racing *writers* are safe
    because a freshly replaced entry carries a fresh mtime and an unlinked
    entry simply misses on next read.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    import time

    # Lock-staleness GC compares host mtimes, so the host clock is the
    # only meaningful reference; nothing here feeds simulation results.
    now = time.time() if now is None else now  # sanitize: waive DET002 -- GC staleness is wall-time by definition
    candidates = []
    for entry in sorted(directory.glob(pattern)):
        try:
            mtime = entry.stat().st_mtime
        except OSError:
            continue
        candidates.append((mtime, entry))
    candidates.sort()

    doomed = []
    if max_age_seconds is not None:
        cutoff = now - max_age_seconds
        doomed.extend(e for mtime, e in candidates if mtime < cutoff)
    if max_entries is not None and len(candidates) > max_entries:
        survivors = [e for _m, e in candidates if e not in doomed]
        excess = len(survivors) - max_entries
        if excess > 0:
            doomed.extend(survivors[:excess])

    removed = 0
    for entry in doomed:
        try:
            entry.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def collect(
    directory: os.PathLike,
    pattern: str,
    max_age_seconds: Optional[float] = None,
    max_entries: Optional[int] = None,
    blocking: bool = True,
) -> int:
    """One store's lock-safe garbage collection.

    Runs :func:`gc_entries` over ``directory``'s ``pattern`` inside the
    directory's advisory GC lock.  With
    ``blocking=False`` a held lock means another collector is already at
    work, and this returns 0 at once.  Returns the number of files
    removed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    with locked(lock_path(directory), blocking) as acquired:
        if not acquired:
            return 0
        return gc_entries(directory, pattern, max_age_seconds, max_entries)
