"""Persistent trace store under ``.repro_cache/traces/``.

Traces live next to the PR-1 result cache and follow the same directory
resolution (``REPRO_CACHE_DIR`` / :func:`repro.experiments.result_cache.set_cache_dir`),
but are keyed on the **functional** config fingerprint only
(:meth:`repro.config.GPUConfig.functional_fingerprint`): timing-only knobs —
scheduler, scheme, cache sizes, latencies, issue core — do *not* invalidate
a trace, so one recording serves the whole scheme sweep.  Workload identity,
scale, and any workload kwargs are part of the key because they change the
generated kernel and data, and so is the package version: an upgrade that
changes a workload's generator or the ISA must not replay the old streams.

Stale traces (wrong format version, wrong functional fingerprint, corrupt
bytes) are refused by :mod:`repro.trace.format` at load; the non-strict
:func:`load_program` used by the auto-record path converts that refusal
into a miss (and drops the dead file) so the runner transparently
re-records.

``REPRO_DISK_CACHE=0`` disables the disk half, as it does for the result
cache: nothing under ``traces/`` is read or written, and the in-process
memo alone hands a recorded program to the cells that follow it.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .. import __version__, fslock
from ..config import GPUConfig
from ..errors import TraceError, TraceFormatError, TraceMismatchError
from ..experiments.result_cache import cache_dir, enabled
from .format import TraceInfo, TraceProgram, read_info

#: Subdirectory of the result cache holding trace files.
TRACE_SUBDIR = "traces"
#: File extension for stored traces (format v2, see :mod:`repro.trace.format`).
TRACE_SUFFIX = ".trace"

#: ``(mtime_ns, size)`` of a trace file; ``None`` when there is no file.
_FileId = Optional[Tuple[int, int]]

#: In-process memo of programs, LRU-bounded: what :func:`store_program`
#: just wrote (so the cell after a recording never decodes what the
#: process just built) and what :func:`load_program` decoded.  Entries
#: validate against the file's identity on every hit, so a trace another
#: process overwrote or deleted is never served stale; an entry whose
#: file was never written (disk cache disabled, unwritable directory) is
#: served as long as there is still no file.  Shared programs are
#: read-only by contract: replay and subsampling never mutate streams.
_PROGRAM_MEMO: "OrderedDict[str, Tuple[_FileId, TraceProgram]]" = OrderedDict()
_PROGRAM_MEMO_CAP = 4


def _file_id(path: Path) -> _FileId:
    if not enabled():
        return None
    try:
        info = path.stat()
    except OSError:
        return None
    return (info.st_mtime_ns, info.st_size)


def _remember(path: Path, file_id: _FileId, program: TraceProgram) -> None:
    _PROGRAM_MEMO[str(path)] = (file_id, program)
    _PROGRAM_MEMO.move_to_end(str(path))
    while len(_PROGRAM_MEMO) > _PROGRAM_MEMO_CAP:
        _PROGRAM_MEMO.popitem(last=False)


def trace_dir() -> Path:
    """Directory holding persistent traces (inside the result cache dir)."""
    return cache_dir() / TRACE_SUBDIR


def trace_key(
    workload: str,
    scale: float,
    functional_fp: str,
    workload_kwargs: Optional[dict] = None,
) -> str:
    """Deterministic file stem for one recorded workload."""
    payload = json.dumps(
        {
            "workload": workload,
            "scale": scale,
            "functional_fp": functional_fp,
            "kwargs": sorted((workload_kwargs or {}).items()),
            "version": __version__,
        },
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    safe = workload.replace("/", "_").replace("+", "p")
    return f"{safe}-{digest}"


def trace_path(
    workload: str,
    scale: float,
    config: GPUConfig,
    workload_kwargs: Optional[dict] = None,
) -> Path:
    return trace_dir() / (
        trace_key(workload, scale, config.functional_fingerprint(), workload_kwargs)
        + TRACE_SUFFIX
    )


def load_program(
    workload: str,
    scale: float,
    config: GPUConfig,
    workload_kwargs: Optional[dict] = None,
    strict: bool = False,
) -> Optional[TraceProgram]:
    """Load the stored trace for one workload cell, or ``None`` on miss.

    Non-strict (the auto-record path): a corrupt, version-incompatible, or
    fingerprint-mismatched file is deleted and reported as a miss so the
    caller re-records.  Strict (``repro trace replay``): those conditions
    raise the underlying :class:`~repro.errors.TraceError` with its precise
    explanation instead of silently re-simulating.
    """
    path = trace_path(workload, scale, config, workload_kwargs)
    file_id = _file_id(path)  # before the read: never newer than the bytes
    cached = _PROGRAM_MEMO.get(str(path))
    if cached is not None:
        if cached[0] == file_id:
            _PROGRAM_MEMO.move_to_end(str(path))
            return cached[1]
        del _PROGRAM_MEMO[str(path)]
    try:
        if file_id is None:
            raise FileNotFoundError(path)
        program = TraceProgram.load(path, config.functional_fingerprint())
        _remember(path, file_id, program)
        return program
    except FileNotFoundError:
        if strict:
            raise TraceMismatchError(
                f"no recorded trace for workload {workload!r} at scale {scale} "
                f"(expected {path}); record one with `repro trace record "
                f"--workload {workload}`"
            ) from None
        return None
    except (TraceFormatError, TraceMismatchError):
        if strict:
            raise
        try:
            path.unlink()
        except OSError:
            pass
        return None
    except OSError:
        if strict:
            raise
        return None


def store_program(
    program: TraceProgram,
    workload: str,
    scale: float,
    config: GPUConfig,
    workload_kwargs: Optional[dict] = None,
) -> Optional[Path]:
    """Persist ``program`` and seed the in-process memo with it; returns
    the path, or ``None`` if nothing was written (disk cache disabled or
    unwritable — the memo still serves the program)."""
    path = trace_path(workload, scale, config, workload_kwargs)
    written = False
    if enabled():
        try:
            program.save(path)
            written = True
        except OSError:
            # A read-only or full filesystem must never break a simulation run.
            pass
    _remember(path, _file_id(path) if written else None, program)
    return path if written else None


def list_traces() -> List[Tuple[Path, Union[TraceInfo, TraceError]]]:
    """``(path, TraceInfo | TraceError)`` for every stored trace file,
    from the headers alone."""
    directory = trace_dir()
    entries: List[Tuple[Path, Union[TraceInfo, TraceError]]] = []
    if directory.is_dir():
        for path in sorted(directory.glob(f"*{TRACE_SUFFIX}")):
            try:
                entries.append((path, read_info(path)))
            except TraceError as exc:
                entries.append((path, exc))
    return entries


def forget() -> None:
    """Drop the in-process program memo; the stored files stay."""
    _PROGRAM_MEMO.clear()


def clear() -> int:
    """Delete every stored trace; returns the number of files removed."""
    forget()
    directory = trace_dir()
    removed = 0
    if directory.is_dir():
        for path in sorted(directory.glob(f"*{TRACE_SUFFIX}")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def stats() -> dict:
    """Entry count and byte total for the trace store."""
    directory = trace_dir()
    out = fslock.dir_stats(directory, f"*{TRACE_SUFFIX}")
    out["dir"] = str(directory)
    return out


def gc(
    max_age_seconds: Optional[float] = None,
    max_entries: Optional[int] = None,
    blocking: bool = True,
) -> int:
    """Lock-safe garbage collection of stale traces.

    Same contract as :func:`repro.experiments.result_cache.gc`: the
    enumerate-and-delete section holds the trace directory's advisory GC
    lock; writers stay lock-free because :meth:`TraceProgram.save` is
    already atomic (temp file + ``os.replace``) and a deleted trace is
    indistinguishable from a miss, which the runner answers by
    re-recording.
    """
    directory = trace_dir()
    if not directory.is_dir():
        return 0
    lock = fslock.lock_path(directory)
    if blocking:
        with fslock.locked(lock):
            return fslock.gc_entries(
                directory, f"*{TRACE_SUFFIX}", max_age_seconds, max_entries
            )
    with fslock.try_locked(lock) as acquired:
        if not acquired:
            return 0
        return fslock.gc_entries(
            directory, f"*{TRACE_SUFFIX}", max_age_seconds, max_entries
        )
