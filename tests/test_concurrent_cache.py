"""Multi-process hammer tests for the shared ``.repro_cache/`` stores.

The serve executor pool, parallel sweeps, and any number of independent
CLI invocations all share one cache directory.  These tests race real
processes — writers replacing entries, readers loading them, and a
garbage collector deleting them — against the result cache and the trace
store simultaneously, and assert the concurrency contract:

* a reader sees either a complete, valid entry or a clean miss — never a
  torn file, never an exception;
* writers never fail, even while GC is unlinking around them;
* concurrent GC runs never race each other (the advisory directory lock)
  and never break subsequent reads/writes.

The tier-1 variant keeps the process count and iteration budget small;
``-m slow`` runs the heavy version.
"""

import multiprocessing
import traceback

import pytest

from repro.experiments import result_cache
from repro.experiments.runner import run_scheme
from repro.stats.counters import RunResult
from repro.trace import store as trace_store
from repro.trace.format import TraceProgram

SCALE = 0.25


def _ctx():
    # Fork keeps worker start-up cheap and inherits the parent's
    # REPRO_CACHE_DIR isolation; it is always available on the POSIX
    # platforms these stores target (fslock degrades to no-op elsewhere).
    return multiprocessing.get_context("fork")


# ----------------------------------------------------------------------
# Worker bodies (top-level so they pickle under any start method)
# ----------------------------------------------------------------------
def _result_writer(cache_dir, seed, keys, rounds, errors):
    try:
        result_cache.set_cache_dir(cache_dir)
        entry = RunResult.from_dict(seed).to_dict()
        for i in range(rounds):
            result_cache.store(keys[i % len(keys)], entry)
    except Exception:
        errors.put("writer: " + traceback.format_exc())


def _result_reader(cache_dir, expected_cycles, keys, rounds, errors):
    try:
        result_cache.set_cache_dir(cache_dir)
        hits = 0
        for i in range(rounds):
            result = result_cache.load(keys[i % len(keys)])
            if result is not None:
                hits += 1
                if result.cycles != expected_cycles:
                    raise AssertionError(
                        f"torn read: cycles {result.cycles} != "
                        f"{expected_cycles}"
                    )
        errors.put(f"hits:{hits}")
    except Exception:
        errors.put("reader: " + traceback.format_exc())


def _result_gc(cache_dir, keep, rounds, errors):
    try:
        result_cache.set_cache_dir(cache_dir)
        for i in range(rounds):
            # Alternate blocking and non-blocking acquisition so both
            # paths race the other collector process.
            result_cache.gc(max_entries=keep, blocking=bool(i % 2))
    except Exception:
        errors.put("gc: " + traceback.format_exc())


def _trace_writer(cache_dir, fingerprint, names, rounds, errors):
    try:
        result_cache.set_cache_dir(cache_dir)
        program = TraceProgram(
            functional_fingerprint=fingerprint,
            workload="hammer", scale=SCALE,
        )
        directory = trace_store.trace_dir()
        for i in range(rounds):
            path = directory / f"{names[i % len(names)]}.trace"
            program.save(path)
    except Exception:
        errors.put("trace-writer: " + traceback.format_exc())


def _trace_reader(cache_dir, fingerprint, names, rounds, errors):
    from repro.errors import TraceError

    try:
        result_cache.set_cache_dir(cache_dir)
        directory = trace_store.trace_dir()
        hits = 0
        for i in range(rounds):
            path = directory / f"{names[i % len(names)]}.trace"
            try:
                program = TraceProgram.load(path, fingerprint)
            except FileNotFoundError:
                continue  # GC got there first: a clean miss
            except TraceError as exc:
                raise AssertionError(f"torn trace read: {exc}")
            hits += 1
            if program.workload != "hammer":
                raise AssertionError("trace content corrupted")
        errors.put(f"hits:{hits}")
    except Exception:
        errors.put("trace-reader: " + traceback.format_exc())


def _trace_gc(cache_dir, keep, rounds, errors):
    try:
        result_cache.set_cache_dir(cache_dir)
        for i in range(rounds):
            trace_store.gc(max_entries=keep, blocking=bool(i % 2))
    except Exception:
        errors.put("trace-gc: " + traceback.format_exc())


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _run_procs(procs, errors, expect_reports):
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=300)
    reports = []
    while not errors.empty():
        reports.append(errors.get_nowait())
    failures = [r for r in reports if not r.startswith("hits:")]
    assert not failures, "\n".join(failures)
    assert all(proc.exitcode == 0 for proc in procs)
    assert len(reports) == expect_reports


def _hammer(tmp_path, writers, readers, collectors, rounds):
    """Race writers/readers/GC over both stores in one process melee."""
    cache_dir = str(tmp_path / "hammer_cache")
    seed_result = run_scheme("synthetic_imbalance", "rr", scale=SCALE)
    seed = seed_result.to_dict()
    keys = [f"hammer-rr-{i:04d}" for i in range(8)]
    names = [f"hammer{i:04d}" for i in range(8)]
    fingerprint = "f" * 16
    keep = len(keys) // 2

    ctx = _ctx()
    errors = ctx.Queue()
    procs = []
    for _ in range(writers):
        procs.append(ctx.Process(target=_result_writer, args=(
            cache_dir, seed, keys, rounds, errors)))
        procs.append(ctx.Process(target=_trace_writer, args=(
            cache_dir, fingerprint, names, rounds, errors)))
    for _ in range(readers):
        procs.append(ctx.Process(target=_result_reader, args=(
            cache_dir, seed_result.cycles, keys, rounds, errors)))
        procs.append(ctx.Process(target=_trace_reader, args=(
            cache_dir, fingerprint, names, rounds, errors)))
    for _ in range(collectors):
        procs.append(ctx.Process(target=_result_gc, args=(
            cache_dir, keep, max(1, rounds // 4), errors)))
        procs.append(ctx.Process(target=_trace_gc, args=(
            cache_dir, keep, max(1, rounds // 4), errors)))

    _run_procs(procs, errors, expect_reports=2 * readers)

    # The melee settles into a consistent state: every surviving entry
    # loads cleanly and a final bounded GC leaves exactly `keep` files.
    result_cache.set_cache_dir(cache_dir)
    try:
        for key in keys:
            result = result_cache.load(key)
            assert result is None or result.cycles == seed_result.cycles
        result_cache.gc(max_entries=keep)
        trace_store.gc(max_entries=keep)
        assert result_cache.stats()["entries"] <= keep
        assert trace_store.stats()["entries"] <= keep
        result_cache.gc(max_entries=0)
        trace_store.gc(max_entries=0)
        assert result_cache.stats()["entries"] == 0
        assert trace_store.stats()["entries"] == 0
    finally:
        result_cache.set_cache_dir(None)


class TestConcurrentCacheHammer:
    def test_hammer_fast(self, tmp_path):
        _hammer(tmp_path, writers=1, readers=1, collectors=1, rounds=80)

    @pytest.mark.slow
    def test_hammer_heavy(self, tmp_path):
        _hammer(tmp_path, writers=3, readers=3, collectors=2, rounds=600)


class TestGcSemantics:
    """Single-process checks of the lock-safe GC contract."""

    def test_gc_respects_max_entries(self, tmp_path):
        result_cache.set_cache_dir(tmp_path / "c")
        try:
            entry = run_scheme("synthetic_imbalance", "rr", scale=SCALE).to_dict()
            for i in range(5):
                result_cache.store(f"k{i}", entry)
            removed = result_cache.gc(max_entries=2)
            assert removed == 3
            assert result_cache.stats()["entries"] == 2
        finally:
            result_cache.set_cache_dir(None)

    def test_gc_max_age(self, tmp_path):
        import os
        import time

        result_cache.set_cache_dir(tmp_path / "c")
        try:
            entry = run_scheme("synthetic_imbalance", "rr", scale=SCALE).to_dict()
            result_cache.store("old", entry)
            result_cache.store("new", entry)
            old_path = result_cache.cache_dir() / "old.json"
            past = time.time() - 3600
            os.utime(old_path, (past, past))
            removed = result_cache.gc(max_age_seconds=60)
            assert removed == 1
            assert result_cache.load("new") is not None
            assert result_cache.load("old") is None
        finally:
            result_cache.set_cache_dir(None)

    def test_nonblocking_gc_skips_when_locked(self, tmp_path):
        from repro import fslock

        result_cache.set_cache_dir(tmp_path / "c")
        try:
            entry = run_scheme("synthetic_imbalance", "rr", scale=SCALE).to_dict()
            for i in range(4):
                result_cache.store(f"k{i}", entry)
            lock = fslock.lock_path(result_cache.cache_dir())
            with fslock.locked(lock):
                # Another collector holds the lock: the non-blocking
                # path yields instead of deadlocking or double-deleting.
                assert result_cache.gc(max_entries=0, blocking=False) == 0
            assert result_cache.gc(max_entries=0, blocking=False) == 4
        finally:
            result_cache.set_cache_dir(None)

    def test_gc_on_missing_directory(self, tmp_path):
        result_cache.set_cache_dir(tmp_path / "nowhere")
        try:
            assert result_cache.gc(max_entries=0) == 0
            assert trace_store.gc(max_entries=0) == 0
        finally:
            result_cache.set_cache_dir(None)
