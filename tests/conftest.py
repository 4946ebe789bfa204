"""Shared fixtures and kernel-building helpers for the test suite."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro import GPU, GPUConfig, KernelBuilder
from repro.config import CacheConfig
from repro.isa.instructions import CmpOp, Special


def pytest_collection_modifyitems(items):
    """Auto-tag: every test not marked ``slow`` belongs to tier 1."""
    for item in items:
        if "slow" not in item.keywords:
            item.add_marker(pytest.mark.tier1)


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the persistent result cache at a per-test scratch directory.

    Unit tests must never read results written by earlier runs (or other
    test files) from the repo-level ``.repro_cache/``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))


@pytest.fixture
def config():
    """A small, fast configuration for unit tests."""
    return GPUConfig.default_sim()

@pytest.fixture
def tiny_config():
    """Single-SM configuration for deterministic pipeline tests."""
    return GPUConfig.default_sim(num_sms=1, num_schedulers_per_sm=1)


@pytest.fixture
def gpu(config):
    return GPU(config)


@pytest.fixture
def tiny_gpu(tiny_config):
    return GPU(tiny_config)


def build_copy_kernel(n: int, src_base: int, dst_base: int):
    """out[i] = in[i] for i < n."""
    b = KernelBuilder("copy")
    i = b.sreg(Special.GTID)
    p = b.pred()
    b.setp(p, CmpOp.LT, i, float(n))
    with b.if_then(p):
        x = b.ld(b.addr(i, base=src_base, scale=8))
        b.st(b.addr(i, base=dst_base, scale=8), x)
    return b.build()


def build_loop_sum_kernel(n: int, trips_base: int, out_base: int):
    """out[i] = sum_{j<trips[i]} j."""
    b = KernelBuilder("loop_sum")
    i = b.sreg(Special.GTID)
    p = b.pred()
    b.setp(p, CmpOp.LT, i, float(n))
    with b.if_then(p):
        limit = b.ld(b.addr(i, base=trips_base, scale=8))
        acc = b.const(0.0)
        j = b.const(0.0)
        done = b.pred()
        with b.loop() as lp:
            b.setp(done, CmpOp.GE, j, limit)
            lp.break_if(done)
            b.add(acc, acc, j)
            b.add(j, j, 1.0)
        b.st(b.addr(i, base=out_base, scale=8), acc)
    return b.build()


def split_sections(blob: bytes):
    """``(header dict, packed column bytes, crc bytes)`` of a v2 trace file."""
    end = blob.index(b"\n")
    return json.loads(blob[:end]), blob[end + 1:-4], blob[-4:]


def join_sections(header: dict, packed: bytes) -> bytes:
    """A v2 trace file with a correct checksum (header key order kept)."""
    body = json.dumps(header, separators=(",", ":")).encode() + b"\n" + packed
    return body + zlib.crc32(body).to_bytes(4, "big")


_RECORDED = {}


def record_once(workload, scale, config=None, **kwargs):
    """``(result, program)`` of ``record_workload``, recorded once per
    distinct request for the whole session: programs are read-only by
    contract (replay and subsampling never mutate streams), so tests that
    only read them share one recording."""
    from repro import trace as trace_mod

    config = config or GPUConfig.default_sim()
    key = (workload, scale, config, tuple(sorted(kwargs.items())))
    if key not in _RECORDED:
        _RECORDED[key] = trace_mod.record_workload(
            workload, scale=scale, config=config, **kwargs)
    return _RECORDED[key]
