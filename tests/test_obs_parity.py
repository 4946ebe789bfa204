"""Observability must never perturb timing — the subsystem's hard contract.

One grid, every mode: {rr, gto, caws, cawa, ccws} x {recorded
in place, replayed from the stored trace}, with the event bus on (plus
live collectors) and off.  Cycles, instruction counts, and cache counters
must be bit-identical, and the *event stream itself* must be identical
across the two paths (sorted canonically) — recording is part of the
bit-identity contract, not an exception to it.  The co-design scheme
ccws changes issue decisions on the L1's cache records, which may reach
it between its SM's ticks, so its replays also go under
:class:`~tests.oracles.SkipOracle`: the device loop must still skip only
idle cycles.

Also pins the stall-accounting identity on a real run (accounted
warp-cycles == warp lifetime) and the cache-bypass rule for recording runs.
"""

import pytest

from repro.config import GPUConfig
from repro.experiments import runner
from repro.obs import Ev, StallAccounting, bus_from_spec, record_events, sort_events
from repro.obs.events import LEVEL_L1D
from repro.stats.timeline import TimelineProfiler
from tests.oracles import SkipOracle, run_in_place

WORKLOAD = "bfs"
SCALE = 0.25
CONSUMERS = ("ccws",)
SCHEMES = ("rr", "gto", "caws", "cawa") + CONSUMERS
CACHE_KINDS = {int(k) for k in Ev if k.name.startswith("CACHE_")}


def record_in_place(scheme, collectors):
    """:func:`record_events`'s counterpart on :func:`run_in_place`."""
    bus = bus_from_spec("on")
    for collector in collectors:
        bus.attach(collector)
    return run_in_place(WORKLOAD, scheme, SCALE, GPUConfig.default_sim(),
                        bus=bus), bus


def assert_same_timing(a, b, what):
    assert a.cycles == b.cycles, what
    assert a.thread_instructions == b.thread_instructions, what
    assert a.warp_instructions == b.warp_instructions, what
    assert a.l1_stats.misses == b.l1_stats.misses, what
    assert a.l1_stats.hits == b.l1_stats.hits, what
    assert a.l2_stats.misses == b.l2_stats.misses, what
    assert a.dram_accesses == b.dram_accesses, what


@pytest.mark.parametrize("scheme", SCHEMES)
def test_parity_grid(scheme, monkeypatch):
    """events-on runs (both paths, collectors attached) == events-off
    baseline; event streams identical across the paths."""
    baseline = run_in_place(WORKLOAD, scheme, SCALE, GPUConfig.default_sim())
    assert baseline.frontend == "execute"

    streams = {}
    for frontend in ("execute", "trace"):
        collectors = (StallAccounting(), TimelineProfiler())
        if frontend == "execute":
            result, bus = record_in_place(scheme, collectors)
        else:
            if scheme in CONSUMERS:
                oracles = SkipOracle.on_every_launch(monkeypatch)
            result, bus = record_events(WORKLOAD, scheme, scale=SCALE,
                                        collectors=collectors)
        what = f"{scheme}/{frontend}"
        assert result.frontend == frontend, what
        assert_same_timing(result, baseline, what)
        assert bus.emitted > 0, what
        # A result does not depend on whether a bus was attached.
        assert result.extra == baseline.extra, what
        # Collectors saw the full stream.
        acct, profiler = collectors
        assert acct.issue_cycles() == result.warp_instructions, what
        assert len(profiler.timelines) > 0, what
        streams[frontend] = sort_events(bus.events())
        # The cache records carry the requesting SM at both levels, and
        # the L1 misses on record are the counters' misses.
        cache = [ev for ev in streams[frontend] if ev[0] in CACHE_KINDS]
        assert all(ev[2] >= 0 for ev in cache), what
        assert sum(1 for ev in cache if ev[0] == Ev.CACHE_MISS
                   and ev[3] == LEVEL_L1D) == result.l1_stats.misses, what

    # The event stream is part of the bit-identity contract: identical
    # across the paths once canonically sorted.
    assert streams["trace"] == streams["execute"], f"{scheme} event stream diverged"
    if scheme in CONSUMERS:
        assert sum(o.jumps for o in oracles) > 0


def test_stall_accounting_identity_on_real_run():
    """issue + stall buckets == warp lifetime + 1 (inclusive), per warp."""
    acct = StallAccounting()
    result, _ = record_events(WORKLOAD, "cawa", scale=SCALE, collectors=(acct,))
    per_warp = acct.per_warp()
    blocks = {b.block_id: b for b in result.blocks}
    assert per_warp
    for (sm, block_id, warp_id), row in per_warp.items():
        warp = next(w for w in blocks[block_id].warps
                    if w.warp_id_in_block == warp_id)
        accounted = sum(row.values())
        # Lifetime is finish - start; the accounting covers the inclusive
        # [start, finish] cycle range, hence the +1.
        assert accounted == warp.execution_time + 1, (sm, block_id, warp_id)
    # Finish events recorded for every accounted warp.
    assert set(acct.finishes) == set(per_warp)


def test_recording_runs_bypass_result_caches():
    """A recording simulates: a cached result could not carry its stream."""
    runner.clear_cache()
    result, bus = record_events(WORKLOAD, "rr", scale=SCALE)
    assert bus.emitted > 0
    assert runner._CACHE == {}
    # The same cell without a bus is cacheable, and its result is the
    # recording run's.
    off = runner.run_scheme(WORKLOAD, "rr", scale=SCALE)
    assert runner._CACHE
    assert off.extra == result.extra
    assert_same_timing(off, result, "rr")


def test_gpu_takes_a_bus_never_a_spec():
    """The GPU records on the bus it is handed, and builds none itself."""
    from repro import GPU

    bus = bus_from_spec("ring:256")
    gpu = GPU(GPUConfig.default_sim(), obs=bus)
    assert gpu.obs is bus and bus.ring.capacity == 256
    gpu_off = GPU(GPUConfig.default_sim())
    assert gpu_off.obs is None
    for sm in gpu_off.sms:
        assert sm.obs is None and sm.l1d.obs is None
