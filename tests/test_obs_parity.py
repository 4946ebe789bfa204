"""Observability must never perturb timing — the subsystem's hard contract.

One grid, every mode: {rr, gto, caws, cawa} x {execute, trace}, with the
event bus on (plus live collectors) and off.  Cycles, instruction counts,
and cache counters must be bit-identical, and the *event stream itself*
must be identical across frontends (sorted canonically) — recording is
part of the bit-identity contract, not an exception to it.

Also pins the stall-accounting identity on a real run (accounted
warp-cycles == warp lifetime) and the cache-bypass rule for recording runs.
"""

import pytest

from repro.config import GPUConfig
from repro.experiments import runner
from repro.obs import StallAccounting, record_events, sort_events
from repro.stats.timeline import TimelineProfiler

WORKLOAD = "bfs"
SCALE = 0.25
SCHEMES = ("rr", "gto", "caws", "cawa")


def run_off(scheme, config=None):
    return runner.run_scheme(
        WORKLOAD, scheme, scale=SCALE, config=config,
        use_cache=False, persistent=False,
    )


def assert_same_timing(a, b, what):
    assert a.cycles == b.cycles, what
    assert a.thread_instructions == b.thread_instructions, what
    assert a.warp_instructions == b.warp_instructions, what
    assert a.l1_stats.misses == b.l1_stats.misses, what
    assert a.l1_stats.hits == b.l1_stats.hits, what
    assert a.l2_stats.misses == b.l2_stats.misses, what
    assert a.dram_accesses == b.dram_accesses, what


@pytest.mark.parametrize("scheme", SCHEMES)
def test_parity_grid(scheme):
    """events-on runs (both frontends, collectors attached) == events-off
    baseline; event streams identical across frontends."""
    baseline = run_off(scheme, GPUConfig.default_sim().with_frontend("execute"))
    assert baseline.events == "off" and baseline.frontend == "execute"

    streams = {}
    for frontend in ("execute", "trace"):
        cfg = GPUConfig.default_sim().with_frontend(frontend)
        collectors = (StallAccounting(), TimelineProfiler())
        result, bus = record_events(
            WORKLOAD, scheme, scale=SCALE, config=cfg,
            collectors=collectors,
        )
        what = f"{scheme}/{frontend}"
        assert result.frontend == frontend, what
        assert_same_timing(result, baseline, what)
        assert result.extra["events_recorded"] == bus.emitted > 0, what
        # Collectors saw the full stream.
        acct, profiler = collectors
        assert acct.issue_cycles() == result.warp_instructions, what
        assert len(profiler.timelines) > 0, what
        streams[frontend] = sort_events(bus.events())

    # The event stream is part of the bit-identity contract: identical
    # across frontends once canonically sorted.
    assert streams["trace"] == streams["execute"], f"{scheme} event stream diverged"


def test_stall_accounting_identity_on_real_run():
    """issue + stall buckets == warp lifetime + 1 (inclusive), per warp."""
    result, bus = record_events(WORKLOAD, "cawa", scale=SCALE)
    acct = StallAccounting().extend(bus.events())
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
    """events != off is fingerprint-excluded, so it must never be cached."""
    runner.clear_cache()
    cfg = GPUConfig.default_sim().with_events("on")
    result = runner.run_scheme(WORKLOAD, "rr", scale=SCALE, config=cfg)
    assert result.events == "on"
    assert result.extra["events_recorded"] > 0
    assert runner._CACHE == {}
    # The same cell with events off is cacheable again.
    off = runner.run_scheme(WORKLOAD, "rr", scale=SCALE)
    assert off.events == "off"
    assert runner._CACHE


def test_auto_bus_from_config_spec():
    """GPU builds its own bus when config.events != 'off' and none is given."""
    from repro import GPU

    gpu = GPU(GPUConfig.default_sim().with_events("ring:256"))
    assert gpu.obs is not None and gpu.obs.ring.capacity == 256
    gpu_off = GPU(GPUConfig.default_sim())
    assert gpu_off.obs is None
    for sm in gpu_off.sms:
        assert sm.obs is None and sm.l1d.obs is None
