"""Unit tests for the time-skipping clock's building blocks.

Covers the :class:`~repro.gpu.clock.DeviceEventHeap` (duplicate times,
past-time pushes, parking), the stale-``now`` clamping in
the DRAM/L2 queue-delay accessors that skip boundaries exposed, and the
skip-run provenance counters on :class:`~repro.stats.counters.RunResult`.
The bit-identity guarantee itself lives in ``tests/test_skip_clock_parity.py``.
"""

import math

import pytest

from repro.config import CacheConfig, GPUConfig
from repro.errors import ConfigError
from repro.experiments.runner import run_scheme
from repro.gpu.clock import DeviceEventHeap
from repro.memory.dram import DRAMModel
from repro.memory.l2 import BankedL2


class TestDeviceEventHeap:
    def test_pop_due_returns_sources_in_id_order(self):
        heap = DeviceEventHeap(4)
        # Duplicate times on purpose: 3 and 1 collide at t=5.
        heap.schedule(3, 5.0)
        heap.schedule(0, 7.0)
        heap.schedule(1, 5.0)
        heap.schedule(2, 6.0)
        assert heap.next_time() == 5.0
        assert heap.pop_due(5.0) == [1, 3]
        assert heap.pop_due(6.5) == [2]
        assert heap.pop_due(100.0) == [0]
        assert heap.pop_due(1000.0) == []

    def test_reschedule_replaces_previous_entry(self):
        heap = DeviceEventHeap(2)
        heap.schedule(0, 5.0)
        heap.schedule(0, 9.0)  # supersedes the t=5 entry
        heap.schedule(1, 7.0)
        assert heap.pop_due(5.0) == []  # stale t=5 entry must not fire
        assert heap.next_time() == 7.0
        assert heap.pop_due(9.0) == [0, 1]

    def test_past_time_pushes_are_accepted_as_is(self):
        # The heap does not clamp: a push into the past is immediately due.
        heap = DeviceEventHeap(2)
        heap.schedule(0, 10.0)
        heap.schedule(1, 3.0)  # "past" relative to the device clock
        assert heap.next_time() == 3.0
        assert heap.pop_due(10.0) == [0, 1]

    def test_inf_parks_a_source(self):
        heap = DeviceEventHeap(2)
        heap.schedule(0, 4.0)
        heap.schedule(1, 2.0)
        heap.schedule(1, math.inf)  # park: no heap entry, stale one dies
        assert heap.next_time() == 4.0
        assert heap.pop_due(10.0) == [0]
        assert math.isinf(heap.next_time())

    def test_pop_due_parks_until_rescheduled(self):
        heap = DeviceEventHeap(1)
        heap.schedule(0, 1.0)
        assert heap.pop_due(1.0) == [0]
        assert math.isinf(heap.next_time())
        assert heap.pop_due(2.0) == []
        heap.schedule(0, 2.0)
        assert heap.pop_due(2.0) == [0]


class TestQueueDelayAtSkipBoundaries:
    """Satellite fix: queue stats must clamp against a jumped clock."""

    def test_dram_queue_delay_clamps_stale_now(self):
        dram = DRAMModel(latency=100, service_interval=4)
        dram.access(0.0)
        dram.access(0.0)  # backlog: channel free at t=8
        assert dram.queue_delay(2.0) == 6.0
        # Clock skipped past the backlog: delay is zero, never negative.
        assert dram.queue_delay(50.0) == 0.0

    def test_dram_queue_delay_estimate_reports_mean_wait(self):
        dram = DRAMModel(latency=100, service_interval=4)
        dram.access(0.0)  # waits 0
        dram.access(0.0)  # waits 4
        # Mean *queueing* wait, not mean service occupancy.
        assert dram.queue_delay_estimate() == 2.0
        # Probed mid-backlog, the live queue is a floor on the estimate.
        assert dram.queue_delay_estimate(now=0.0) == 8.0
        # Probed long after the burst drained, the mean stands.
        assert dram.queue_delay_estimate(now=100.0) == 2.0

    def test_dram_queue_delay_estimate_empty(self):
        dram = DRAMModel(latency=100, service_interval=4)
        assert dram.queue_delay_estimate() == 0.0
        assert dram.queue_delay_estimate(now=5.0) == 0.0

    def test_dram_next_event_time(self):
        dram = DRAMModel(latency=100, service_interval=4)
        assert math.isinf(dram.next_event_time(0.0))
        dram.access(10.0)  # channel busy until t=14
        assert dram.next_event_time(10.0) == 14.0
        assert math.isinf(dram.next_event_time(14.0))

    def _l2(self, num_banks=2):
        return BankedL2(CacheConfig(sets=4, ways=2), num_banks=num_banks,
                        latency=10, service_interval=4)

    def test_l2_bank_busy_cycles_clamps_per_bank(self):
        from repro.memory.request import MemRequest

        l2 = self._l2()
        # Two accesses to bank 0 (line 0), one to bank 1 (line 1).
        for line in (0, 0, 1):
            req = MemRequest(line_addr=line * 128, pc=0,
                             warp_key=(0, 0, 0), is_load=True,
                             is_critical=False, cycle=0.0)
            l2.access(req, 0.0)
        # bank0 free at 8, bank1 free at 4.
        assert l2.bank_busy_cycles(0.0) == 12.0
        # Clock jumped to t=6: bank1's stale backlog must not go negative.
        assert l2.bank_busy_cycles(6.0) == 2.0
        assert l2.bank_busy_cycles(100.0) == 0.0

    def test_l2_next_event_time(self):
        from repro.memory.request import MemRequest

        l2 = self._l2()
        assert math.isinf(l2.next_event_time(0.0))
        req = MemRequest(line_addr=0, pc=0, warp_key=(0, 0, 0),
                         is_load=True, is_critical=False, cycle=0.0)
        l2.access(req, 0.0)  # bank 0 busy until t=4
        assert l2.next_event_time(0.0) == 4.0
        assert math.isinf(l2.next_event_time(4.0))


class TestSkipRunProvenance:
    def test_skip_run_records_clock_and_skip_counters(self):
        cfg = GPUConfig.default_sim().with_clock("skip")
        result = run_scheme("synthetic_imbalance", "rr", scale=0.25,
                            config=cfg, use_cache=False, persistent=False)
        assert result.clock == "skip"
        # A memory-bound cell stalls; the skip clock must jump over those
        # idle cycles rather than visiting them.
        assert result.skip_jumps > 0
        assert result.cycles_skipped > 0

    def test_default_run_records_skip_clock(self):
        assert GPUConfig.default_sim().clock == "skip"
        result = run_scheme("synthetic_imbalance", "rr", scale=0.25,
                            config=GPUConfig.default_sim(),
                            use_cache=False, persistent=False)
        assert result.clock == "skip"

    def test_explicit_cycle_run_records_cycle_clock(self):
        cfg = GPUConfig.default_sim().with_clock("cycle")
        result = run_scheme("synthetic_imbalance", "rr", scale=0.25,
                            config=cfg, use_cache=False, persistent=False)
        assert result.clock == "cycle"

    def test_round_trip_preserves_skip_counters(self):
        from repro.stats.counters import RunResult

        cfg = GPUConfig.default_sim().with_clock("skip")
        result = run_scheme("synthetic_imbalance", "gto", scale=0.25,
                            config=cfg, use_cache=False, persistent=False)
        clone = RunResult.from_dict(result.to_dict())
        assert clone.clock == result.clock
        assert clone.cycles_skipped == result.cycles_skipped
        assert clone.skip_jumps == result.skip_jumps
        # Entries stored before the provenance field existed *were*
        # simulated by the cycle loop; the flipped default must not
        # relabel them.
        payload = result.to_dict()
        del payload["clock"]
        assert RunResult.from_dict(payload).clock == "cycle"


class TestTickEconomy:
    def test_needle_ticks_almost_only_to_issue(self):
        """Exact counts on the ledger's worst cell (needle x rr, narrow_figs).

        The skip loop reschedules an SM at the wake its own tick returned,
        and an MSHR-gated warp's wake is the cycle an entry really frees
        (over-subscription included), so few ticks issue nothing: 21,198
        ticks before ``MSHRFile.next_free_time`` counted the excess fills.
        """
        from repro.core.cawa import apply_scheme
        from repro.gpu import GPU
        from repro.workloads import make_workload

        gpu = GPU(apply_scheme(GPUConfig.default_sim(), "rr"))
        ticks = []
        for sm in gpu.sms:
            def counted(now, real=sm.tick_wake):
                outcome = real(now)
                ticks.append(outcome[0])
                return outcome

            sm.tick_wake = counted
        spec = make_workload("needle", scale=0.5, seed=1).build(gpu)
        result = gpu.launch(spec.kernel, spec.grid_dim, spec.block_dim, scheme="rr")
        assert result.cycles == 96_925
        assert sum(ticks) == 10_780          # ticks that issued
        assert len(ticks) <= 11_898


class TestConfigValidation:
    def test_unknown_clock_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig.default_sim(clock="warp")


def test_profile_component_mapping():
    from repro.experiments.profiling import _component_of

    assert _component_of("/x/src/repro/sm/sm.py") == "repro.sm"
    assert _component_of("/x/src/repro/memory/cache.py") == "repro.memory"
    assert _component_of("/usr/lib/python3.11/heapq.py") == "other"
