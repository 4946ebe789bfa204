"""Unit tests for the time-skipping device loop's building blocks.

Covers the device event heap as the skip loop keeps it (same-cycle order,
entries a dispatch replaces, past wakes, parking — asserted on the ticks
``GPU._run_skip_loop`` makes over scripted SMs, since the heap is one of
its locals), the stale-``now`` clamping in the DRAM/L2 queue-delay
accessors that skip boundaries exposed, and the skip counters on
:class:`~repro.stats.counters.RunResult`.  That skipped cycles were idle
is checked tick by tick in ``tests/test_skip_clock_parity.py``.
"""

import math

import pytest

from repro import GPU, KernelBuilder
from repro.config import CacheConfig, GPUConfig
from repro.errors import DeadlockError
from repro.experiments.runner import run_scheme
from repro.memory.dram import DRAMModel
from repro.memory.l2 import BankedL2


class ScriptedSM:
    """An SM as the skip loop sees it: it says when it is first due, logs
    every tick, and answers each tick with the wake it was scripted with.

    ``wakes`` maps the cycle of each expected tick to the wake that tick
    returns; a tick at any other cycle is a ``KeyError``, so a script also
    asserts *when* the loop ticks.  The SM is busy until its script runs
    out and reports a block commit then, and at every cycle in ``commits``.
    """

    def __init__(self, sm_id, first, wakes, log, commits=()):
        self.sm_id = sm_id
        #: What ``next_wake_time`` answers: at the launch's set-up, then
        #: once a dispatch gave the SM warps.
        self.wake = first
        self.wakes = dict(wakes)
        self.log = log
        self.commits = set(commits)
        self.busy = bool(self.wakes)
        self.on_commit = None
        self._next_dynamic_id = 0

    def next_wake_time(self, now):
        return self.wake

    def tick_wake(self, now):
        self.log.append((now, self.sm_id))
        wake = self.wakes.pop(now)
        if not self.wakes:
            self.busy = False
        if not self.wakes or now in self.commits:
            self.on_commit(self)
        return True, wake

    def detect_deadlock(self, now):
        pass


class NoBlocksLeft:
    exhausted = True


class OneDispatch:
    """A dispatcher with one block left: the first ``try_dispatch`` hands
    it to ``sm``, whose next wake then becomes ``wake``."""

    def __init__(self, sm, wake):
        self.sm, self.wake = sm, wake
        self.exhausted = False
        self.dispatched_at = None

    def try_dispatch(self, sms, now):
        self.exhausted = True
        self.dispatched_at = now
        self.sm._next_dynamic_id += 1
        self.sm.wake = self.wake


def run_skip_loop(sms, dispatcher=None, start=0.0):
    """``GPU._run_skip_loop`` over scripted SMs; returns ``(final cycle,
    clock jumps)``."""
    gpu = GPU(GPUConfig.default_sim(num_sms=len(sms)))
    gpu.sms = sms
    gpu._commit_pending = False
    gpu._launch_cycles_skipped = 0.0
    gpu._launch_skip_jumps = 0
    for sm in sms:
        sm.on_commit = gpu._note_commit
    cycle = gpu._run_skip_loop(dispatcher or NoBlocksLeft(), start)
    return cycle, gpu._launch_skip_jumps


class TestDeviceEventHeap:
    def test_pop_due_returns_sources_in_id_order(self):
        log = []
        # Duplicate times on purpose: 3 and 1 collide at t=5.
        sms = [ScriptedSM(0, 7.0, {7.0: math.inf}, log),
               ScriptedSM(1, 5.0, {5.0: math.inf}, log),
               ScriptedSM(2, 6.0, {6.0: math.inf}, log),
               ScriptedSM(3, 5.0, {5.0: math.inf}, log)]
        assert run_skip_loop(sms) == (7.0, 1)  # one jump: 0 -> 5
        assert log == [(5.0, 1), (5.0, 3), (6.0, 2), (7.0, 0)]

    def test_same_cycle_ticks_follow_sm_id_not_push_order(self):
        log = []
        # SM2 is rescheduled for t=9 first, SM0 last: push order 2, 1, 0.
        sms = [ScriptedSM(0, 3.0, {3.0: 9.0, 9.0: math.inf}, log),
               ScriptedSM(1, 2.0, {2.0: 9.0, 9.0: math.inf}, log),
               ScriptedSM(2, 1.0, {1.0: 9.0, 9.0: math.inf}, log)]
        run_skip_loop(sms)
        assert log[3:] == [(9.0, 0), (9.0, 1), (9.0, 2)]

    def test_reschedule_replaces_previous_entry(self):
        log = []
        # SM0's tick at t=5 leaves a live entry at t=50.  SM1 commits a
        # block at t=10; the dispatch hands SM0 warps that wake at t=12,
        # which replaces the t=50 entry: a tick at 50 is off-script.
        sm0 = ScriptedSM(0, 5.0, {5.0: 50.0, 12.0: 60.0, 60.0: math.inf}, log)
        sm1 = ScriptedSM(1, 10.0, {10.0: 70.0, 70.0: math.inf}, log, commits={10.0})
        dispatcher = OneDispatch(sm0, 12.0)
        # Five jumps: the replaced entry is not an event time either.
        assert run_skip_loop([sm0, sm1], dispatcher) == (70.0, 5)
        assert dispatcher.dispatched_at == 11.0
        assert log == [(5.0, 0), (10.0, 1), (12.0, 0), (60.0, 0), (70.0, 1)]

    def test_superseded_entry_is_skipped_among_due_ones(self):
        log = []
        # As above with the SMs swapped, and SM0 due at t=50 too: SM1's
        # replaced t=50 entry must not tick it beside SM0, mid-cycle.
        sm0 = ScriptedSM(0, 10.0, {10.0: 50.0, 50.0: 70.0, 70.0: math.inf}, log,
                         commits={10.0})
        sm1 = ScriptedSM(1, 5.0, {5.0: 50.0, 12.0: 60.0, 60.0: math.inf}, log)
        run_skip_loop([sm0, sm1], OneDispatch(sm1, 12.0))
        assert log == [(5.0, 1), (10.0, 0), (12.0, 1), (50.0, 0), (60.0, 1), (70.0, 0)]

    def test_past_time_pushes_are_accepted_as_is(self):
        # The loop accepts a wake in the past — no error, no lost SM, no
        # step back — and acts on it at the next cycle: this is how an
        # under-estimated wake becomes a re-tick.
        log = []
        sm0 = ScriptedSM(0, 3.0, {10.0: 3.0, 11.0: 11.0, 12.0: math.inf}, log)
        sm1 = ScriptedSM(1, 20.0, {20.0: math.inf}, log)
        # First due "before" the launch began: clamped to its start.
        run_skip_loop([sm0, sm1], start=10.0)
        assert log == [(10.0, 0), (11.0, 0), (12.0, 0), (20.0, 1)]

    def test_inf_parks_a_source(self):
        log = []
        sms = [ScriptedSM(0, 4.0, {4.0: 8.0, 8.0: math.inf}, log),
               ScriptedSM(1, 2.0, {2.0: math.inf}, log),   # parks itself
               ScriptedSM(2, math.inf, {}, log)]           # never due
        assert run_skip_loop(sms)[0] == 8.0
        assert log == [(2.0, 1), (4.0, 0), (8.0, 0)]

    def test_every_sm_parked_while_busy_is_a_deadlock(self):
        log = []
        # The script has a tick left that no wake ever leads to.
        sm = ScriptedSM(0, 1.0, {1.0: math.inf, 99.0: math.inf}, log)
        with pytest.raises(DeadlockError, match="no warp can make progress"):
            run_skip_loop([sm])
        assert log == [(1.0, 0)]

    def test_pop_due_parks_until_rescheduled(self):
        log = []
        # SM0 ticks once and parks (busy, nothing to wake it).  It is off
        # the heap until SM1's commit at t=5 dispatches it a block.
        sm0 = ScriptedSM(0, 1.0, {1.0: math.inf, 6.0: math.inf}, log)
        sm1 = ScriptedSM(1, 5.0, {5.0: 9.0, 9.0: math.inf}, log, commits={5.0})
        run_skip_loop([sm0, sm1], OneDispatch(sm0, 6.0))
        assert log == [(1.0, 0), (5.0, 1), (6.0, 0), (9.0, 1)]

    def test_three_sm_launch_ticks_same_cycle_sms_in_id_order(self):
        b = KernelBuilder("alu")
        x = b.const(0.0)
        for _ in range(6):
            b.add(x, x, 1.0)
        gpu = GPU(GPUConfig.default_sim(num_sms=3))
        log = []
        for sm in gpu.sms:
            def logged(now, real=sm.tick_wake, sm_id=sm.sm_id):
                log.append((now, sm_id))
                return real(now)

            sm.tick_wake = logged
        gpu.launch(b.build(), 6, 64)
        assert log == sorted(log)
        per_cycle = {}
        for now, sm_id in log:
            per_cycle.setdefault(now, []).append(sm_id)
        assert [0, 1, 2] in per_cycle.values()


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


class TestSkipRunProvenance:
    def test_default_run_records_skip_clock(self):
        result = run_scheme("synthetic_imbalance", "rr", scale=0.25,
                            config=GPUConfig.default_sim(),
                            use_cache=False, persistent=False)
        # A memory-bound cell stalls; the loop must jump over those idle
        # cycles rather than visiting them, and say how far it jumped.
        assert result.skip_jumps > 0
        assert result.cycles_skipped > 0

    def test_round_trip_preserves_skip_counters(self):
        from repro.stats.counters import RunResult

        result = run_scheme("synthetic_imbalance", "gto", scale=0.25,
                            config=GPUConfig.default_sim(),
                            use_cache=False, persistent=False)
        clone = RunResult.from_dict(result.to_dict())
        assert clone.cycles_skipped == result.cycles_skipped
        assert clone.skip_jumps == result.skip_jumps


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
        # There is one device loop: no clock is known, through the
        # factory's overrides either.
        with pytest.raises(TypeError, match="clock"):
            GPUConfig.default_sim(clock="warp")
