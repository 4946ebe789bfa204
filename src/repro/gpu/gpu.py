"""The GPU device: SMs, shared L2 + DRAM, dispatcher, and the run loop.

Timing always consumes a recorded stream.  A GPU handed ``trace=`` takes
each launch's streams from that :class:`~repro.trace.format.TraceProgram`;
one that was not runs the functional pass
(:func:`repro.trace.functional.record_launch`) for the launch against its
own ``memory`` and times what the pass recorded — so ``gpu.memory`` holds
the kernel's results either way, and neither the SMs nor the run loop ever
see a lane value.

One device loop, :meth:`GPU._run_skip_loop`, drives every launch: it ticks
an SM only when its next wake arrives and jumps the clock straight between
those events (its docstring says why per-SM wakes suffice).  It counts its
jumps: ``RunResult.skip_jumps`` is the number of clock advances larger than
one cycle and ``RunResult.cycles_skipped`` the total number of cycles those
advances never visited.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heapreplace
from typing import List, Optional

from ..config import GPUConfig
from ..core.cacp import CACPPolicy
from ..core.cpl import CriticalityPredictor
from ..errors import DeadlockError, LaunchError, TraceMismatchError
from ..memory.data import GlobalMemory
from ..memory.hierarchy import MemoryHierarchy
from ..memory.replacement import LRUPolicy
from ..scheduling.registry import make_scheduler
from ..sm.dispatcher import BlockDispatcher
from ..sm.sm import StreamingMultiprocessor
from ..stats.counters import (BlockSummary, RunResult, merge_cache_stats,
                              replace_stats, subtract_stats)


def check_launch(config: GPUConfig, kernel, grid_dim: int, block_dim: int) -> None:
    """Refuse a launch no SM of ``config`` could ever hold."""
    if grid_dim <= 0 or block_dim <= 0:
        raise LaunchError("grid_dim and block_dim must be positive")
    warps_per_block = (block_dim + config.warp_size - 1) // config.warp_size
    if warps_per_block > config.max_warps_per_sm:
        raise LaunchError(
            f"block of {block_dim} threads needs {warps_per_block} warps, "
            f"more than the SM limit of {config.max_warps_per_sm}"
        )
    if kernel.num_regs * block_dim > config.registers_per_sm:
        raise LaunchError(
            f"block needs {kernel.num_regs * block_dim} registers, more "
            f"than the SM's {config.registers_per_sm}"
        )


class GPU:
    """A simulated GPU devoted to one kernel launch at a time.

    Typical use::

        gpu = GPU(GPUConfig.default_sim().with_scheduler("gcaws"))
        base = gpu.memory.alloc_array(input_data)
        result = gpu.launch(kernel, grid_dim=8, block_dim=256)
        output = gpu.memory.read_array(base, len(input_data))
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        oracle: Optional[dict] = None,
        max_cycles: float = 5e7,
        trace=None,
        obs=None,
    ) -> None:
        self.config = config or GPUConfig.default_sim()
        self.memory = GlobalMemory()
        self.hierarchy = MemoryHierarchy(self.config)
        self.max_cycles = max_cycles
        self._oracle = oracle
        #: Device clock, persistent across launches: resource timestamps
        #: (DRAM/L2 queues, MSHR completions, scoreboards) are absolute, so
        #: a second launch must start where the first one ended.
        self.now: float = 0.0
        #: The :class:`~repro.trace.format.TraceProgram` this GPU replays
        #: and the index of the next launch to take from it.  A GPU handed
        #: ``trace=`` times that recording; one that was not records each
        #: launch in place (the experiment runner always hands one over:
        #: it owns the trace *store*).
        self.trace_program = trace
        self._trace_launch_idx = 0
        if trace is not None:
            # Refuse traces recorded under a different functional config
            # (warp size / L1 line size) before any simulation happens.
            trace.validate(self.config.functional_fingerprint())
        self.sms: List[StreamingMultiprocessor] = []
        for sm_id in range(self.config.num_sms):
            self.sms.append(
                StreamingMultiprocessor(
                    sm_id=sm_id,
                    config=self.config,
                    hierarchy=self.hierarchy,
                    scheduler_factory=self._scheduler_factory,
                    l1_policy_factory=self._l1_policy_factory,
                    cpl=CriticalityPredictor(self.config.cpl_update_period),
                )
            )
        #: Observability event bus (:mod:`repro.obs`), or ``None``: callers
        #: build one (:func:`~repro.obs.bus.bus_from_spec`) and attach
        #: collectors before launch.
        self.obs = obs
        if obs is not None:
            from ..obs.bus import wire_gpu

            wire_gpu(self, obs)

    # ------------------------------------------------------------------
    def _scheduler_factory(self):
        name = self.config.scheduler_name
        if name == "caws":
            return make_scheduler(name, oracle=self._oracle)
        return make_scheduler(name)

    def _l1_policy_factory(self):
        if self.config.use_cacp:
            critical_ways = self.config.l1d.critical_ways or self.config.l1d.ways // 2
            return CACPPolicy(
                critical_ways=critical_ways,
                total_ways=self.config.l1d.ways,
                mode=self.config.cacp_mode,
            )
        return LRUPolicy()

    # ------------------------------------------------------------------
    def _next_launch_trace(self, kernel, grid_dim: int, block_dim: int):
        """Pop and validate the trace for the next replayed launch."""
        from ..trace.format import kernel_fingerprint  # local: import cycle

        idx = self._trace_launch_idx
        launches = self.trace_program.launches
        if idx >= len(launches):
            raise TraceMismatchError(
                f"trace exhausted: launch #{idx} requested but only "
                f"{len(launches)} launch(es) were recorded"
            )
        launch = launches[idx]
        if (launch.grid_dim, launch.block_dim) != (grid_dim, block_dim):
            raise TraceMismatchError(
                f"launch #{idx} geometry mismatch: trace recorded grid="
                f"{launch.grid_dim} block={launch.block_dim}, run requested "
                f"grid={grid_dim} block={block_dim}"
            )
        if kernel is not launch.kernel and kernel_fingerprint(kernel) != launch.kernel_fp:
            raise TraceMismatchError(
                f"launch #{idx} kernel mismatch: the workload's kernel "
                f"{kernel.name!r} differs from the recorded one "
                f"({launch.kernel.name!r}); re-record the trace"
            )
        self._trace_launch_idx = idx + 1
        return launch

    # ------------------------------------------------------------------
    def launch(self, kernel, grid_dim: int, block_dim: int, scheme: str = "") -> RunResult:
        """Run ``kernel`` over ``grid_dim`` blocks of ``block_dim`` threads."""
        config = self.config
        check_launch(config, kernel, grid_dim, block_dim)
        if self.trace_program is not None:
            launch_trace = self._next_launch_trace(kernel, grid_dim, block_dim)
        else:
            # No recording was handed over: make this launch's in place.
            from ..trace.functional import record_launch  # local: import cycle

            # A launch that fits in ``max_cycles`` issues at most one warp
            # instruction per scheduler slot per cycle, and a functional
            # step issues at least one: a runaway kernel fails here, fast.
            slots = config.num_sms * config.num_schedulers_per_sm
            launch_trace, _ = record_launch(
                kernel, grid_dim, block_dim, self.memory, config.warp_size,
                config.l1d.line_size, max_steps=(self.max_cycles + 1) * slots,
            )

        dispatcher = BlockDispatcher(kernel, grid_dim, block_dim,
                                     config.warp_size, launch_trace)
        start_cycle = self.now
        snapshots = self._snapshot_stats()
        dispatcher.try_dispatch(self.sms, start_cycle)

        # Block commits are reported by the SMs via a callback flag, so the
        # loop never sums per-SM commit counters.
        self._commit_pending = False
        self._launch_cycles_skipped = 0.0
        self._launch_skip_jumps = 0
        for sm in self.sms:
            sm.on_commit = self._note_commit
        try:
            cycle = self._run_skip_loop(dispatcher, start_cycle)
        finally:
            for sm in self.sms:
                sm.on_commit = None

        self.now = cycle + 1
        return self._collect(kernel.name, scheme, cycle - start_cycle, snapshots)

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def _run_skip_loop(self, dispatcher: BlockDispatcher, start_cycle: float) -> float:
        """Tick each SM at its own next wake; returns the final cycle.

        The loop pops the earliest wake off a heap of per-SM wakes, ticks
        exactly the SMs due then — in ``sm_id`` order, the order their
        shared-L2/DRAM accesses are serialised in — reschedules each at the
        wake its tick returned, and jumps the clock straight to the next
        minimum.  Cycles on which no SM can issue are never visited.

        Per-SM wakes are a *sufficient* event set.  Every completion time
        is known the moment an instruction issues (scoreboard writes, MSHR
        fills, LSU walks), so an SM that is not due cannot change state:
        its warps' readiness is frozen until its own next issue, its MSHR
        drains on a precomputed schedule, and barrier releases and block
        commits happen only during one of its own issues.  Shared L2 bank
        and DRAM channel frees shape the *latency* of later accesses, never
        issue *eligibility*, and CAWA's CPL priority refreshes and CACP
        retunes are issue- and access-indexed, not cycle-indexed.  The one
        cross-SM waker is block dispatch after a commit, which refreshes
        the entry of every SM that received warps.  A wake may
        *under*-estimate: the SM ticks without issuing and is rescheduled
        one cycle later.  It must never *over*-estimate.
        ``tests/oracles.py::SkipOracle`` checks both halves of that claim
        on every tick — no warp of the SM could have issued since its last
        tick, and nothing but a dispatch changed the SM in between — and
        ``docs/timing_model.md`` ("Run loop") has the longer form.

        The heap is a local list holding exactly one ``(time, sm)`` entry
        per SM with a finite wake, and none for an SM whose wake is ``inf``
        (parked until a dispatch gives it warps).  A tick replaces its SM's
        entry with the next wake, or drops it; a dispatch rebuilds the
        entries of the SMs that received warps.  Entries order by
        ``(time, sm)`` — no two are equal — so SMs due on the same cycle
        pop, and tick, in ``sm_id`` order.
        """
        sms = self.sms
        # Bound once per launch, through the instance: whoever shadowed an
        # SM's ``tick_wake`` before the launch (ledger, oracle) is called.
        ticks = [sm.tick_wake for sm in sms]
        max_cycles = self.max_cycles
        inf = math.inf
        heap: list = []
        for slot, sm in enumerate(sms):
            wake = sm.next_wake_time(start_cycle)
            if wake != inf:
                heap.append((wake if wake > start_cycle else start_cycle, slot))
        heapify(heap)
        last = start_cycle - 1.0  # the latest tick's cycle
        while True:
            if not heap:
                # No SM can ever act again.  A completed launch breaks out
                # at commit time below, so this is a deadlock.
                for sm in sms:
                    sm.detect_deadlock(last + 1.0)
                raise DeadlockError("no warp can make progress")
            t = heap[0][0]
            if t - start_cycle > max_cycles:
                raise DeadlockError(
                    f"simulation exceeded {max_cycles:.0f} cycles; "
                    "likely a runaway kernel"
                )
            if t > last + 1.0:
                self._launch_skip_jumps += 1
                self._launch_cycles_skipped += t - last - 1.0
            while heap and heap[0][0] == t:
                slot = heap[0][1]
                # The tick reports the SM's next wake itself (what
                # next_wake_time would answer, without a second walk).
                wake = ticks[slot](t)[1]
                if wake != inf:
                    heapreplace(heap, (wake if wake > t else t + 1.0, slot))
                else:
                    heappop(heap)
            last = t
            if self._commit_pending:
                self._commit_pending = False
                if not dispatcher.exhausted:
                    # Dispatch is the one cross-SM wake source: newly
                    # resident warps are schedulable from t+1.  Only SMs
                    # that actually received warps can have gained an
                    # earlier wake, detected via the monotonically
                    # increasing per-SM dynamic-warp-id counter.
                    marks = [sm._next_dynamic_id for sm in sms]
                    dispatcher.try_dispatch(sms, t + 1.0)
                    fresh = {slot: sm.next_wake_time(t)
                             for slot, (sm, mark) in enumerate(zip(sms, marks))
                             if sm._next_dynamic_id != mark}
                    if fresh:
                        heap = [entry for entry in heap if entry[1] not in fresh]
                        heap += [(wake if wake > t else t + 1.0, slot)
                                 for slot, wake in fresh.items() if wake != inf]
                        heapify(heap)
                elif not any(sm.busy for sm in sms):
                    return last

    def _note_commit(self, _sm) -> None:
        self._commit_pending = True

    # ------------------------------------------------------------------
    def _snapshot_stats(self):
        """Capture cumulative counters so per-launch deltas can be reported."""
        return {
            "thread_instructions": sum(s.stats.thread_instructions for s in self.sms),
            "warp_instructions": sum(s.stats.warp_instructions for s in self.sms),
            "blocks": [len(s.completed_blocks) for s in self.sms],
            "l1": [replace_stats(s.l1d.stats) for s in self.sms],
            "l2": replace_stats(self.hierarchy.l2.stats),
            "dram": self.hierarchy.dram.accesses,
        }

    def _collect(self, kernel_name: str, scheme: str, cycles: float, snap) -> RunResult:
        """The launch's :class:`RunResult`: counter deltas, and a
        :class:`BlockSummary` of each block it committed, in id order."""
        blocks = [BlockSummary.from_block(block)
                  for sm, done_before in zip(self.sms, snap["blocks"])
                  for block in sm.completed_blocks[done_before:]]
        blocks.sort(key=lambda b: b.block_id)
        l1_now = merge_cache_stats([sm.l1d.stats for sm in self.sms])
        l1_before = merge_cache_stats(snap["l1"])
        program = self.trace_program
        return RunResult(
            kernel_name=kernel_name,
            scheme=scheme or self.config.scheduler_name,
            frontend="trace" if program is not None else "execute",
            trace_id=program.trace_id if program is not None else None,
            cycles=cycles,
            thread_instructions=(
                sum(sm.stats.thread_instructions for sm in self.sms)
                - snap["thread_instructions"]
            ),
            warp_instructions=(
                sum(sm.stats.warp_instructions for sm in self.sms)
                - snap["warp_instructions"]
            ),
            l1_stats=subtract_stats(l1_now, l1_before),
            l2_stats=subtract_stats(self.hierarchy.l2.stats, snap["l2"]),
            blocks=blocks,
            dram_accesses=self.hierarchy.dram.accesses - snap["dram"],
            warp_size=self.config.warp_size,
            cycles_skipped=self._launch_cycles_skipped,
            skip_jumps=self._launch_skip_jumps,
        )
