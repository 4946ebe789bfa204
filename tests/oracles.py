"""Brute-force references for the event-driven core and the device loop.

The device loop (:meth:`repro.gpu.gpu.GPU._run_skip_loop`) ticks an SM only
at the wake its previous tick reported, and an SM's tick hands its
schedulers lists it keeps incrementally.  Two oracles check those shortcuts
from scratch, each wrapping methods on the instances it is handed:

* :class:`SkipOracle` — *between* ticks: no warp of an SM could have
  issued in the cycles the loop skipped, and nothing but a dispatch changed
  the SM in the meantime;
* :class:`ReadySetOracle` — *within* a tick: every candidate list, ungated
  sub-list, heap entry and returned wake against a plain scan of
  ``sm.warps``.

Both re-derive readiness with :func:`readiness_from_scratch` and share no
state with the structures they check.  Four more keep eager bookkeeping
the model no longer does as a reference for what it derives:
:class:`CPLReferenceOracle` for the CPL counter,
:class:`StallReferenceOracle` for the stall sums,
:class:`SelectReferenceOracle` for every scheduler's pick, and
:class:`MSHRReferenceOracle` — the completion heap — for the MSHR file's
sorted in-flight list.

:func:`run_in_place` is the store-less reference for a whole cell: the
runner always replays a stored trace, and every parity test compares that
replay with a GPU that records each launch in place.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter

from repro import GPU
from repro.core.cacp import CACPPolicy
from repro.core.cawa import apply_scheme
from repro.experiments.runner import scheme_oracle
from repro.scheduling.two_level import FETCH_GROUP_SIZE
from repro.simt.warp import WarpStatus
from repro.workloads import make_workload


def run_in_place(workload, scheme, scale, config, *, check=True, bus=None,
                 **workload_kwargs):
    """One cell without the trace store: build the workload and launch it
    on a GPU handed no trace, which records each launch in place and times
    that recording.  What ``runner.simulate_cell``'s replay of the stored
    trace must equal; nothing here reads or writes the store."""
    cfg = apply_scheme(config, scheme)
    oracle = scheme_oracle(workload, scale, config, cfg, **workload_kwargs)
    gpu = GPU(cfg, oracle=oracle, obs=bus)
    wl = make_workload(workload, scale=scale, **workload_kwargs)
    result = wl.run(gpu, scheme=scheme, check=check)
    result.verified = check
    return result


def readiness_from_scratch(warp):
    """``(wake, needs_mem)`` of ``warp``'s next instruction, re-derived
    from its scoreboard, cursor and last issue — the reference for the pair
    the SM stores at issue (``warp.ready_at`` / ``warp._needs_mem``) and
    every heap pop trusts.  A plain ``max`` over the operands' scoreboard
    entries; the issue path walks them inline, tracking load provenance."""
    d = warp.block.kernel.instructions[warp.pc].decoded
    pending = [warp.reg_ready[src] for src in d.srcs]
    if d.dst is not None:
        pending.append((warp.pred_ready if d.pred_is_dst else warp.reg_ready)[d.dst])
    if d.pred is not None:
        pending.append(warp.pred_ready[d.pred])
    floor = (warp.last_issue_cycle + 1 if warp.issued_instructions
             else warp.start_cycle)
    return max([floor, *pending]), d.needs_global_mem


def mshr_free_time(mshr, now):
    """Smallest ``t >= now`` at which ``mshr`` has a free entry, from its
    in-flight fills alone: a fill occupies its entry until its completion
    cycle.  Reads no query method — those retire fills and memoise."""
    live = sorted(done for done in mshr._inflight.values() if done > now)
    excess = len(live) - mshr._entries
    return now if excess < 0 else live[excess]


def sm_state(sm):
    """What a tick of ``sm`` may change and nothing between its ticks may:
    per warp its status, cursor, stored wake and scoreboard lists; the
    MSHR's fills; the CPL's block thresholds and the blocks' issue counts
    (a freshly dispatched block has none); the CACP policy's tune counters;
    the warp each scheduler slot issued last."""
    cpl = sm.cpl
    policy = sm.l1d.policy
    return {
        "warps": {w.dynamic_id: (w.status, w.issued_instructions, w.ready_at,
                                 tuple(w.reg_ready), tuple(w.reg_from_load),
                                 tuple(w.pred_ready))
                  for w in sm.warps},
        "mshr": dict(sm.mshr._inflight),
        "cpl": (dict(cpl._block_threshold),
                {b.block_id: b.cpl_issues for b in sm.blocks if b.cpl_issues}),
        "cacp": ((policy.critical_ways, tuple(policy._partition_hits),
                  policy._accesses_since_tune)
                 if isinstance(policy, CACPPolicy) else None),
        "next_dynamic_id": sm._next_dynamic_id,
        "last": tuple(None if s.last is None else s.last.dynamic_id
                      for s in sm.schedulers),
    }


class _LaunchOracle:
    """An oracle built per ``GPU`` instance, before its first launch."""

    def __init__(self, gpu):
        self.gpu = gpu

    @classmethod
    def on_every_launch(cls, monkeypatch):
        """Check every GPU that launches while ``monkeypatch`` is active;
        returns the list the oracles are appended to."""
        oracles = []
        real = GPU._run_skip_loop

        def run(gpu, dispatcher, start_cycle):
            if not any(oracle.gpu is gpu for oracle in oracles):
                oracles.append(cls(gpu))
            return real(gpu, dispatcher, start_cycle)

        monkeypatch.setattr(GPU, "_run_skip_loop", run)
        return oracles


class SkipOracle(_LaunchOracle):
    """Brute-force check that the device loop's skipped cycles were idle.

    Wraps every SM's ``tick_wake`` on the instance, before launch (the loop
    binds it through the instance once per launch).  On each tick of SM
    ``s`` at cycle ``t`` it checks the gap since ``s``'s previous tick
    ``p`` with two from-scratch assertions:

    * **missed issue** — no RUNNING warp of ``s`` could have issued at any
      cycle in ``(p, t)``.  A warp's earliest issue is its scoreboard wake
      (:func:`readiness_from_scratch`, whose floor is the cycle after its
      last issue or its dispatch ``start_cycle``), no earlier than
      ``p + 1``, and — when its next instruction needs an MSHR — no earlier
      than the first cycle an entry is free (:func:`mshr_free_time`).
      Throttling and arbitration only make a warp issue *later*, so this
      bound is safe: the loop may tick an SM early (an under-estimated
      wake), never late.
    * **frozen state** — :func:`sm_state` of ``s`` is what its previous
      tick left, except for a dispatch onto ``s``, which may only add
      warps.  MSHR fills that completed by ``t`` are not compared: a
      dispatch refresh may retire them, which changes nothing observable.

    Together the two are the sufficiency argument of the skip loop, made
    executable: a tick that finds nothing missed and nothing moved is one
    a per-cycle loop could not have told apart.
    """

    def __init__(self, gpu):
        super().__init__(gpu)
        self.ticks = 0
        #: Ticks that followed a gap of more than one cycle on their SM.
        self.jumps = 0
        #: Warps whose earliest issue was re-derived, over all checks.
        self.warps_checked = 0
        #: Ticks that found warps dispatched onto their SM since its
        #: previous tick.
        self.dispatches = 0
        #: ``sm_id -> (cycle, sm_state)`` as the SM's last tick left it.
        self._last = {}
        for sm in gpu.sms:
            sm.tick_wake = self._checked(sm, sm.tick_wake)

    def _checked(self, sm, real_tick_wake):
        def tick_wake(now):
            last = self._last.get(sm.sm_id)
            previous = -math.inf if last is None else last[0]
            self._check_no_missed_issue(sm, previous, now)
            if last is not None:
                self._check_frozen(sm, last, now)
                if now > previous + 1.0:
                    self.jumps += 1
            outcome = real_tick_wake(now)
            self._last[sm.sm_id] = (now, sm_state(sm))
            self.ticks += 1
            return outcome

        return tick_wake

    def _check_no_missed_issue(self, sm, previous, now):
        for warp in sm.warps:
            if warp.status is not WarpStatus.RUNNING:
                continue
            wake, needs_mem = readiness_from_scratch(warp)
            if wake < previous + 1.0:
                wake = previous + 1.0
            if needs_mem:
                wake = mshr_free_time(sm.mshr, wake)
            self.warps_checked += 1
            assert wake >= now, (
                f"missed issue: SM{sm.sm_id} ticked at {previous} and then "
                f"{now}, but warp {warp.dynamic_id} (block "
                f"{warp.block.block_id}, warp {warp.warp_id_in_block}) could "
                f"issue at {wake}"
            )

    def _check_frozen(self, sm, last, now):
        previous, before = last
        after = sm_state(sm)
        dispatched = {dyn for dyn in after["warps"]
                      if dyn >= before["next_dynamic_id"]}
        self.dispatches += bool(dispatched)
        where = f"frozen state: SM{sm.sm_id} between its ticks at {previous} and {now}"
        assert set(before["warps"]) == set(after["warps"]) - dispatched, (
            f"{where}: resident warps changed beyond a dispatch of {sorted(dispatched)}"
        )
        for dyn, state in before["warps"].items():
            assert after["warps"][dyn] == state, f"{where}: warp {dyn} changed"
        live_before = {line: done for line, done in before["mshr"].items() if done > now}
        live_after = {line: done for line, done in after["mshr"].items() if done > now}
        assert live_before == live_after, f"{where}: MSHR fills changed"
        assert before["cpl"] == after["cpl"], f"{where}: CPL state changed"
        assert before["cacp"] == after["cacp"], f"{where}: CACP tune counters changed"


def tick_every_cycle(gpu):
    """Make the device loop tick every SM of ``gpu`` on each cycle it has a
    finite wake: each tick reports a wake no later than the next cycle —
    the most an under-estimate can be.  Extra ticks must change nothing."""
    for sm in gpu.sms:
        def tick_wake(now, real=sm.tick_wake):
            issued, wake = real(now)
            return issued, wake if wake == math.inf else min(wake, now + 1.0)

        sm.tick_wake = tick_wake


class ReadySetOracle:
    """Brute-force reference for the candidate lists ``tick_wake`` hands out.

    Wraps every scheduler's ``select`` on one SM and asserts, on every
    call, that ``ready`` equals the list derived from scratch: RUNNING
    warps of that slot whose :func:`readiness_from_scratch` wake has
    passed, minus those the full-MSHR gate holds back, in
    dispatch order — strictly ascending ``dynamic_id``, and still the same
    list when ``select`` returns (the contract that lets the SM hand over
    its own pool).  Every candidate's stored readiness must equal the
    from-scratch one.  A slot the tick passes over without calling
    ``select`` must have an empty list: nothing changes between a skipped
    slot's turn and the next ``select`` call (or the end of the tick), so
    that is where skipped slots are checked.  At every ``select`` and at the
    end of every tick each slot's ungated sub-list must be its pool minus
    the warps whose next instruction needs an MSHR, in pool order, every
    pooled warp must be RUNNING, unqueued and ready by the next tick, and
    every wake-heap entry must carry its warp's stored wake time — or, for
    a warp whose next instruction needs an MSHR, lie between that time and
    the first cycle from it on at which the file, as it stands, has a free
    entry (asleep until an entry frees, never later).  At the end of
    every tick the wake ``tick_wake`` returned must equal
    ``next_wake_time(now)`` — both clamped: never before ``now`` — and must
    not lie past the earliest from-scratch wake of any RUNNING warp.
    """

    def __init__(self, sm):
        self.sm = sm
        self.select_calls = 0
        self.ticks = 0
        # Candidates held back over all checks for want of a free MSHR.
        self.gated_full = 0
        self._next_slot = 0
        for slot, scheduler in enumerate(sm.schedulers):
            scheduler.select = self._checked_select(slot, scheduler.select)
        real_tick_wake = sm.tick_wake

        def tick_wake(now):
            self._next_slot = 0
            issued, wake = real_tick_wake(now)
            self._expect_skipped(len(sm.schedulers), now)
            self._check_structures(now)
            assert wake >= now, f"cycle {now}: wake {wake} lies in the past"
            assert wake == sm.next_wake_time(now), (
                f"cycle {now}: tick_wake returned wake {wake}, a from-scratch "
                f"next_wake_time gives {sm.next_wake_time(now)}"
            )
            assert wake <= self.earliest_wake(now), (
                f"cycle {now}: tick_wake returned wake {wake}, but a warp "
                f"can issue at {self.earliest_wake(now)}"
            )
            self.ticks += 1
            return issued, wake

        sm.tick_wake = tick_wake

    def earliest_wake(self, now):
        """Earliest cycle >= ``now`` some RUNNING warp could issue, from
        scratch: a wake the SM reports may be early, never later."""
        sm = self.sm
        earliest = float("inf")
        for warp in sm.warps:
            if warp.status is WarpStatus.RUNNING:
                wake, needs_mem = readiness_from_scratch(warp)
                wake = max(wake, now)
                if needs_mem:
                    wake = max(wake, sm.mshr.next_free_time(now))
                earliest = min(earliest, wake)
        return earliest

    def expected(self, slot, now):
        sm = self.sm
        num_slots = len(sm.schedulers)
        full = mshr_free_time(sm.mshr, now) > now
        ready = []
        for warp in sm.warps:
            if warp.status is not WarpStatus.RUNNING:
                continue
            if warp.dynamic_id % num_slots != slot:
                continue
            wake, needs_mem = readiness_from_scratch(warp)
            if wake > now:
                continue
            if needs_mem and full:
                self.gated_full += 1
                continue
            ready.append(warp)
        ready.sort(key=lambda w: w.dynamic_id)
        return ready

    def _check_structures(self, now):
        """The ungated sub-lists and heap entries, against their definitions."""
        sm = self.sm
        for slot, (pool, ungated) in enumerate(zip(sm._ready_pools, sm._ungated_pools)):
            assert ungated == [w for w in pool if not w._needs_mem], (
                f"cycle {now}: slot {slot}'s ungated sub-list diverged from its pool"
            )
            for warp in pool:
                assert (warp.status is WarpStatus.RUNNING and not warp._queued
                        and warp.ready_at <= now + 1.0), (
                    f"cycle {now}: pooled warp {warp.dynamic_id} is not ready "
                    f"by the next tick (ready at {warp.ready_at}, "
                    f"{warp.status.value}, queued={warp._queued})"
                )
        for heap in sm._wake_heaps:
            for wake, _, warp in heap:
                if warp.status is not WarpStatus.RUNNING:
                    continue
                if not warp._needs_mem:
                    assert wake == warp.ready_at, (
                        f"cycle {now}: warp {warp.dynamic_id} is queued for "
                        f"{wake} but ready at {warp.ready_at}"
                    )
                    continue
                # Gated: asleep until an MSHR frees, never past the first
                # cycle from ready_at on that the file has a free entry.
                free = mshr_free_time(sm.mshr, warp.ready_at)
                assert warp.ready_at <= wake <= free, (
                    f"cycle {now}: warp {warp.dynamic_id}, needing an MSHR, "
                    f"is queued for {wake} but ready at {warp.ready_at} and "
                    f"an entry is free at {free}"
                )

    def _expect_skipped(self, upto, now):
        """Slots ``[_next_slot, upto)`` got no ``select`` call this tick."""
        for slot in range(self._next_slot, upto):
            missed = self.expected(slot, now)
            assert not missed, (
                f"cycle {now}: slot {slot} was passed over with ready warps "
                f"{[w.dynamic_id for w in missed]}"
            )

    def _checked_select(self, slot, real_select):
        def select(ready, now):
            self._expect_skipped(slot, now)
            self._check_structures(now)
            self._next_slot = slot + 1
            want = self.expected(slot, now)
            ids = [w.dynamic_id for w in ready]
            assert ids == [w.dynamic_id for w in want], (
                f"cycle {now}: slot {slot} candidate list diverged"
            )
            assert ready, "select is never called with an empty list"
            assert all(a < b for a, b in zip(ids, ids[1:])), (
                f"cycle {now}: slot {slot} candidates out of dispatch order"
            )
            for warp in ready:
                stored = (warp.ready_at, warp._needs_mem)
                assert stored == readiness_from_scratch(warp), (
                    f"cycle {now}: warp {warp.dynamic_id} carries a stale "
                    f"readiness {stored}"
                )
            self.select_calls += 1
            before = list(ready)
            chosen = real_select(ready, now)
            assert ready == before, (
                f"cycle {now}: slot {slot}'s scheduler mutated its candidates"
            )
            return chosen

        return select


def set_cpl_inputs(warp, *, idx=0, elapsed=0.0, disparity=0.0, stall=0.0):
    """Give ``warp`` the Eq. 1 inputs of a latest issue: its index ``idx``
    (CPI's instruction count), ``elapsed`` cycles from dispatch to the issue
    before it, an nInst of ``disparity`` and ``stall`` data-stall cycles."""
    warp._cpl_idx = idx
    warp._cpl_prev_issue = warp.start_cycle + elapsed
    warp._cpl_due = disparity + idx
    warp.data_stall_cycles = stall
    warp._criticality = None


def set_criticality(warp, value):
    """Give ``warp`` the Eq. 1 inputs of a counter equal to ``value``."""
    set_cpl_inputs(warp, stall=value)


def eager_cpi(issued, elapsed):
    """Eq. 1's CPI_avg as the per-issue update computed it."""
    if issued <= 0:
        return 1.0
    cpi = (elapsed if elapsed >= 1.0 else 1.0) / issued
    return cpi if cpi > 1.0 else 1.0


class CPLReferenceOracle(_LaunchOracle):
    """The eager per-issue CPL update, kept as a reference for the counter
    the warp derives when read.

    Wraps each SM's ``_issue`` and its predictor's ``on_branch`` and
    ``refresh_block`` on the instances, before launch.  Before every issue
    it applies the update CPL once ran there — decrement ``nInst`` (never
    below zero), add the issue's data stall to ``nStall``, recompute Eq. 1
    from the pre-issue cursor and last issue cycle — and counts the block's
    issues.  After every branch it adds Algorithm 2's path length.  On
    every branch and every block refresh it asserts that
    ``cpl_inst_disparity``, ``cpl_stall`` and ``criticality`` of each warp
    involved are bit-equal to the reference; after every issue, that a
    refresh happened exactly when the block's issue count reached a
    multiple of ``update_period``.
    """

    def __init__(self, gpu):
        super().__init__(gpu)
        self.issues = 0
        self.branches = 0
        self.refreshes = 0
        #: Warp counters compared, over all checks.
        self.warps_checked = 0
        #: ``warp -> [nInst, nStall, criticality, cpi]`` of the reference.
        self._ref = {}
        self._block_issues = {}
        self._refresh_due = None
        for sm in gpu.sms:
            cpl = sm.cpl
            sm._issue = self._checked_issue(cpl, sm._issue)
            cpl.on_branch = self._checked_branch(cpl.on_branch)
            cpl.refresh_block = self._checked_refresh(cpl.refresh_block)

    def reference(self, warp):
        return self._ref.setdefault(warp, [0.0, 0.0, 0.0, 1.0])

    def check(self, warp, where):
        disparity, stall, criticality, _ = self.reference(warp)
        for name, derived, eager in (
                ("cpl_inst_disparity", warp.cpl_inst_disparity, disparity),
                ("cpl_stall", warp.cpl_stall, stall),
                ("criticality", warp.criticality, criticality)):
            assert derived == eager, (
                f"{name} of warp {warp.dynamic_id} (block "
                f"{warp.block.block_id}) {where}: derived {derived!r}, eager "
                f"reference {eager!r}"
            )
        self.warps_checked += 1

    def check_all(self):
        """Every warp the GPU ever held, against the reference."""
        for sm in self.gpu.sms:
            if sm.cpl is not None:
                for block in [*sm.completed_blocks, *sm.blocks]:
                    for warp in block.warps:
                        self.check(warp, "at the end")

    def _checked_issue(self, cpl, real_issue):
        def issue(warp, scheduler, now):
            idx = warp.issued_instructions
            base = warp.last_issue_cycle + 1 if idx else warp.start_cycle
            data_stall = max(0.0, min(now, warp._opready) - base)
            ref = self.reference(warp)
            if ref[0] > 0:
                ref[0] -= 1
            if data_stall > 0.0:
                ref[1] += data_stall
            ref[3] = eager_cpi(idx, warp.last_issue_cycle - warp.start_cycle)
            ref[2] = ref[0] * ref[3] + ref[1]
            block = warp.block
            count = self._block_issues.get(block, 0) + 1
            self._block_issues[block] = count
            if count % cpl.update_period == 0:
                self._refresh_due = block
            outcome = real_issue(warp, scheduler, now)
            assert self._refresh_due is None, (
                f"refresh cadence: block {block.block_id} reached {count} "
                f"issues at cycle {now} without a refresh"
            )
            self.issues += 1
            return outcome

        return issue

    def _checked_branch(self, real_on_branch):
        def on_branch(warp, inst, diverged, all_taken, now=0.0):
            real_on_branch(warp, inst, diverged=diverged, all_taken=all_taken, now=now)
            if inst.pred is None or inst.reconv_pc < 0:
                return
            fallthrough = max(0, inst.target_pc - inst.pc - 1)
            taken = max(0, inst.reconv_pc - inst.target_pc)
            ref = self.reference(warp)
            ref[0] += (fallthrough + taken if diverged
                       else taken if all_taken else fallthrough)
            ref[2] = ref[0] * ref[3] + ref[1]
            self.branches += 1
            self.check(warp, f"after the branch at pc={inst.pc}, cycle {now}")

        return on_branch

    def _checked_refresh(self, real_refresh):
        def refresh_block(block):
            for warp in block.warps:
                if not warp.finished:
                    self.check(warp, f"at a refresh of block {block.block_id}")
            if self._refresh_due is block:
                self._refresh_due = None
            self.refreshes += 1
            return real_refresh(block)

        return refresh_block


class StallReferenceOracle(_LaunchOracle):
    """The eager per-issue stall sums, kept as a reference for the ones the
    warp derives.

    Wraps each SM's ``_issue`` on the instance, before launch.  Before every
    issue it adds what the issue path once added to three per-warp sums —
    the gap since the cycle after the previous issue (since dispatch, for
    the first), the part of it past the operands' ready cycle (scheduler
    stall) and, when a load produced the latest operand, the part before it
    (memory stall), each clamped at zero.  After every issue it asserts that
    the warp's ``total_stall_cycles``, ``sched_stall_cycles`` and
    ``mem_stall_cycles`` are bit-equal to them.
    """

    NAMES = ("total_stall_cycles", "sched_stall_cycles", "mem_stall_cycles")

    def __init__(self, gpu):
        super().__init__(gpu)
        self.issues = 0
        #: ``warp -> [total, sched, mem]`` of the reference.
        self._ref = {}
        for sm in gpu.sms:
            sm._issue = self._checked_issue(sm._issue)

    def _checked_issue(self, real_issue):
        def issue(warp, scheduler, now):
            base = (warp.last_issue_cycle + 1 if warp.issued_instructions
                    else warp.start_cycle)
            ready = warp._opready
            ref = self._ref.setdefault(warp, [0.0, 0.0, 0.0])
            ref[0] += max(0.0, now - base)
            ref[1] += max(0.0, now - max(ready, base))
            if warp._by_load:
                ref[2] += max(0.0, min(now, ready) - base)
            outcome = real_issue(warp, scheduler, now)
            for name, eager in zip(self.NAMES, ref):
                derived = getattr(warp, name)
                assert derived == eager, (
                    f"{name} of warp {warp.dynamic_id} (block "
                    f"{warp.block.block_id}) after its issue at cycle {now}: "
                    f"derived {derived!r}, eager reference {eager!r}"
                )
            self.issues += 1
            return outcome

        return issue


# ----------------------------------------------------------------------
# select() against the bookkeeping the schedulers once kept
# ----------------------------------------------------------------------
class SelectBook:
    """What each scheduler slot stored eagerly before it derived it from
    ``WarpScheduler.last``: the greedy target (set by every pick, cleared
    when its warp exits), the round-robin pointer, and two-level's active
    group (set by every pick, rotated inside ``select``)."""

    def __init__(self):
        self.target = None
        self.last_id = -1
        self.group = 0

    def issued(self, warp):
        self.target = warp
        self.last_id = warp.dynamic_id
        self.group = warp.dynamic_id // FETCH_GROUP_SIZE

    def finished(self, warp):
        if self.target is warp:
            self.target = None


def _dyn(warp):
    return warp.dynamic_id


def _oldest(ready):
    return min(ready, key=_dyn)


def _round_robin(book, pool):
    after = [w for w in pool if w.dynamic_id > book.last_id]
    return min(after if after else pool, key=_dyn)


def _greedy_then(book, ready, fallback):
    if book.target is not None and book.target in ready:
        return book.target
    return fallback(ready)


def _ref_two_level(s, book, ready, now):
    def group(warp):
        return warp.dynamic_id // FETCH_GROUP_SIZE

    in_active = [w for w in ready if group(w) == book.group]
    if not in_active:
        book.group = group(_oldest(ready))
        in_active = [w for w in ready if group(w) == book.group]
    return _round_robin(book, in_active)


#: Every registered scheduler's ``select`` as it was written before it
#: derived its order from ``last``: explicit ``min`` / ``max`` with keys over
#: a :class:`SelectBook`, no ``ready[0]``.  ``reference(scheduler, book,
#: ready, now)`` reads only scheme scores off the scheduler (``_bucket``,
#: ``_criticality``); call it after the real ``select`` at the same ``now``.
SELECT_REFERENCE = {
    "lrr": lambda s, book, ready, now: _round_robin(book, ready),
    "gto": lambda s, book, ready, now: _greedy_then(book, ready, _oldest),
    "two_level": _ref_two_level,
    "caws": lambda s, book, ready, now: max(
        ready, key=lambda w: (s._criticality(w), -w.dynamic_id)),
    "gcaws": lambda s, book, ready, now: _greedy_then(book, ready, lambda r: max(
        r, key=lambda w: (s._bucket(w), -w.dynamic_id))),
}
SELECT_REFERENCE["rr"] = SELECT_REFERENCE["lrr"]
SELECT_REFERENCE["2lev"] = SELECT_REFERENCE["two_level"]


class SelectReferenceOracle(_LaunchOracle):
    """The schedulers' eager bookkeeping, kept as a reference for the
    order they derive from the slot's last issue.

    Wraps every scheduler's ``select`` and each SM's ``_finish_warp`` on
    the instances, before launch, and gives each slot a
    :class:`SelectBook`.  After every real ``select`` it asserts that the
    scheme's :data:`SELECT_REFERENCE` formulation over the book picks the
    very same warp, then books the pick as issued — the SM issues every
    warp ``select`` returns.  A warp's exit clears its slot's greedy
    target, as the schedulers once did.
    """

    def __init__(self, gpu):
        super().__init__(gpu)
        self.selects = 0
        for sm in gpu.sms:
            books = []
            for slot, scheduler in enumerate(sm.schedulers):
                book = SelectBook()
                books.append(book)
                scheduler.select = self._checked_select(
                    f"SM{sm.sm_id} slot {slot} ({scheduler.name})",
                    scheduler, book, scheduler.select)
            sm._finish_warp = self._booked_finish(books, sm._finish_warp)

    def _checked_select(self, where, scheduler, book, real_select):
        reference = SELECT_REFERENCE[scheduler.name]

        def select(ready, now):
            got = real_select(ready, now)
            want = reference(scheduler, book, ready, now)
            assert got is want, (
                f"select of {where} at cycle {now}: picked "
                f"{got.dynamic_id}, the eager reference "
                f"{want.dynamic_id} from {[w.dynamic_id for w in ready]}"
            )
            book.issued(got)
            self.selects += 1
            return got

        return select

    @staticmethod
    def _booked_finish(books, real_finish):
        def finish_warp(warp, now):
            # A warp lives on slot dynamic_id % slots, as the SM deals them.
            books[warp.dynamic_id % len(books)].finished(warp)
            real_finish(warp, now)

        return finish_warp

# ----------------------------------------------------------------------
# The MSHR file against the completion heap it once kept
# ----------------------------------------------------------------------
class HeapMSHR:
    """The MSHR file as it was written before its in-flight fills became
    one sorted list: a heap of ``(completion, line)`` popped while its top
    is due, a ``line -> completion`` index, and :meth:`next_free_time` by
    ``heapq.nsmallest`` over the index, memoised until the next register.
    Answers only; no statistics, no events."""

    def __init__(self, entries):
        self._entries = entries
        self._inflight = {}
        self._completions = []
        self._free_at = None

    def _purge(self, now):
        completions = self._completions
        inflight = self._inflight
        while completions and completions[0][0] <= now:
            _, line_addr = heapq.heappop(completions)
            done = inflight.get(line_addr)
            if done is not None and done <= now:
                del inflight[line_addr]

    def merge_or_start(self, line_addr, now):
        self._purge(now)
        completion = self._inflight.get(line_addr)
        if completion is not None:
            return True, completion
        if len(self._inflight) < self._entries:
            return False, now
        return False, self._completions[0][0] if self._completions else now

    def next_free_time(self, now):
        self._purge(now)
        excess = len(self._inflight) - self._entries
        if excess < 0:
            return now
        if self._free_at is None:
            self._free_at = heapq.nsmallest(excess + 1, self._inflight.values())[-1]
        return self._free_at

    def register(self, line_addr, completion, now=0.0):
        self._inflight[line_addr] = completion
        self._free_at = None
        heapq.heappush(self._completions, (completion, line_addr))


class MSHRReferenceOracle(_LaunchOracle):
    """The completion heap, kept as a reference for the sorted in-flight
    list of :class:`repro.memory.mshr.MSHRFile`.

    Gives every SM's file a :class:`HeapMSHR` shadow and wraps the file's
    methods on the instance, before launch: each ``register`` is mirrored
    into the shadow, and each answer of ``merge_or_start`` and
    ``next_free_time`` must equal the shadow's to the
    same call — the same cycles, so both retire the same fills, including
    at the LSU's per-line cycles, which run ahead of the SM's tick.
    """

    QUERIES = ("merge_or_start", "next_free_time")

    def __init__(self, gpu):
        super().__init__(gpu)
        #: Checked answers per query name.
        self.queries = Counter()
        #: ``next_free_time`` calls that found the file over-subscribed.
        self.over_subscribed = 0
        for sm in gpu.sms:
            mshr = sm.mshr
            shadow = HeapMSHR(mshr._entries)
            for name in self.QUERIES:
                setattr(mshr, name, self._checked(
                    f"SM{sm.sm_id}", name, mshr, getattr(mshr, name),
                    getattr(shadow, name)))
            mshr.register = self._mirrored(mshr.register, shadow.register)

    def _checked(self, where, name, mshr, real, reference):
        def query(*args):
            got = real(*args)
            want = reference(*args)
            if name == "next_free_time" and len(mshr._inflight) > mshr._entries:
                self.over_subscribed += 1
            assert got == want, (
                f"MSHR {name}{args} of {where}: the sorted list answered "
                f"{got!r}, the heap reference {want!r}"
            )
            self.queries[name] += 1
            return got

        return query

    @staticmethod
    def _mirrored(real, reference):
        def register(*args, **kwargs):
            real(*args, **kwargs)
            reference(*args, **kwargs)

        return register
