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
state with the structures they check.
"""

from __future__ import annotations

import math

from repro import GPU
from repro.core.cacp import CACPPolicy
from repro.simt.warp import WarpStatus


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
    MSHR's fills; the CPL's block thresholds and issue counts; the CACP
    policy's tune counters.  Scheduler state is left out: L2 feedback may
    legitimately reach a scheduler between its SM's ticks."""
    cpl = sm.cpl
    policy = sm.l1d.policy
    return {
        "warps": {w.dynamic_id: (w.status, w.issued_instructions, w.ready_at,
                                 tuple(w.reg_ready), tuple(w.reg_from_load),
                                 tuple(w.pred_ready))
                  for w in sm.warps},
        "mshr": dict(sm.mshr._inflight),
        "cpl": None if cpl is None else (dict(cpl._block_threshold),
                                         dict(cpl._block_issue_count)),
        "cacp": ((policy.critical_ways, tuple(policy._partition_hits),
                  policy._accesses_since_tune)
                 if isinstance(policy, CACPPolicy) else None),
        "next_dynamic_id": sm._next_dynamic_id,
    }


class SkipOracle:
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
      Throttling, arbitration and the critical-MSHR reserve only make a
      warp issue *later*, so this bound is safe: the loop may tick an SM
      early (an under-estimated wake), never late.
    * **frozen state** — :func:`sm_state` of ``s`` is what its previous
      tick left, except for a dispatch onto ``s``, which may only add
      warps.  MSHR fills that completed by ``t`` are not compared: a
      dispatch refresh may retire them, which changes nothing observable.

    Together the two are the sufficiency argument of the skip loop, made
    executable: a tick that finds nothing missed and nothing moved is one
    a per-cycle loop could not have told apart.
    """

    def __init__(self, gpu):
        self.gpu = gpu
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
    passed, minus those the MSHR / critical-reserve gate holds back, in
    dispatch order — strictly ascending ``dynamic_id``, and still the same
    list when ``select`` returns (the contract that lets the SM hand over
    its own pool).  Every candidate's stored readiness must equal the
    from-scratch one.  A slot the tick passes over without calling
    ``select`` must have an empty list: nothing changes between a skipped
    slot's turn and the next ``select`` call (or the end of the tick), so
    that is where skipped slots are checked.  At every ``select`` and at the
    end of every tick each slot's ungated sub-list must be its pool minus
    the warps whose next instruction needs an MSHR, in pool order, and every
    wake-heap entry must carry its warp's stored wake time.  At the end of
    every tick the wake ``tick_wake`` returned must equal
    ``next_wake_time(now)`` — both clamped: never before ``now`` — and must
    not lie past the earliest from-scratch wake of any RUNNING warp.
    """

    def __init__(self, sm):
        self.sm = sm
        self.select_calls = 0
        self.ticks = 0
        # Candidates held back over all checks: no free MSHR / free entries
        # inside the critical reserve and the warp is not critical.
        self.gated_full = 0
        self.gated_reserve = 0
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
        free = sm.mshr.free_entries(now)
        reserve = sm.config.critical_mshr_reserve
        is_critical = sm._is_critical
        ready = []
        for warp in sm.warps:
            if warp.status is not WarpStatus.RUNNING:
                continue
            if warp.dynamic_id % num_slots != slot:
                continue
            wake, needs_mem = readiness_from_scratch(warp)
            if wake > now:
                continue
            if needs_mem:
                if free <= 0:
                    self.gated_full += 1
                    continue
                if (reserve and free <= reserve and is_critical is not None
                        and not is_critical(warp)):
                    self.gated_reserve += 1
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
        for heap in sm._wake_heaps:
            for wake, _, warp in heap:
                if warp.status is WarpStatus.RUNNING:
                    assert wake == warp.ready_at, (
                        f"cycle {now}: warp {warp.dynamic_id} is queued for "
                        f"{wake} but ready at {warp.ready_at}"
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
