"""The time-skipping device clock (``GPUConfig.clock='skip'``, the default).

The per-cycle reference loop (``clock='cycle'``) ticks *every* SM at every
cycle on which *any* SM can issue, and only jumps the clock when the whole
device is stalled.  On memory-bound workloads most of those ticks are
no-ops: a handful of warps issue while every other SM sits scoreboard- or
MSHR-blocked, yet each one still pays a Python call per cycle.

The skip clock inverts the loop.  A device event heap holds one entry per
event source (in practice: one per SM — see below), carrying the earliest
cycle at which that source can next *act*.  The run loop pops the heap
minimum, ticks exactly the due SMs (in ``sm_id`` order, preserving the
serial loop's shared-L2/DRAM access order), reschedules them at their
post-tick wake time, and jumps the clock straight to the next heap minimum.
Cycles on which no SM can issue are never visited at all.

The heap is not a class: :meth:`repro.gpu.gpu.GPU._run_skip_loop` owns it
as two locals — a ``heapq`` list of ``(time, sm, seq)`` and the per-SM
sequence numbers that mark which entry of an SM is live — because every
operation on it happens once per tick, inside that loop.  Its behaviour is
specified by ``tests/test_skip_clock.py::TestDeviceEventHeap`` at loop
level: SMs due on the same cycle tick in ``sm_id`` order; a dispatch
refresh supersedes the SM's previous entry; a wake in the past means "next
cycle", never a step back; an ``inf`` wake parks the SM; a ticked SM stays
off the heap until its tick (or a dispatch) says when it acts next.  This
module is the loop's design note.

Why SM wake times are a *sufficient* event set
----------------------------------------------

Every completion time in this simulator is known the moment an instruction
issues (scoreboard writes, MSHR fills, LSU walks).  A non-due SM therefore
cannot change state: its warps' readiness tuples are frozen until its own
next issue, its MSHR drains on a precomputed schedule, and barrier releases
/ block commits only happen *during* one of its own issues.  Shared L2 bank
frees and DRAM channel frees (exposed as ``next_event_time`` on those
components for diagnostics) influence the *latency* of future accesses, not
issue *eligibility* — so they are always dominated by some SM wake and need
no heap entries of their own.  CAWA's quantum edges (Algorithm 2 priority
recomputes, CACP retune epochs) are issue-indexed rather than cycle-indexed
in this codebase, so they too advance only at issue events.  The only
cross-SM waker is block dispatch after a commit, which the run loop handles
by refreshing every SM's heap entry at the dispatch boundary.

Wake times may *under*-estimate (an MSHR-reserve-gated warp can look ready
one entry early; a scheduler may decline a non-empty ready set): the due SM
then ticks without issuing, exactly as the per-cycle loop would have, and
is rescheduled one cycle later.  They must never *over*-estimate — that
invariant is what the cycle-vs-skip parity grid
(``tests/test_skip_clock_parity.py``) enforces bit-identically.
"""

