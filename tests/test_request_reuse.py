"""One ``MemRequest`` per LSU, rewritten per instruction and per line.

Each LSU owns one request; it rewrites its PC, warp and criticality per
instruction and its line, LSU cycle and signature before each line's L1
probe, so whatever reads a request must read it during the call it was
handed in.  On bfs x cawa, with an L1 log and an event collector attached
at once, each must see each line's own ``line_addr``, ``cycle``,
``signature`` and warp (where its records carry them) — in the order the
LSU walked the lines.
"""

from __future__ import annotations

import pytest

from repro import GPUConfig, apply_scheme
from repro import trace as trace_mod
from repro.experiments import runner
from repro.isa.instructions import MemSpace
from repro.memory.request import make_signature
from repro.obs.bus import EventBus
from repro.obs.events import Ev
from repro.sm.lsu import LoadStoreUnit


class L1Log:
    """A bus collector of the L1D probes, the way the Fig 3 reuse profiler
    reads them: level-0 ``CACHE_HIT`` / ``CACHE_MISS`` records, plus the
    signature each CACP fill inserts with."""

    def __init__(self):
        self.accesses = []
        self.inserts = []

    def append(self, ev):
        if ev[0] in (Ev.CACHE_HIT, Ev.CACHE_MISS) and ev[3] == 0:
            _, cycle, sm, _, pc, line, critical = ev[:7]
            self.accesses.append((sm, line, cycle, pc, bool(critical)))
        elif ev[0] == Ev.CACP_INSERT:
            self.inserts.append((ev[2], ev[1], ev[3]))


def test_every_consumer_sees_each_lines_own_request(monkeypatch):
    cfg = GPUConfig.default_sim()
    program = runner.load_or_record_program("bfs", "cawa", 0.25, cfg)

    # The reference: what the LSU is asked to walk, and the cycle each line
    # gets (one per LSU cycle from when the port is free), recorded before
    # any request exists.
    walked = []
    real_issue = LoadStoreUnit.issue

    def issue(self, warp, inst, mask, now, is_critical, lines):
        if mask and inst.space is not MemSpace.SHARED:
            start = max(now, self._next_free)
            key = (self.sm_id, warp.block.block_id, warp.warp_id_in_block)
            walked.extend((key, line, start + i, make_signature(inst.pc, line),
                           inst.pc, is_critical)
                          for i, line in enumerate(lines))
        return real_issue(self, warp, inst, mask, now, is_critical, lines)

    monkeypatch.setattr(LoadStoreUnit, "issue", issue)
    log, events = L1Log(), []
    bus = EventBus()
    bus.attach(log)
    bus.attach(events)
    trace_mod.replay_program(program, apply_scheme(cfg, "cawa"), scheme="cawa",
                             bus=bus)

    assert walked and log.accesses == [
        (key[0], line, cycle, pc, critical)
        for key, line, cycle, _, pc, critical in walked]
    # An SM's LSU walks one line per cycle: (sm, cycle) names a line.
    line_at = {(key[0], cycle): (key, line, signature, pc)
               for key, line, cycle, signature, pc, _ in walked}
    assert len(line_at) == len(walked)
    assert log.inserts and all(  # each fill inserts with its line's signature
        line_at[sm, cycle][2] == signature for sm, cycle, signature in log.inserts)

    l2_probes = [ev for ev in events
                 if ev[0] in (Ev.CACHE_HIT, Ev.CACHE_MISS) and ev[3] == 1]
    fills = [ev for ev in events if ev[0] == Ev.CACHE_FILL]
    misses = [ev for ev in events if ev[0] == Ev.CACHE_MISS]
    assert l2_probes and fills and misses
    for ev in l2_probes:  # the L2 is probed with the same request
        assert line_at[ev[2], ev[1]][1:] == (ev[5], make_signature(ev[4], ev[5]), ev[4])
    for ev in misses:  # ... and both levels name the line's warp
        key, line, _, pc = line_at[ev[2], ev[1]]
        assert (ev[4], ev[5], ev[7], ev[8]) == (pc, line, key[1], key[2])
    for ev in fills:
        key, line, _, _ = line_at[ev[2], ev[1]]
        assert (ev[4], ev[6], ev[7]) == (line, key[1], key[2])


def test_the_l1_observer_hook_is_gone():
    """L1 probes reach collectors through the event bus only."""
    cfg = GPUConfig.default_sim()
    program = runner.load_or_record_program("bfs", "rr", 0.25, cfg)
    with pytest.raises(TypeError, match="l1_observers"):
        trace_mod.replay_program(program, cfg, l1_observers=[L1Log()])
