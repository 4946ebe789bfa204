"""One ``MemRequest`` per LSU, rewritten per instruction and per line.

Each LSU owns one request; it rewrites its PC, warp and criticality per
instruction and its line, LSU cycle and signature before each line's L1
probe, so whatever reads a request must read it during the call it was
handed in.  On bfs x cawa, with an L1 log, an event collector and a
feedback tap attached at once, every one of them must see each line's own
``line_addr``, ``cycle`` and ``signature`` (where its records carry them) —
in the order the LSU walked the lines.
"""

from __future__ import annotations

import pytest

from repro import GPUConfig, apply_scheme
from repro import trace as trace_mod
from repro.experiments import runner
from repro.feedback.channel import SignalTap
from repro.feedback.signals import LEVEL_L1D, Sig
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
            _, cycle, sm, _, pc, line, critical = ev
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
    log, events, tap = L1Log(), [], SignalTap()
    bus = EventBus()
    bus.attach(log)
    bus.attach(events)
    trace_mod.replay_program(program, apply_scheme(cfg, "cawa"), scheme="cawa",
                             bus=bus, feedback_tap=tap)

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
    assert l2_probes and fills
    for ev in l2_probes:  # the L2 is probed with the same request
        assert line_at[ev[2], ev[1]][1:] == (ev[5], make_signature(ev[4], ev[5]), ev[4])
    for ev in fills:
        assert line_at[ev[2], ev[1]][1] == ev[4]

    signals = [r for r in tap.records if r[3] == LEVEL_L1D]
    misses = [r for r in signals if r[0] == Sig.MISS]
    assert misses and any(r[0] == Sig.FILL for r in signals)
    for record in misses:
        key, line, _, pc = line_at[record[2], record[1]]
        assert (record[4], record[5], record[6], record[7]) == (key[1], key[2], line, pc)
    for record in signals:
        if record[0] == Sig.FILL:
            key, line, _, _ = line_at[record[2], record[1]]
            assert (record[4], record[5], record[6]) == (key[1], key[2], line)


def test_the_l1_observer_hook_is_gone():
    """L1 probes reach collectors through the event bus only."""
    cfg = GPUConfig.default_sim()
    program = runner.load_or_record_program("bfs", "rr", 0.25, cfg)
    with pytest.raises(TypeError, match="l1_observers"):
        trace_mod.replay_program(program, cfg, l1_observers=[L1Log()])
