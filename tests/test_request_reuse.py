"""One ``MemRequest`` per warp memory instruction, rewritten per line.

The LSU builds one request for an instruction and rewrites its line, LSU
cycle and signature before each line's L1 probe, so whatever reads a
request must read it during the call it was handed in.  On bfs x cawa, with
an L1 observer, an event collector and a feedback tap attached at once,
every one of them must see each line's own ``line_addr``, ``cycle`` and
``signature`` (where its records carry them) — in the order the LSU walked
the lines.
"""

from __future__ import annotations

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
    """An L1 observer that copies what it is shown, during the call."""

    def __init__(self):
        self.accesses = []

    def on_access(self, req, hit, line):
        self.accesses.append((req.warp_key, req.line_addr, req.cycle, req.signature,
                              req.pc, req.is_critical))

    def on_evict(self, line):
        pass


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
    observer, events, tap = L1Log(), [], SignalTap()
    bus = EventBus()
    bus.attach(events)
    trace_mod.replay_program(program, apply_scheme(cfg, "cawa"), scheme="cawa",
                             l1_observers=[observer], bus=bus, feedback_tap=tap)

    assert walked and observer.accesses == walked
    # An SM's LSU walks one line per cycle: (sm, cycle) names a line.
    line_at = {(key[0], cycle): (key, line, signature, pc)
               for key, line, cycle, signature, pc, _ in walked}
    assert len(line_at) == len(walked)

    probes = [ev for ev in events if ev[0] in (Ev.CACHE_HIT, Ev.CACHE_MISS)]
    assert [(ev[1], ev[2], ev[5], ev[4]) for ev in probes if ev[3] == 0] == [
        (cycle, key[0], line, pc) for key, line, cycle, _, pc, _ in walked]
    l2_probes = [ev for ev in probes if ev[3] == 1]
    fills = [ev for ev in events if ev[0] == Ev.CACHE_FILL]
    inserts = [ev for ev in events if ev[0] == Ev.CACP_INSERT]
    assert l2_probes and fills and inserts
    for ev in l2_probes:  # the L2 is probed with the same request
        assert line_at[ev[2], ev[1]][1:] == (ev[5], make_signature(ev[4], ev[5]), ev[4])
    for ev in fills:
        assert line_at[ev[2], ev[1]][1] == ev[4]
    for ev in inserts:  # CACP fills the L1 only
        assert line_at[ev[2], ev[1]][2] == ev[3]

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
