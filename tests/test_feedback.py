"""Unit tests for repro.feedback: the cache records, the L1 sink, schemes.

The runtime contract (replayed = in-place stream identity, consumers included)
lives in ``test_obs_parity.py``; this file covers the pieces in
isolation: the v2 cache records schedulers read, the L1 sink and its
fan-out, the eager config-time validation satellites, and CCWS, the
feedback-consuming scheduler, driven by hand-crafted records.
"""

import pytest

from repro import GPU
from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.experiments import runner
from repro.feedback import L1Fanout, l1_sink
from repro.obs import (
    Ev,
    SchemaError,
    bus_from_spec,
    event_to_dict,
    record_events,
    schema_table,
    sort_events,
    validate_events,
)
from repro.obs.events import LEVEL_L1D, LEVEL_L2
from repro.scheduling import ccws as ccws_mod
from repro.scheduling.ccws import CCWSScheduler
from repro.scheduling.registry import SCHEDULERS, make_scheduler
from repro.simt.warp import WarpStatus

# (kind, cycle, sm, level, pc, line_addr, critical, block, warp)
MISS = (int(Ev.CACHE_MISS), 10.0, 0, LEVEL_L1D, 7, 0x400, 0, 1, 2)
# (kind, cycle, sm, level, line_addr, critical, block, warp)
FILL = (int(Ev.CACHE_FILL), 11.0, 0, LEVEL_L1D, 0x400, 0, 1, 2)
# (kind, cycle, sm, level, line_addr, reused, victim_block, victim_warp,
#  evictor_block, evictor_warp)
EVICT = (int(Ev.CACHE_EVICT), 12.0, 0, LEVEL_L1D, 0x200, 1, 0, 3, 1, 2)


# ----------------------------------------------------------------------
# The v2 cache records
# ----------------------------------------------------------------------
class TestSchema:
    @pytest.mark.parametrize("record", [MISS, FILL, EVICT])
    def test_valid_records_pass(self, record):
        assert validate_events([record]) == 1

    def test_too_short_rejected(self):
        with pytest.raises(SchemaError, match="too short"):
            validate_events([(int(Ev.CACHE_MISS), 1.0)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown event kind"):
            validate_events([(99, 1.0, 0, LEVEL_L1D)])

    def test_wrong_arity_rejected(self):
        # A v1 miss (no warp attribution) no longer fits.
        with pytest.raises(SchemaError, match="CACHE_MISS"):
            validate_events([MISS[:7]])

    def test_validate_events_counts(self):
        assert validate_events([MISS, FILL, EVICT]) == 3

    def test_event_to_dict_names_evict_fields(self):
        d = event_to_dict(EVICT)
        assert d["kind"] == "CACHE_EVICT"
        assert d["cycle"] == 12.0
        assert d["line_addr"] == 0x200
        assert d["victim_block"] == 0
        assert d["victim_warp"] == 3
        assert d["reused"] == 1
        assert d["evictor_block"] == 1
        assert d["evictor_warp"] == 2

    def test_sort_is_cycle_sm_kind_order(self):
        a = (int(Ev.CACHE_MISS), 5.0, 1, LEVEL_L1D, 0, 0x100, 0, 0, 0)
        b = (int(Ev.CACHE_MISS), 5.0, 0, LEVEL_L1D, 0, 0x100, 0, 0, 0)
        c = (int(Ev.CACHE_FILL), 4.0, 2, LEVEL_L1D, 0x100, 0, 0, 0)
        assert sort_events([a, b, c]) == [c, b, a]

    def test_schema_table_lists_every_kind(self):
        rows = {name: fields for name, _, fields in schema_table()}
        assert rows["CACHE_MISS"][-2:] == ("block", "warp")
        assert rows["CACHE_FILL"][-2:] == ("block", "warp")
        assert rows["CACHE_EVICT"][-4:] == (
            "victim_block", "victim_warp", "evictor_block", "evictor_warp")

    def test_l2_level_code_distinct(self):
        assert LEVEL_L1D != LEVEL_L2


# ----------------------------------------------------------------------
# The L1 sink and its fan-out
# ----------------------------------------------------------------------
class _Subscriber:
    def __init__(self, kinds, log, tag):
        self.FEEDBACK_KINDS = kinds
        self.log, self.tag = log, tag

    def on_signal(self, record):
        self.log.append((self.tag, record))


class TestL1Sink:
    def test_fanout_dispatches_by_kind_in_slot_order(self):
        got = []
        sink = l1_sink([_Subscriber((Ev.CACHE_MISS,), got, "first"),
                        _Subscriber((Ev.CACHE_MISS, Ev.CACHE_EVICT), got, "second")])
        sink.emit(MISS)
        sink.emit(FILL)  # nobody subscribed
        sink.emit(EVICT)
        assert got == [("first", MISS), ("second", MISS), ("second", EVICT)]

    def test_unknown_kind_subscription_fails_loudly(self):
        with pytest.raises(ValueError):
            l1_sink([_Subscriber((99,), [], "bad")])

    def test_bus_records_every_kind_after_the_handlers(self):
        # Handlers first, then the bus — which records every kind.
        order, bus = [], []

        class Bus:
            def emit(self, record):
                order.append(("bus", record))
                bus.append(record)

        sink = l1_sink([_Subscriber((Ev.CACHE_MISS,), order, "sched")], Bus())
        sink.emit(MISS)
        sink.emit(FILL)
        assert bus == [MISS, FILL]
        assert order == [("sched", MISS), ("bus", MISS), ("bus", FILL)]

    def test_subscription_introspection(self):
        # The sink is None without bus or subscriber, the bus without a
        # subscriber, else a fan-out naming what each kind reaches.
        bus = object()
        assert l1_sink([make_scheduler("gto")]) is None
        assert l1_sink([make_scheduler("gto")], bus) is bus
        ccws = make_scheduler("ccws")
        sink = l1_sink([ccws], bus)
        assert isinstance(sink, L1Fanout) and sink.bus is bus
        assert sorted(sink.handlers) == [int(Ev.CACHE_MISS), int(Ev.CACHE_EVICT)]
        assert sink.handlers[int(Ev.CACHE_EVICT)] == [ccws.on_signal]

    def test_gpu_wires_each_l1_and_leaves_the_l2_on_the_bus(self):
        plain = GPU(GPUConfig.default_sim().with_scheduler("ccws"))
        for sm in plain.sms:
            assert sm.l1d.obs.bus is None
            assert sm.l1d.owner == sm.sm_id and sm.l1d.level == LEVEL_L1D
        assert plain.hierarchy.l2.cache.obs is None
        recorded = GPU(GPUConfig.default_sim().with_scheduler("ccws"),
                       obs=bus_from_spec("on"))
        assert all(sm.l1d.obs.bus is recorded.obs for sm in recorded.sms)
        assert recorded.hierarchy.l2.cache.obs is recorded.obs
        assert recorded.hierarchy.l2.cache.level == LEVEL_L2

    def test_one_record_two_readers(self, monkeypatch):
        """Each slot of a subscribed scheduler receives the very tuples its
        SM's L1 records on the bus as CACHE_MISS / CACHE_EVICT, in the
        bus's order."""
        runner.clear_cache()
        received = {}
        original = CCWSScheduler.on_signal

        def on_signal(self, record):
            received.setdefault(self, []).append(record)
            original(self, record)

        monkeypatch.setattr(CCWSScheduler, "on_signal", on_signal)
        _, bus = record_events("backprop", "ccws", scale=0.25)
        events = bus.events()
        assert len(events) == bus.emitted  # the ring dropped nothing
        kinds = (int(Ev.CACHE_MISS), int(Ev.CACHE_EVICT))
        streams = {}
        for ev in events:
            if ev[0] in kinds and ev[3] == LEVEL_L1D:
                streams.setdefault(ev[2], []).append(ev)
        config = GPUConfig.default_sim()
        assert len(received) == config.num_sms * config.num_schedulers_per_sm
        for records in received.values():
            stream = streams[records[0][2]]
            assert len(records) == len(stream)
            assert all(record is ev for record, ev in zip(records, stream))


# ----------------------------------------------------------------------
# Config-time validation satellites
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_unknown_scheduler_fails_at_config_time(self):
        with pytest.raises(ConfigError, match="bogus") as err:
            GPUConfig.default_sim().with_scheduler("bogus")
        # The error must list the registered names.
        for name in ("gto", "ccws"):
            assert name in str(err.value)

    def test_unknown_scheduler_fails_in_constructor_too(self):
        with pytest.raises(ConfigError, match="bogus"):
            GPUConfig.default_sim(scheduler_name="bogus")

    def test_every_registered_name_is_accepted(self):
        for name in SCHEDULERS:
            assert GPUConfig.default_sim().with_scheduler(name).scheduler_name == name


# ----------------------------------------------------------------------
# Registry metadata
# ----------------------------------------------------------------------
class TestRegistry:
    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="ccws"):
            make_scheduler("bogus")

    def test_every_scheduler_has_a_description(self):
        for name, scheduler in SCHEDULERS.items():
            assert scheduler.DESCRIPTION, f"{name} has no DESCRIPTION"

    def test_feedback_kinds_are_valid_sig_values(self):
        for scheduler in SCHEDULERS.values():
            for kind in scheduler.FEEDBACK_KINDS:
                Ev(kind)  # raises on junk

    def test_consumer_subscriptions(self):
        evict, miss = int(Ev.CACHE_EVICT), int(Ev.CACHE_MISS)
        assert set(SCHEDULERS["ccws"].FEEDBACK_KINDS) == {evict, miss}
        assert SCHEDULERS["gto"].FEEDBACK_KINDS == ()


# ----------------------------------------------------------------------
# Scheduler units, driven by hand-crafted records
# ----------------------------------------------------------------------
class _Block:
    def __init__(self, block_id):
        self.block_id = block_id


class _StubWarp:
    """The scheduler-visible slice of a warp."""

    def __init__(self, dynamic_id, block_id=0, warp_id_in_block=None):
        self.dynamic_id = dynamic_id
        self.block = _Block(block_id)
        self.warp_id_in_block = (
            warp_id_in_block if warp_id_in_block is not None else dynamic_id
        )
        self.status = WarpStatus.RUNNING


def _evict(victim, evictor, line_addr, cycle=1.0):
    return (
        int(Ev.CACHE_EVICT), cycle, 0, LEVEL_L1D, line_addr, 0,
        victim.block.block_id, victim.warp_id_in_block,
        evictor.block.block_id, evictor.warp_id_in_block,
    )


def _miss(warp, line_addr, cycle=1.0):
    return (
        int(Ev.CACHE_MISS), cycle, 0, LEVEL_L1D, 0, line_addr, 0,
        warp.block.block_id, warp.warp_id_in_block,
    )


class TestCCWSUnit:
    def _scheduler(self, n=4):
        sched = CCWSScheduler()
        warps = [_StubWarp(i) for i in range(n)]
        for w in warps:
            sched.notify_warp_added(w)
        return sched, warps

    def test_no_lost_locality_degenerates_to_round_robin(self):
        sched, warps = self._scheduler()
        assert sched.select(warps, 1.0) is warps[0]
        sched.last = warps[0]
        assert sched.select(warps, 2.0) is warps[1]

    def test_vta_hit_throttles_the_tail(self):
        sched, warps = self._scheduler()
        # Warp 0 loses a line, then misses on it: lost locality detected.
        sched.on_signal(_evict(warps[0], warps[1], 0x400, cycle=1.0))
        sched.on_signal(_miss(warps[0], 0x400, cycle=2.0))
        # Scores now (228, 100, 100, 100); cutoff 400 -> prefix of 3.
        allowed = sched._allowed(2.0)
        assert allowed == {(0, 0), (0, 1), (0, 2)}
        # A slot offering only the throttled warp is declined ...
        assert sched.select([warps[3]], 2.0) is None
        # ... while the locality-heavy warp wins a mixed slot.
        sched.last = None
        assert sched.select([warps[0], warps[3]], 2.0) is warps[0]

    def test_score_decays_back_to_baseline(self):
        sched, warps = self._scheduler()
        sched.on_signal(_evict(warps[0], warps[1], 0x400, cycle=1.0))
        sched.on_signal(_miss(warps[0], 0x400, cycle=2.0))
        assert sched._allowed(2.0) is not None
        later = 2.0 + ccws_mod.DECAY_PERIOD * ccws_mod.VTA_BUMP
        assert sched._allowed(later) is None  # throttle released

    def test_vta_capacity_is_lru(self):
        sched, warps = self._scheduler(1)
        for i in range(ccws_mod.VTA_ENTRIES + 2):
            sched.on_signal(_evict(warps[0], warps[0], 0x1000 + i))
        loc = sched.warps[(0, 0)]
        assert len(loc.vta) == ccws_mod.VTA_ENTRIES
        assert 0x1000 not in loc.vta and 0x1001 not in loc.vta

    def test_untracked_warp_signals_ignored(self):
        sched, warps = self._scheduler(1)
        stranger = _StubWarp(99, block_id=7)
        sched.on_signal(_miss(stranger, 0x400))  # other slot's warp
        assert sched.warps[(0, 0)].bonus == 0.0
