"""Unit tests for the observability subsystem's leaf layers.

Schema integrity, event validation, spec parsing, the ring collector,
deterministic stream merging, and stall accounting arithmetic.  Everything
here is synthetic — no simulation runs (those live in
``test_obs_parity.py``).
"""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import (
    EVENT_FIELDS,
    SCHEMA_VERSION,
    STALL_NAMES,
    Ev,
    EventBus,
    RingCollector,
    SchemaError,
    Stall,
    StallAccounting,
    bus_from_spec,
    event_to_dict,
    KindCounter,
    parse_spec,
    record_events,
    schema_table,
    sort_events,
    validate_events,
    validate_schema,
)


def ev_issue(cycle, sm=0, block=0, warp=0, pc=4, op="ADD"):
    return (int(Ev.WARP_ISSUE), cycle, sm, block, warp, pc, op)


def ev_stall(cycle, sm=0, block=0, warp=0, reason=Stall.NO_SLOT,
             stalled=1.0, start=None):
    start = cycle - stalled if start is None else start
    return (int(Ev.WARP_STALL), cycle, sm, block, warp, int(reason),
            stalled, start)


SAMPLE = [
    (int(Ev.WARP_START), 0.0, 0, 0, 0),
    ev_issue(1.0),
    ev_stall(3.0, stalled=1.0, start=2.0),
    ev_issue(3.0),
    (int(Ev.CACHE_MISS), 3.0, 0, 0, 12, 0x80, 1, 0, 0),
    (int(Ev.WARP_FINISH), 9.0, 0, 0, 0),
]


class TestSchema:
    def test_schema_is_consistent(self):
        validate_schema()

    def test_every_kind_has_fields(self):
        for kind in Ev:
            assert kind in EVENT_FIELDS
            assert isinstance(EVENT_FIELDS[kind], tuple)

    def test_schema_table_covers_every_kind(self):
        rows = schema_table()
        assert {name for name, _code, _f in rows} == {k.name for k in Ev}

    def test_stall_names_cover_enum(self):
        for reason in Stall:
            assert int(reason) in STALL_NAMES

    def test_event_to_dict_round_trip(self):
        row = event_to_dict(ev_issue(5.0, sm=2, block=1, warp=3))
        assert row["kind"] == "WARP_ISSUE"
        assert row["cycle"] == 5.0
        assert row["sm"] == 2
        assert row["block"] == 1 and row["warp"] == 3

    def test_validate_accepts_sample(self):
        validate_events(SAMPLE)

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(SchemaError):
            validate_events([(999, 0.0, 0)])

    def test_validate_rejects_wrong_arity(self):
        with pytest.raises(SchemaError):
            validate_events([(int(Ev.WARP_ISSUE), 0.0, 0)])

    def test_validate_rejects_bad_stall_reason(self):
        bad = list(ev_stall(3.0))
        bad[5] = 99
        with pytest.raises(SchemaError):
            validate_events([tuple(bad)])

    def test_cpl_verdict_validates_and_names_its_warps(self):
        verdict = (int(Ev.CPL_VERDICT), 128.0, 1, 3,
                   ((0, 12.5, True), (2, 0.0, False)))
        empty = (int(Ev.CPL_VERDICT), 192.0, 1, 3, ())
        assert validate_events([verdict, empty]) == 2
        assert event_to_dict(verdict)["warps"] == verdict[4]


class TestSpecParsing:
    @pytest.mark.parametrize("spec,kind,capacity", [
        ("off", "off", 0),
        ("on", "ring", 1 << 20),
        ("ring", "ring", 1 << 20),
        ("ring:128", "ring", 128),
    ])
    def test_valid_specs(self, spec, kind, capacity):
        assert parse_spec(spec) == (kind, capacity)

    @pytest.mark.parametrize("spec", ["bogus", "ring:0", "ring:-1",
                                      "ring:x", "on:5"])
    def test_invalid_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_spec(spec)

    @pytest.mark.parametrize("spec", ["bogus", "off"])
    def test_record_events_validates_events_spec(self, spec):
        # Refused before anything is simulated.
        with pytest.raises(ConfigError):
            record_events("bfs", "cawa", scale=0.25, events=spec)

    @pytest.mark.parametrize("spec", ["spill", "spill:4096"])
    def test_spill_is_refused_by_name(self, spec):
        with pytest.raises(ConfigError, match="spill mode was removed"):
            parse_spec(spec)

    def test_bus_from_spec_off_is_none(self):
        assert bus_from_spec("off") is None


class TestRingCollector:
    def test_drop_oldest(self):
        ring = RingCollector(capacity=3)
        for i in range(5):
            ring.append(ev_issue(float(i)))
        assert ring.total == 5 and ring.dropped == 2
        assert [ev[1] for ev in ring.events()] == [2.0, 3.0, 4.0]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingCollector(capacity=0)


class TestBus:
    def test_kind_counter_sees_what_the_ring_drops(self):
        bus = EventBus(capacity=2)
        counter = KindCounter()
        bus.attach(counter)
        bus.emit((int(Ev.WARP_START), 0.0, 0, 0, 0))
        for i in range(4):
            bus.emit(ev_issue(float(i + 1)))
        assert counter.named() == {"WARP_START": 1, "WARP_ISSUE": 4}
        assert [ev[0] for ev in bus.events()] == [int(Ev.WARP_ISSUE)] * 2
        assert bus.ring.dropped == 3 and bus.emitted == 5

    def test_emit_reaches_attached_collectors(self):
        bus = EventBus(capacity=16)
        seen = []
        bus.attach(seen)
        bus.emit(ev_issue(1.0))
        assert seen == [ev_issue(1.0)] == bus.events()
        assert bus.emitted == 1

    def test_attach_requires_append(self):
        with pytest.raises(TypeError):
            EventBus().attach(object())

    def test_detach(self):
        bus = EventBus(capacity=16)
        seen = []
        bus.attach(seen)
        bus.detach(seen)
        bus.emit(ev_issue(1.0))
        assert seen == [] and bus.collectors == []


class TestMerging:
    def test_sort_is_canonical(self):
        events = [ev_issue(2.0, sm=1), ev_issue(1.0), ev_issue(2.0, sm=0)]
        assert [ev[1:3] for ev in sort_events(events)] == [
            (1.0, 0), (2.0, 0), (2.0, 1)]


class TestStallAccounting:
    def build(self):
        acct = StallAccounting()
        acct.extend([
            ev_issue(1.0),
            ev_stall(4.0, reason=Stall.SCOREBOARD_DEP, stalled=2.0, start=2.0),
            ev_issue(4.0),
            ev_stall(10.0, reason=Stall.MEM_PENDING, stalled=4.0, start=5.0),
            ev_stall(10.0, reason=Stall.NO_SLOT, stalled=1.0, start=9.0),
            ev_issue(10.0),
            ev_issue(2.0, warp=1),
            (int(Ev.WARP_FINISH), 10.0, 0, 0, 0),
        ])
        return acct

    def test_reason_totals(self):
        totals = self.build().reason_totals()
        assert totals == {"scoreboard_dep": 2.0, "mem_pending": 4.0,
                          "no_slot": 1.0}

    def test_accounting_identity(self):
        acct = self.build()
        # 4 issues + 7 stalled cycles = 11 accounted warp-cycles.
        assert acct.issue_cycles() == 4.0
        assert acct.warp_cycles() == 11.0
        assert abs(sum(acct.shares().values()) - 1.0) < 1e-12

    def test_top_reasons_deterministic_order(self):
        top = self.build().top_reasons()
        assert [name for name, _c, _s in top] == [
            "mem_pending", "scoreboard_dep", "no_slot"]

    def test_critical_warp(self):
        key, breakdown = self.build().critical_warp()
        assert key == (0, 0, 0)
        assert breakdown["issue"] == 3.0

    def test_empty_accounting(self):
        acct = StallAccounting()
        assert acct.shares() == {}
        assert acct.top_reasons() == []
        with pytest.raises(ValueError):
            acct.critical_warp()

    def test_to_dict_is_json_safe(self):
        json.dumps(self.build().to_dict())

    def test_format_table_sums_to_total(self):
        text = self.build().format_table()
        assert "100.0%" in text and "issue" in text
