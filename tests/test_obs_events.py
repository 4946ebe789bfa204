"""Unit tests for the observability subsystem's leaf layers.

Schema integrity, event validation, spec parsing, ring/spill collectors,
deterministic stream merging, stall accounting arithmetic, and the
persistent event store's round trip and failure modes.  Everything here is
synthetic — no simulation runs (those live in ``test_obs_parity.py``).
"""

import json
import zlib

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
    format_top_reasons,
    parse_spec,
    record_events,
    schema_table,
    sort_events,
    validate_events,
    validate_schema,
)
from repro.obs.store import (
    EventStoreError,
    event_key,
    event_path,
    list_events,
    load_events,
    save_events,
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


class TestSpecParsing:
    @pytest.mark.parametrize("spec,kind,capacity", [
        ("off", "off", 0),
        ("on", "ring", 1 << 20),
        ("ring", "ring", 1 << 20),
        ("ring:128", "ring", 128),
        ("spill:4096", "spill", 4096),
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

    def test_bus_from_spec_off_is_none(self):
        assert bus_from_spec("off") is None


class TestRingCollector:
    def test_drop_oldest(self):
        ring = RingCollector(capacity=3)
        for i in range(5):
            ring.append(ev_issue(float(i)))
        assert ring.total == 5 and ring.dropped == 2
        assert [ev[1] for ev in ring.events()] == [2.0, 3.0, 4.0]

    def test_spill_mode_round_trip(self, tmp_path):
        ring = RingCollector(capacity=4, spill_dir=tmp_path / "spill")
        events = [ev_issue(float(i)) for i in range(10)]
        for ev in events:
            ring.append(ev)
        assert ring.dropped == 0
        assert ring.events() == events
        assert list((tmp_path / "spill").glob("*.evz"))

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingCollector(capacity=0)


class TestBus:
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
        assert format_top_reasons(top).startswith("mem_pending")

    def test_critical_warp(self):
        key, breakdown = self.build().critical_warp()
        assert key == (0, 0, 0)
        assert breakdown["issue"] == 3.0

    def test_empty_accounting(self):
        acct = StallAccounting()
        assert acct.shares() == {}
        assert format_top_reasons(acct.top_reasons()) == "-"
        with pytest.raises(ValueError):
            acct.critical_warp()

    def test_to_dict_is_json_safe(self):
        json.dumps(self.build().to_dict())

    def test_format_table_sums_to_total(self):
        text = self.build().format_table()
        assert "100.0%" in text and "issue" in text


class TestStore:
    def test_round_trip(self):
        path = event_path(event_key("bfs", "rr", 0.25, "deadbeefcafe0123"))
        save_events(path, SAMPLE, {"workload": "bfs"})
        events, meta = load_events(path)
        assert events == [tuple(ev) for ev in SAMPLE]
        assert meta == {"workload": "bfs"}
        assert any(key.startswith("bfs-rr-0p25-") for key, _ in list_events())

    def test_reads_do_not_create_the_store(self, tmp_path):
        # stats / list / gc are read-only: on a cache directory that has
        # never stored a stream they must leave the disk untouched (they
        # used to mkdir <cache>/events/ and crash on a read-only checkout).
        from repro.experiments.result_cache import cache_dir
        from repro.obs import store

        cache_dir().mkdir(parents=True)
        assert store.list_events() == []
        assert store.stats()["entries"] == 0
        assert store.gc(max_age_seconds=0.0) == 0
        assert bus_from_spec("spill:16") is not None  # nothing spilled yet
        assert list(cache_dir().iterdir()) == []
        # The write paths still create it on demand.
        save_events(event_path("k"), SAMPLE)
        assert store.stats()["entries"] == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(EventStoreError, match="no event stream"):
            load_events(tmp_path / "nope.evt.z")

    def test_corrupt_payload(self, tmp_path):
        path = tmp_path / "bad.evt.z"
        path.write_bytes(b"not zlib at all")
        with pytest.raises(EventStoreError, match="corrupt"):
            load_events(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.evt.z"
        payload = json.dumps({"format": "something-else"}).encode()
        path.write_bytes(zlib.compress(payload))
        with pytest.raises(EventStoreError, match="not a repro-events"):
            load_events(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "old.evt.z"
        payload = json.dumps({
            "format": "repro-events", "version": 1,
            "schema_version": SCHEMA_VERSION + 1, "events": [],
        }).encode()
        path.write_bytes(zlib.compress(payload))
        with pytest.raises(EventStoreError, match="schema"):
            load_events(path)

    def test_v1_stream_is_refused(self, tmp_path):
        # v1 cache records carry no warp attribution; v2 appended it.
        assert SCHEMA_VERSION == 4
        path = tmp_path / "v1.evt.z"
        payload = json.dumps({
            "format": "repro-events", "version": 1, "schema_version": 1,
            "events": [[int(Ev.CACHE_MISS), 3.0, 0, 0, 12, 0x80, 1]],
        }).encode()
        path.write_bytes(zlib.compress(payload))
        with pytest.raises(EventStoreError, match="schema v1"):
            load_events(path)

    def test_v2_stream_is_refused(self, tmp_path):
        # v2 has no CPL_VERDICT; v3 added it.
        path = tmp_path / "v2.evt.z"
        payload = json.dumps({
            "format": "repro-events", "version": 1, "schema_version": 2,
            "events": [[int(Ev.CACHE_MISS), 3.0, 0, 0, 12, 0x80, 1, 0, 2]],
        }).encode()
        path.write_bytes(zlib.compress(payload))
        with pytest.raises(EventStoreError, match="schema v2"):
            load_events(path)

    def test_v3_stream_is_refused(self, tmp_path):
        # v3 still had kind 14, the L1 bypass record; v4 retired it.
        assert 14 not in set(Ev)
        path = tmp_path / "v3.evt.z"
        payload = json.dumps({
            "format": "repro-events", "version": 1, "schema_version": 3,
            "events": [[14, 3.0, 0, 0, 0x80]],
        }).encode()
        path.write_bytes(zlib.compress(payload))
        with pytest.raises(EventStoreError, match="schema v3"):
            load_events(path)

    def test_cpl_verdict_round_trips(self, tmp_path):
        verdict = (int(Ev.CPL_VERDICT), 128.0, 1, 3,
                   ((0, 12.5, True), (2, 0.0, False)))
        empty = (int(Ev.CPL_VERDICT), 192.0, 1, 3, ())
        path = save_events(tmp_path / "v.evt.z", [verdict, empty])
        assert load_events(path)[0] == [verdict, empty]
        assert event_to_dict(verdict)["warps"] == verdict[4]

    def test_save_validates(self, tmp_path):
        with pytest.raises(SchemaError):
            save_events(tmp_path / "x.evt.z", [(999, 0.0, 0)])
