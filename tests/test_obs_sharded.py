"""Sharded replay with the event bus: merged streams must be deterministic
and byte-identical to serial replay's.

Each worker records its owned SMs' events, the coordinator records the
shared L2/DRAM events, and :func:`repro.obs.collect.merge_event_streams`
defines the merged stream as the canonical sort of the union — so a
Chrome-trace export must not contain a single differing byte between
``shards=1`` and ``shards=N``, or between two ``shards=N`` runs.

Also covers the sharded live-observer guard: obs collectors are exempt
(they ride the event layer through the coordinator), while legacy live
observers still raise a :class:`ConfigError` that now names the blocking
collector classes and points at ``docs/observability.md``.
"""

import multiprocessing

import pytest

from repro import trace as trace_mod
from repro.config import GPUConfig
from repro.core.cawa import apply_scheme
from repro.errors import ConfigError
from repro.obs import StallAccounting, bus_from_spec, write_chrome_trace

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded replay requires the fork start method",
)

NUM_SMS = 4
WORKLOAD = "bfs"
SCALE = 0.25

_PROGRAMS = {}


def _config():
    return GPUConfig.default_sim(num_sms=NUM_SMS).with_frontend("trace")


def _program():
    key = (WORKLOAD, SCALE)
    if key not in _PROGRAMS:
        _, program = trace_mod.record_workload(
            WORKLOAD, scale=SCALE,
            config=GPUConfig.default_sim(num_sms=NUM_SMS),
        )
        _PROGRAMS[key] = program
    return _PROGRAMS[key]


def _replay_events(scheme, shards, clock="skip"):
    cfg = apply_scheme(_config().with_shards(shards).with_clock(clock), scheme)
    bus = bus_from_spec("on")
    result = trace_mod.replay_program(
        _program(), cfg, scheme=scheme, bus=bus
    )[-1]
    return result, bus


@needs_fork
class TestShardedEventIdentity:
    def test_sharded_stream_matches_serial_bytes(self, tmp_path):
        serial, serial_bus = _replay_events("gto", shards=1, clock="cycle")
        sharded, sharded_bus = _replay_events("gto", shards=2)
        assert sharded.cycles == serial.cycles
        assert sharded.extra["events_recorded"] == len(sharded_bus.events())
        a = write_chrome_trace(serial_bus.events(), tmp_path / "serial.json")
        b = write_chrome_trace(sharded_bus.events(), tmp_path / "sharded.json")
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_sharded_runs_byte_identical(self, tmp_path):
        _, bus1 = _replay_events("cawa", shards=2)
        _, bus2 = _replay_events("cawa", shards=2)
        a = write_chrome_trace(bus1.events(), tmp_path / "a.json")
        b = write_chrome_trace(bus2.events(), tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_three_shards_same_stream(self, tmp_path):
        _, bus1 = _replay_events("rr", shards=1, clock="cycle")
        _, bus3 = _replay_events("rr", shards=3)
        a = write_chrome_trace(bus1.events(), tmp_path / "s1.json")
        b = write_chrome_trace(bus3.events(), tmp_path / "s3.json")
        assert a.read_bytes() == b.read_bytes()

    def test_collectors_see_merged_stream(self):
        cfg = apply_scheme(_config().with_shards(2), "gto")
        bus = bus_from_spec("on")
        acct = StallAccounting()
        bus.attach(acct)
        result = trace_mod.replay_program(
            _program(), cfg, scheme="gto", bus=bus
        )[-1]
        assert acct.issue_cycles() == result.warp_instructions
        assert acct.warp_cycles() > acct.issue_cycles()

    def test_run_scheme_events_config_with_shards(self):
        """config.events drives the sharded bus end to end via run_scheme."""
        from repro.experiments.runner import run_scheme

        base = GPUConfig.default_sim(num_sms=NUM_SMS)
        # First call records the trace (execute frontend, serial); the
        # events-on call then replays it sharded.
        run_scheme(WORKLOAD, "gto", scale=SCALE, config=base, shards=2,
                   use_cache=False, persistent=False)
        sharded = run_scheme(WORKLOAD, "gto", scale=SCALE,
                             config=base.with_events("on"),
                             shards=2, use_cache=False, persistent=False)
        assert sharded.shards == 2
        assert sharded.events == "on"
        assert sharded.extra["events_recorded"] > 0


@needs_fork
class TestLiveObserverGuard:
    def test_error_names_observer_classes_and_docs(self):
        class FancyTracer:
            def on_issue(self, sm, warp, inst, now):  # pragma: no cover
                pass

        cfg = apply_scheme(_config().with_shards(2), "rr")
        with pytest.raises(ConfigError, match="observers") as excinfo:
            trace_mod.replay_program(
                _program(), cfg, scheme="rr", observers=[FancyTracer()]
            )
        message = str(excinfo.value)
        assert "FancyTracer" in message
        assert "docs/observability.md" in message
        assert "EventBus" in message
