"""Unit tests for the cache records and the scheduler registry.

The runtime contract (replayed = in-place stream identity) lives in
``test_obs_parity.py``; this file covers the pieces in isolation: the v2
cache records, the L1's wiring to the event bus, the eager config-time
validation of scheduler names and the registry's metadata.
"""

import pytest

from repro import GPU
from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.obs import (
    Ev,
    SchemaError,
    bus_from_spec,
    event_to_dict,
    schema_table,
    sort_events,
    validate_events,
)
from repro.obs.events import LEVEL_L1D, LEVEL_L2
from repro.scheduling.registry import SCHEDULERS, make_scheduler

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
# The L1's sink
# ----------------------------------------------------------------------
class TestL1Sink:
    def test_gpu_wires_each_l1_and_leaves_the_l2_on_the_bus(self):
        plain = GPU(GPUConfig.default_sim())
        for sm in plain.sms:
            assert sm.l1d.obs is None
            assert sm.l1d.owner == sm.sm_id and sm.l1d.level == LEVEL_L1D
        assert plain.hierarchy.l2.cache.obs is None
        recorded = GPU(GPUConfig.default_sim(), obs=bus_from_spec("on"))
        assert all(sm.l1d.obs is recorded.obs for sm in recorded.sms)
        assert recorded.hierarchy.l2.cache.obs is recorded.obs
        assert recorded.hierarchy.l2.cache.level == LEVEL_L2


# ----------------------------------------------------------------------
# Config-time validation satellites
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_unknown_scheduler_fails_at_config_time(self):
        with pytest.raises(ConfigError, match="bogus") as err:
            GPUConfig.default_sim().with_scheduler("bogus")
        # The error must list the registered names.
        for name in ("gto", "gcaws"):
            assert name in str(err.value)
        # A removed scheduler is as unknown as any other name.
        with pytest.raises(ConfigError, match="unknown scheduler 'ccws'"):
            GPUConfig.default_sim().with_scheduler("ccws")

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
        with pytest.raises(ValueError, match="gcaws"):
            make_scheduler("bogus")

    def test_every_scheduler_has_a_description(self):
        for name, scheduler in SCHEDULERS.items():
            assert scheduler.DESCRIPTION, f"{name} has no DESCRIPTION"
