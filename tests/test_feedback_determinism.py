"""Cache-decision streams are bit-identical across every simulator mode.

The feedback determinism contract (docs/schemes.md): the cache records a
scheduler may subscribe to — every miss, fill and eviction, compared as
canonically sorted ``(kind, cycle, sm, fields)`` tuples — are identical
whether the cell replays its stored trace or records each launch in place;
and because the consumer scheme, ccws, alters issue decisions based on
those records, its *cycle counts* must agree across modes too, which these
tests pin alongside the streams themselves.  Records may reach the consumer
scheduler between its SM's ticks, so it also runs under
:class:`~tests.oracles.SkipOracle`: the device loop must still skip only
idle cycles.

The replayed side goes through :func:`repro.feedback.record_signals`, which
keeps the cache decisions of both levels off the event bus; the in-place
side keeps the same records off :func:`tests.oracles.run_in_place`'s bus.
"""

import pytest

from repro.config import GPUConfig
from repro.feedback import record_signals
from repro.feedback.harness import CACHE_DECISIONS
from repro.obs import EventBus, sort_events
from repro.obs.events import LEVEL_L1D, LEVEL_L2, Ev, validate_events
from tests.oracles import SkipOracle, run_in_place

#: ccws cells, in place against replayed: the default backprop cell and a
#: second, non-sensitive workload.
CONSUMER_CELLS = [
    pytest.param("backprop", 0.25, id="ccws"),
    pytest.param("kmeans", 0.125, id="ccws-kmeans@0.125"),
]


def _record(scheme, workload="backprop", scale=0.25, in_place=True):
    """``(result, sorted cache decisions)`` of one cell: recorded in place
    by default, else replayed from the stored trace."""
    if not in_place:
        return record_signals(workload, scheme, scale=scale)
    bus, records = EventBus(capacity=1), []
    bus.attach(records)
    result = run_in_place(workload, scheme, scale, GPUConfig.default_sim(),
                          bus=bus)
    return result, sort_events(r for r in records if r[0] in CACHE_DECISIONS)


class TestSignalStreamFast:
    """Tier-1 subset: the consumer scheme, core modes."""

    @pytest.mark.parametrize("workload, scale", CONSUMER_CELLS)
    def test_execute_trace_identical(self, workload, scale):
        exec_result, exec_signals = _record("ccws", workload, scale)
        trace_result, trace_signals = _record("ccws", workload, scale,
                                              in_place=False)
        assert (exec_result.frontend, trace_result.frontend) == ("execute", "trace")
        assert exec_result.cycles == trace_result.cycles
        assert exec_signals == trace_signals
        assert validate_events(exec_signals) > 0
        assert sum(1 for r in exec_signals if r[0] == int(Ev.CACHE_MISS)
                   and r[3] == LEVEL_L1D) == exec_result.l1_stats.misses

    def test_in_place_and_stored_identical(self, monkeypatch):
        # A throttling consumer, fed between ticks, replayed under the
        # oracle: the stream matches the plain GPU's and no cycle the
        # device loop skipped could have issued.
        _, reference = _record("ccws")
        oracles = SkipOracle.on_every_launch(monkeypatch)
        _, checked = _record("ccws", in_place=False)
        assert checked == reference
        assert sum(o.jumps for o in oracles) > 0

    def test_stream_contents(self):
        result, signals = _record("ccws")
        # Every decision kind flows; L2 records carry the *requesting*
        # SM id, so sm >= 0 everywhere.
        kinds = {record[0] for record in signals}
        assert kinds == {int(Ev.CACHE_MISS), int(Ev.CACHE_FILL),
                         int(Ev.CACHE_EVICT)}
        levels = {record[3] for record in signals}
        assert levels == {LEVEL_L1D, LEVEL_L2}
        assert all(record[2] >= 0 for record in signals)
        # L1 misses surface in both the stream and the counters.
        l1_misses = sum(
            1 for r in signals
            if r[0] == int(Ev.CACHE_MISS) and r[3] == LEVEL_L1D
        )
        assert l1_misses == result.l1_stats.misses

    def test_feedback_oblivious_scheme_streams_too(self):
        # The cache records go to the bus whether or not a scheduler
        # subscribes, so gto is observable without behavior change.
        result, signals = _record("gto")
        assert validate_events(signals) > 0
        assert result.cycles > 0
