"""The cache-decision stream: what :func:`repro.feedback.record_signals`
keeps, and that it is the in-place run's.

Every miss, fill and eviction of both cache levels, compared as canonically
sorted ``(kind, cycle, sm, fields)`` tuples.  The replayed side goes through
:func:`~repro.feedback.record_signals`; the in-place side keeps the same
records off :func:`tests.oracles.run_in_place`'s bus.  Stream identity of
every event across the two paths, on more schemes, is
``test_obs_parity.py``'s grid.
"""

from repro.config import GPUConfig
from repro.feedback import record_signals
from repro.feedback.harness import CACHE_DECISIONS
from repro.obs import EventBus, sort_events
from repro.obs.events import LEVEL_L1D, LEVEL_L2, Ev, validate_events
from tests.oracles import run_in_place


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
    def test_stream_contents(self):
        result, signals = _record("gto", in_place=False)
        assert signals == _record("gto")[1]
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
        # The cache records go to the bus whatever the scheme, so gto is
        # observable without behavior change.
        result, signals = _record("gto")
        assert validate_events(signals) > 0
        assert result.cycles > 0
