"""Feedback signal streams are bit-identical across every simulator mode.

The FeedbackChannel determinism contract (docs/schemes.md): the canonical
signal stream — every record, compared as ``(cycle, sm, kind, fields)``
tuples — is identical across execute/trace frontends; and because the
consumer schemes (ccws/wasp/ciao) alter issue decisions based on those
signals, their *cycle counts* must agree across modes too, which these
tests pin alongside the streams themselves.  Signals may reach a consumer
scheduler between its SM's ticks, so the consumers also run under
:class:`~tests.oracles.SkipOracle`: the device loop must still skip only
idle cycles.

Recording goes through :func:`repro.feedback.record_signals`, which taps
every per-SM L1 channel plus the shared-L2 device channel.
"""

import pytest

from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.feedback import record_signals
from repro.feedback.signals import LEVEL_L1D, LEVEL_L2, Sig, validate_signals
from tests.oracles import SkipOracle

CONSUMER_SCHEMES = ["ccws", "wasp", "ciao"]


def _record(scheme, workload="backprop", scale=0.25, frontend="execute"):
    cfg = GPUConfig.default_sim().with_frontend(frontend)
    result, signals = record_signals(workload, scheme, scale=scale, config=cfg)
    return result, signals


class TestSignalStreamFast:
    """Tier-1 subset: one workload, every consumer scheme, core modes."""

    @pytest.mark.parametrize("scheme", CONSUMER_SCHEMES)
    def test_execute_trace_identical(self, scheme):
        exec_result, exec_signals = _record(scheme, frontend="execute")
        trace_result, trace_signals = _record(scheme, frontend="trace")
        assert exec_result.cycles == trace_result.cycles
        assert exec_signals == trace_signals
        assert validate_signals(exec_signals) > 0

    def test_frontend_and_clock_identical(self, monkeypatch):
        # A throttling consumer, fed between ticks, replayed under the
        # oracle: the stream matches the plain GPU's and no cycle the
        # device loop skipped could have issued.
        _, reference = _record("ccws")
        oracles = SkipOracle.on_every_launch(monkeypatch)
        _, checked = _record("ccws", frontend="trace")
        assert checked == reference
        assert sum(o.jumps for o in oracles) > 0

    def test_stream_contents(self):
        result, signals = _record("ccws")
        # Every kind flows; L2 signals ride the device channel with the
        # *requesting* SM id, so sm >= 0 everywhere.
        kinds = {record[0] for record in signals}
        assert kinds == {int(Sig.MISS), int(Sig.FILL), int(Sig.EVICT)}
        levels = {record[3] for record in signals}
        assert levels == {LEVEL_L1D, LEVEL_L2}
        assert all(record[2] >= 0 for record in signals)
        # L1 misses surface in both the stream and the counters.
        l1_misses = sum(
            1 for r in signals
            if r[0] == int(Sig.MISS) and r[3] == LEVEL_L1D
        )
        assert l1_misses == result.l1_stats.misses

    def test_feedback_oblivious_scheme_streams_too(self):
        # The tap force-wires publish hooks even when no scheduler
        # subscribes, so gto is observable without behavior change.
        result, signals = _record("gto")
        assert validate_signals(signals) > 0
        assert result.cycles > 0


class TestSampledConfig:
    def test_sampled_config_is_refused(self):
        # record_signals used to ignore ``sampling`` and replay the whole
        # trace, returning an exact RunResult under a config that asked
        # for estimates (record_events on the same config samples).
        sampled = GPUConfig.default_sim().with_sampling("blocks:0.25")
        with pytest.raises(ConfigError, match="sampled replay"):
            record_signals("bfs", "gto", scale=0.25, config=sampled)


@pytest.mark.slow
class TestSignalStreamFullGrid:
    """Every consumer scheme, execute against trace under the oracle."""

    @pytest.mark.parametrize("scheme", CONSUMER_SCHEMES)
    def test_grid_cell(self, scheme, monkeypatch):
        _, reference = _record(scheme)
        SkipOracle.on_every_launch(monkeypatch)
        _, signals = _record(scheme, frontend="trace")
        assert signals == reference, f"{scheme}: trace diverged"
