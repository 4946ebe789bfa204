"""Figure 12 — the critical warp's scheduling priority over time.

Paper: gCAWS proactively keeps the critical warp at high priority and
schedules it until its progress improves, while RR treats it uniformly.
Shape asserted: both schemes produce non-trivial traces, and under gCAWS
the critical warp's criticality rank ends *lower* than it started (the
acceleration worked) or it spends time at the top rank.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig12, run_figure


def test_fig12_priority_trace(benchmark):
    data = run_once(benchmark, run_figure, 12, scale=BENCH_SCALE)
    print("\n" + fig12.render(data))
    for scheme in ("rr", "gcaws"):
        assert len(data[scheme]) > 5, f"{scheme}: trace must have samples"
    gcaws_ranks = [rank for _, rank in data["gcaws"]]
    peak = max(gcaws_ranks)
    # The critical warp must reach high priority at some point, and the
    # acceleration should pull its rank down from that peak by the end.
    assert peak >= 2
    assert gcaws_ranks[-1] <= peak
