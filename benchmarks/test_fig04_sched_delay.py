"""Figure 4 — scheduler-induced wait imposed on the critical warp.

Paper: the baseline RR contributes up to 52.4% extra wait time to the
critical warp.  Shape asserted: under every criticality-oblivious
scheduler the critical warp spends a visible share of its time ready but
not selected.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig04, run_figure


def test_fig04_scheduler_delay(benchmark):
    data = run_once(benchmark, run_figure, 4, scale=BENCH_SCALE)
    print("\n" + fig04.render(data))
    assert data["rr"] > 0.1, "RR must impose visible scheduling delay"
    assert all(share >= 0.0 for share in data.values())
