"""Figure 1 — warp execution-time disparity across applications.

Paper: average max-disparity ~45%, peaking around 70% (srad_1).
Shape asserted: substantial disparity exists on average, and the Sens
applications exhibit more of it than a uniform workload would.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig01, run_figure


def test_fig01_disparity(benchmark):
    data = run_once(benchmark, run_figure, 1, scale=BENCH_SCALE)
    print("\n" + fig01.render(data))
    average = sum(data.values()) / len(data)
    assert 0.15 <= average <= 0.95, "average disparity should be substantial"
    assert max(data.values()) >= 0.4, "some application should be highly disparate"
    # The paper's designated high-disparity app must show meaningful disparity.
    assert data["srad_1"] >= 0.2
