"""Figure 15 — critical-warp lines evicted without any reuse.

Paper: 44.3% of critical-warp-filled lines die unreferenced in the
baseline; CAWA's partition protection reduces the waste.  Shape asserted:
the baseline wastes a visible fraction and CAWA reduces the mean fraction.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig15, run_figure
from repro.workloads import SENS_WORKLOADS


def test_fig15_zero_reuse(benchmark):
    data = run_once(benchmark, run_figure, 15, scale=BENCH_SCALE)
    print("\n" + fig15.render(data))
    rr_mean = sum(data[(n, "rr")] for n in SENS_WORKLOADS) / len(SENS_WORKLOADS)
    cawa_mean = sum(data[(n, "cawa")] for n in SENS_WORKLOADS) / len(SENS_WORKLOADS)
    assert rr_mean > 0.1, "baseline must waste critical-warp fills visibly"
    assert cawa_mean < rr_mean, "CAWA must reduce zero-reuse critical lines"
