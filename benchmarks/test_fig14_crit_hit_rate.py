"""Figure 14 — critical-warp L1D hit rate normalized to baseline.

Paper: CAWA lifts the critical warps' hit rate 2.46x on average and 7.22x
for kmeans, more consistently than criticality-oblivious schedulers.
Shape asserted: CAWA improves the mean critical-warp hit rate, with kmeans
its strongest case.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig14, run_figure
from repro.workloads import SENS_WORKLOADS


def test_fig14_critical_hit_rate(benchmark):
    data = run_once(benchmark, run_figure, 14, scale=BENCH_SCALE)
    print("\n" + fig14.render(data))
    cawa_mean = sum(data[(n, "cawa")] for n in SENS_WORKLOADS) / len(SENS_WORKLOADS)
    assert cawa_mean > 1.1, "CAWA must lift critical-warp hit rates on average"
    assert data[("kmeans", "cawa")] > 1.5, "kmeans is the flagship case"
