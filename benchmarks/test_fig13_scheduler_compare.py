"""Figure 13 — oracle CAWS vs. gCAWS vs. full CAWA.

Paper: the oracle wins on small kernels (bfs, b+tree, needle); gCAWS/CAWA
win on large kernels and kmeans; CAWA adds ~5% over gCAWS overall but
slightly degrades b+tree / strcltr_small.  Shape asserted: all three
schemes improve the Sens mean; CAWA's mean is at least gCAWS's; kmeans
prefers gCAWS/CAWA over the oracle.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig13, run_figure
from repro.workloads import SENS_WORKLOADS


def test_fig13_scheduler_compare(benchmark):
    data = run_once(benchmark, run_figure, 13, scale=BENCH_SCALE)
    print("\n" + fig13.render(data))
    means = {
        scheme: sum(data[(n, scheme)] for n in SENS_WORKLOADS) / len(SENS_WORKLOADS)
        for scheme in fig13.SCHEMES
    }
    for scheme, mean in means.items():
        assert mean > 1.0, f"{scheme} must improve the Sens mean"
    assert means["cawa"] >= means["gcaws"] - 0.02, (
        "CAWA must not lose to gCAWS overall (paper: +5%)"
    )
    # kmeans: the greedy schemes beat the oracle's pure criticality order.
    assert data[("kmeans", "cawa")] >= data[("kmeans", "caws")] - 0.05
