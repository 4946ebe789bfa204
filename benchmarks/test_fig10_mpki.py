"""Figure 10 — L1D MPKI per scheduler.

Paper: CAWA reduces miss rates the most overall; kmeans MPKI falls 26.2%;
a few applications trade more misses for better critical-warp latency.
Shape asserted: CAWA cuts kmeans MPKI substantially versus RR and achieves
the lowest (or tied-lowest) mean MPKI over the Sens set.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig10, run_figure
from repro.workloads import SENS_WORKLOADS


def test_fig10_mpki(benchmark):
    data = run_once(benchmark, run_figure, 10, scale=BENCH_SCALE)
    print("\n" + fig10.render(data))

    assert data[("kmeans", "cawa")] < 0.8 * data[("kmeans", "rr")], (
        "CAWA must cut kmeans' MPKI substantially (paper: -26.2%)"
    )
    means = {
        scheme: sum(data[(n, scheme)] for n in SENS_WORKLOADS) / len(SENS_WORKLOADS)
        for scheme in fig10.SCHEMES
    }
    assert means["cawa"] < means["rr"], "CAWA must reduce mean Sens MPKI vs RR"
    assert means["cawa"] < means["two_level"], "CAWA must beat 2-level on MPKI"
