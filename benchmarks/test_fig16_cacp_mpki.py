"""Figure 16 — L1D MPKI with CACP added to each warp scheduler.

Paper: CACP reduces MPKI under RR/GTO/2-level, with the coordinated CAWA
best overall.  Shape asserted: adding CACP never blows up the mean Sens
MPKI, and it reduces kmeans' MPKI under the baseline scheduler.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig16, run_figure
from repro.workloads import SENS_WORKLOADS


def _mean(data, scheme):
    return sum(data[(n, scheme)] for n in SENS_WORKLOADS) / len(SENS_WORKLOADS)


def test_fig16_cacp_mpki(benchmark):
    data = run_once(benchmark, run_figure, 16, scale=BENCH_SCALE)
    print("\n" + fig16.render(data))
    for base_scheme, cacp_scheme in fig16.PAIRINGS:
        assert _mean(data, cacp_scheme) < 1.25 * _mean(data, base_scheme), (
            f"CACP must not blow up MPKI under {base_scheme}"
        )
    assert data[("kmeans", "rr+cacp")] < data[("kmeans", "rr")], (
        "CACP must reduce kmeans' MPKI even under the fair RR scheduler"
    )
