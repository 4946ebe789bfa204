"""Figure 9 — the headline IPC comparison.

Paper: on Sens applications CAWA +23%, GTO +16%, 2-level -2% over RR;
kmeans speeds up 3.13x under CAWA (the largest gain).  Shape asserted:
CAWA's Sens mean beats GTO's and the 2-level scheduler's, every scheme's
Sens mean beats 1.0 except possibly 2-level, and kmeans is CAWA's largest
Sens speedup.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig09, run_figure
from repro.workloads import SENS_WORKLOADS


def test_fig09_performance(benchmark):
    data = run_once(benchmark, run_figure, 9, scale=BENCH_SCALE)
    print("\n" + fig09.render(data))
    summary = fig09.summarize(data)

    cawa = summary[("Sens", "cawa")]
    gto = summary[("Sens", "gto")]
    two_level = summary[("Sens", "two_level")]
    assert cawa > 1.1, "CAWA must improve Sens applications"
    assert gto > 1.05, "GTO must improve Sens applications"
    assert cawa > gto, "CAWA must outperform GTO on Sens (paper: 23% vs 16%)"
    assert cawa > two_level, "CAWA must outperform the 2-level scheduler"
    assert gto > two_level, "GTO must outperform the 2-level scheduler"

    # kmeans is the flagship: CAWA's largest Sens speedup.
    kmeans = data[("kmeans", "cawa")]
    assert kmeans == max(data[(n, "cawa")] for n in SENS_WORKLOADS)
    assert kmeans > 1.5, "kmeans must speed up substantially under CAWA"
