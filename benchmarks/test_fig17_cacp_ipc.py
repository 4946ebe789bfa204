"""Figure 17 — IPC with CACP added to each warp scheduler.

Paper: CACP adds 2%-16.5% IPC to the criticality-oblivious schedulers and
the coordinated CAWA performs best.  Shape asserted: CACP's mean gain is
positive for at least one baseline scheduler, non-catastrophic for all,
and the full CAWA achieves the best mean IPC among the CACP pairings.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig16, fig17, run_figure
from repro.workloads import SENS_WORKLOADS


def test_fig17_cacp_ipc(benchmark):
    data = run_once(benchmark, run_figure, 17, scale=BENCH_SCALE)
    print("\n" + fig17.render(data))
    gains = fig17.cacp_gains(data)
    assert max(gains.values()) > 0.0, "CACP must help at least one scheduler"
    assert min(gains.values()) > -0.10, "CACP must never be catastrophic"

    def mean_ipc(scheme):
        return sum(data[(n, scheme)] for n in SENS_WORKLOADS) / len(SENS_WORKLOADS)

    cacp_schemes = [cacp for _, cacp in fig16.PAIRINGS]
    best = max(cacp_schemes, key=mean_ipc)
    assert best == "cawa", "the coordinated design must be the best pairing"
