"""Figure 11 — CPL criticality prediction accuracy.

Paper: 73% average accuracy; needle is 100% because its blocks hold only
one or two warps.  Shape asserted: the average is well above chance and
needle is perfectly predicted.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig11, run_figure


def test_fig11_cpl_accuracy(benchmark):
    data = run_once(benchmark, run_figure, 11, scale=BENCH_SCALE)
    print("\n" + fig11.render(data))
    average = sum(data.values()) / len(data)
    assert average > 0.5, "CPL must beat the 50% chance level on average"
    assert data["needle"] == 1.0, "single-warp blocks are trivially predicted"
    assert all(0.0 <= acc <= 1.0 for acc in data.values())
