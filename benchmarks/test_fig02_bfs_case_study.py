"""Figure 2 — bfs criticality decomposition case study.

Paper: (a) ~20% time gap from workload imbalance, (b) ~40% gap with a
balanced input from branch behaviour, (c) slower warps see more memory
delay.  Shape asserted: both inputs produce a positive fast-to-slow gap
and the memory-stall share is non-trivial.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig02, run_figure


def test_fig02_bfs_case_study(benchmark):
    data = run_once(benchmark, run_figure, 2, scale=BENCH_SCALE)
    print("\n" + fig02.render(data))
    times_a = data["a_exec_time"]
    times_b = data["b_exec_time"]
    assert times_a == sorted(times_a)
    gap_a = (times_a[-1] - times_a[0]) / times_a[0]
    gap_b = (times_b[-1] - times_b[0]) / times_b[0]
    assert gap_a > 0.02, "unbalanced input must produce a warp time gap"
    assert gap_b >= 0.0, "balanced input gap must be measurable"
    assert max(data["c_mem_share"]) > 0.05, "memory delay must be visible"
