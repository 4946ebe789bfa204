"""Ablation: L1D replacement policies under a fixed scheduler.

Not a paper figure — compares the replacement-policy zoo (LRU, SRRIP,
DRRIP, SHiP) on the cache-sensitive flagship workload, isolating the
cache axis from the scheduling axis (scheduler fixed to GTO, as Section
5.4 does when studying CACP in isolation).
"""

from conftest import run_once

from repro import GPU, GPUConfig
from repro.stats.report import format_table
from repro.workloads import make_workload

WORKLOAD = "kmeans"
POLICIES = ["lru", "srrip", "drrip", "ship"]


def _run_policy(policy):
    config = GPUConfig.default_sim().with_scheduler("gto").with_l1d_policy(policy)
    gpu = GPU(config)
    return make_workload(WORKLOAD).run(gpu, scheme=f"gto/{policy}")


def test_ablation_l1_policies(benchmark):
    def sweep():
        return {policy: _run_policy(policy) for policy in POLICIES}

    results = run_once(benchmark, sweep)
    rows = [
        [policy, f"{r.ipc:.2f}", f"{r.l1_hit_rate:.1%}", f"{r.l1_mpki:.2f}"]
        for policy, r in results.items()
    ]
    print(f"\nAblation: L1D policy under GTO on {WORKLOAD}\n"
          + format_table(["policy", "IPC", "L1 hit", "MPKI"], rows))
    ipcs = [r.ipc for r in results.values()]
    assert min(ipcs) > 0
    # All policies must be in a sane band of each other on this workload.
    assert max(ipcs) / min(ipcs) < 3.0

