"""Ablation benches for the design choices called out in DESIGN.md.

Not paper figures — these isolate the contribution of each CAWA component
and of our documented deviations:

* gCAWS greedy time slice vs. pure criticality priority;
* CACP partition modes: priority (default) vs. the paper's static 8/16
  way split;
* CPL instruction-term-only vs. full Eq. 1 (stall term included).
"""

import pytest
from conftest import run_once

from repro import GPU, GPUConfig, apply_scheme
from repro.simt.warp import Warp
from repro.workloads import make_workload

WORKLOAD = "kmeans"


def _run_with(scheme, configure=None, **overrides):
    cfg = apply_scheme(GPUConfig.default_sim(**overrides), scheme)
    gpu = GPU(cfg)
    if configure is not None:
        configure(gpu)
    return make_workload(WORKLOAD).run(gpu, scheme=scheme)


def test_ablation_greedy_time_slice(benchmark):
    """Compare gCAWS with and without the greedy time slice.

    At this simulator's scale the pure priority order (criticality bucket,
    then strictly oldest) concentrates the working set at least as well as
    greedy target retention, so we assert both variants are functional and
    in the same performance regime rather than a strict winner.
    """

    def disable_greedy(gpu):
        # The slice is "the warp issued last, if it is a candidate again":
        # a slot that forgets its last warp before each pick picks by
        # criticality every time.
        for sm in gpu.sms:
            for sched in sm.schedulers:
                def select(ready, now, sched=sched, pick=sched.select):
                    sched.last = None
                    return pick(ready, now)

                sched.select = select

    def run_both():
        full = _run_with("gcaws")
        no_greedy = _run_with("gcaws", disable_greedy)
        return full, no_greedy

    full, no_greedy = run_once(benchmark, run_both)
    print(
        f"\nAblation (greedy slice, {WORKLOAD}): "
        f"gcaws IPC={full.ipc:.3f}, non-greedy IPC={no_greedy.ipc:.3f}"
    )
    assert full.ipc > 0 and no_greedy.ipc > 0
    assert 0.5 <= full.ipc / no_greedy.ipc <= 2.0


@pytest.mark.parametrize("mode", ["priority", "static"])
def test_ablation_cacp_partition_modes(benchmark, mode):
    """Both partition modes must run and stay within sane bounds."""
    result = run_once(benchmark, _run_with, "cawa", cacp_mode=mode)
    print(f"\nAblation (CACP mode={mode}, {WORKLOAD}): IPC={result.ipc:.3f} "
          f"MPKI={result.l1_mpki:.2f}")
    assert result.ipc > 0
    assert result.l1_stats.accesses > 0


def test_ablation_cpl_stall_term(benchmark, monkeypatch):
    """Disabling CPL's stall term must still produce a working scheduler."""
    full = run_once(benchmark, _run_with, "cawa")
    # Eq. 1 reads nStall through the warp: zero it for the second run.
    monkeypatch.setattr(Warp, "cpl_stall", property(lambda warp: 0.0))
    inst_only = _run_with("cawa")
    print(
        f"\nAblation (CPL stall term, {WORKLOAD}): "
        f"full IPC={full.ipc:.3f}, inst-only IPC={inst_only.ipc:.3f}"
    )
    assert inst_only.ipc > 0
