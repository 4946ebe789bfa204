"""The sampled sweep the frozen benchmark ledger makes, pinned cell by cell.

``benchmarks/ledger/workloads.py``'s ``sweep_store`` traced pass calls
``run_sweep(sampled="blocks:0.25")`` over four workloads x four schemes.
``tests/fixtures/sampled_pin.json`` holds, per cell, what that call
estimates: ``[cycles, warp instructions, L1 misses, cycles CI low, cycles
CI high, sampled blocks]``.  Blocks-mode planning, replay and estimation
must reproduce every value exactly, in a private cache directory (so no
stored result or calibration can answer for them).

Re-capture (only when a change is *meant* to move sampled estimates)::

    PYTHONPATH=src python tests/test_sampled_pin.py
"""

import json
import os

from repro.config import GPUConfig
from repro.experiments.runner import run_sweep
from repro.stats.sampling import SampledRunResult

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "sampled_pin.json")

WORKLOADS = ("bfs", "kmeans", "backprop", "needle")
SCHEMES = ("rr", "gto", "gcaws", "cawa")
SPEC = "blocks:0.25"


def estimates():
    """``{"workload/scheme": pinned values}`` of the ledger's sampled call."""
    results = run_sweep(list(WORKLOADS), list(SCHEMES), scale=0.25,
                        config=GPUConfig.default_sim(), sampled=SPEC, jobs=1)
    table = {}
    for (workload, scheme), result in results.items():
        assert isinstance(result, SampledRunResult)
        ci = result.ci["cycles"]
        table[f"{workload}/{scheme}"] = [
            result.cycles, result.warp_instructions, result.l1_stats.misses,
            ci.lo, ci.hi, result.info.sampled_blocks]
    return table


def test_ledger_sampled_sweep_reproduces_its_pin(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "private"))
    with open(FIXTURE) as handle:
        pinned = json.load(handle)
    assert sorted(pinned) == sorted(f"{w}/{s}" for w in WORKLOADS for s in SCHEMES)
    assert estimates() == pinned


if __name__ == "__main__":
    import tempfile

    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="sampled_pin_")
    table = estimates()
    with open(FIXTURE, "w") as handle:  # one cell a line
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())) + "\n}\n")
    print(f"captured {len(table)} cells -> {FIXTURE}")
