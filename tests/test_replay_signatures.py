"""Every simulated number the issue path decides, pinned cell by cell.

``tests/fixtures/replay_signatures.json`` was captured at the last commit
whose SM issued through the execute-era adapters (``TraceStack`` /
``TraceWarp`` / ``TraceExecutor``, PR 22), before they were deleted: per
cell ``[cycles, warp instructions, L1 misses, DRAM accesses, digest of the
per-block finish cycles and per-warp stall sums]``.  The SM that reads the
recorded stream itself must reproduce all of them, and every cell's CPL
counters must match the eager reference of ``tests/oracles.py``.

Re-capture (only when a change is *meant* to move simulated numbers)::

    PYTHONPATH=src python tests/test_replay_signatures.py
"""

import hashlib
import json
import os

import pytest

from repro.config import GPUConfig
from repro.core.cawa import SCHEMES
from repro.experiments import runner
from tests.oracles import CPLReferenceOracle

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "replay_signatures.json")

#: ``(workload, scale, num_sms or None, schemes)``: the figures' kernels
#: under every scheme, and the ledger's two wide cells.
GRID = [
    *((name, 0.25, None, tuple(SCHEMES)) for name in ("bfs", "kmeans", "needle", "backprop")),
    ("strcltr_mid", 4.0, 64, ("rr", "gto", "cawa")),
    ("synthetic_memstress", 6.0, 160, ("rr", "gto", "cawa")),
]
CELLS = [(w, scale, sms, scheme) for w, scale, sms, schemes in GRID for scheme in schemes]


def cell_id(cell):
    workload, scale, sms, scheme = cell
    return f"{workload}@{scale}x{sms or 2}/{scheme}"


def signature(cell):
    workload, scale, sms, scheme = cell
    config = (GPUConfig.default_sim() if sms is None
              else GPUConfig.default_sim(num_sms=sms))
    result = runner.run_scheme(workload, scheme, scale=scale, config=config,
                               use_cache=False, persistent=False)
    per_block = [
        (b.block_id, b.dispatch_cycle, b.commit_cycle,
         [(w.execution_time, w.issued_instructions, w.thread_instructions,
           w.total_stall_cycles, w.mem_stall_cycles, w.sched_stall_cycles)
          for w in b.warps])
        for b in result.blocks
    ]
    digest = hashlib.sha256(json.dumps(per_block).encode()).hexdigest()[:16]
    return [result.cycles, result.warp_instructions, result.l1_stats.misses,
            result.dram_accesses, digest]


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def trace_store(tmp_path_factory):
    """One trace store for the module: each workload is recorded once."""
    return str(tmp_path_factory.mktemp("replay_signatures"))


def test_fixture_covers_the_grid(pinned):
    assert sorted(pinned) == sorted(cell_id(cell) for cell in CELLS)
    assert len(CELLS) == 4 * len(SCHEMES) + 6


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_reproduces_its_pinned_signature(cell, pinned, trace_store, monkeypatch):
    """Each cell also runs under a :class:`CPLReferenceOracle`: the CPL
    counters the warps derive match the eager per-issue update bit for bit."""
    monkeypatch.setenv("REPRO_CACHE_DIR", trace_store)
    oracles = CPLReferenceOracle.on_every_launch(monkeypatch)
    assert signature(cell) == pinned[cell_id(cell)]
    assert oracles and all(oracle.issues for oracle in oracles)
    for oracle in oracles:
        oracle.check_all()


if __name__ == "__main__":
    import tempfile

    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="replay_signatures_")
    table = {cell_id(cell): signature(cell) for cell in CELLS}
    with open(FIXTURE, "w") as handle:  # one cell a line
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())) + "\n}\n")
    print(f"captured {len(table)} cells -> {FIXTURE}")
