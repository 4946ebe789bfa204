"""Figure 2 — the bfs warp-criticality case study.

Three panels on one thread block of bfs:
  (a) per-warp execution time with the unbalanced input (workload imbalance);
  (b) per-warp execution time *and* dynamic instruction counts with a
      balanced input (pure diverging-branch effect);
  (c) the share of each warp's execution time caused by memory-subsystem
      delay (slower warps see more memory stall).
"""

from __future__ import annotations

from typing import Dict, List

from ..stats.disparity import memory_stall_share
from ..stats.report import format_table
from .runner import run_scheme


def _block_profile(result, block_index: int = 0):
    blocks = [b for b in result.blocks if b.num_warps > 1]
    block = blocks[min(block_index, len(blocks) - 1)]
    warps = sorted(block.warps, key=lambda w: w.execution_time)
    return block, warps


def run(scale: float = 1.0, config=None, block_index: int = 0) -> Dict[str, List]:
    unbalanced = run_scheme("bfs", "rr", scale=scale, config=config)
    balanced = run_scheme("bfs", "rr", scale=scale, config=config,
                          balanced=True)

    _, warps_a = _block_profile(unbalanced, block_index)
    _, warps_b = _block_profile(balanced, block_index)

    return {
        "a_exec_time": [w.execution_time for w in warps_a],
        "b_exec_time": [w.execution_time for w in warps_b],
        "b_inst_count": [w.issued_instructions for w in warps_b],
        "c_mem_share": [memory_stall_share(w) for w in warps_a],
    }


def _gap(values: List[float]) -> float:
    return (values[-1] - values[0]) / values[0] if values and values[0] else 0.0


def render(data: Dict[str, List]) -> str:
    rows = []
    count = len(data["a_exec_time"])
    for i in range(count):
        rows.append([
            i,
            f"{data['a_exec_time'][i]:.0f}",
            f"{data['b_exec_time'][i]:.0f}" if i < len(data["b_exec_time"]) else "",
            data["b_inst_count"][i] if i < len(data["b_inst_count"]) else "",
            f"{data['c_mem_share'][i]:.1%}",
        ])
    header = format_table(
        ["warp(sorted)", "(a) time", "(b) time", "(b) insts", "(c) mem share"], rows
    )
    summary = (
        f"\n(a) unbalanced-input time gap: {_gap(data['a_exec_time']):.1%}"
        f"\n(b) balanced-input time gap:   {_gap(data['b_exec_time']):.1%}"
        f"\n(b) instruction count gap:     "
        f"{_gap([float(x) for x in data['b_inst_count']]):.1%}"
    )
    return "Figure 2: bfs warp criticality case study\n" + header + summary


def main() -> None:  # pragma: no cover
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
