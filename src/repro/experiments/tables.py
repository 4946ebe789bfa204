"""Tables 1 and 2 — simulator configuration and benchmark inventory."""

from __future__ import annotations

from ..config import GPUConfig
from ..stats.report import format_table
from ..workloads import NON_SENS_WORKLOADS, SENS_WORKLOADS, make_workload


def table1(config: GPUConfig = None) -> str:
    """Render the simulated configuration in Table 1's layout."""
    cfg = config or GPUConfig.fermi_gtx480()
    rows = [
        ["Architecture", "NVIDIA Fermi GTX480 (simulated)"],
        ["Num. of SMs", cfg.num_sms],
        ["Max. # of Warps per SM", cfg.max_warps_per_sm],
        ["Max. # of Blocks per SM", cfg.max_blocks_per_sm],
        ["# of Schedulers per SM", cfg.num_schedulers_per_sm],
        ["# of Registers per SM", cfg.registers_per_sm],
        ["Shared Memory", f"{cfg.shared_mem_per_sm // 1024}KB"],
        [
            "L1 Data Cache",
            f"{cfg.l1d.size_bytes // 1024}KB per SM "
            f"({cfg.l1d.sets}-sets/{cfg.l1d.ways}-ways)",
        ],
        [
            "L2 Cache",
            f"{cfg.l2.size_bytes // 1024}KB unified "
            f"({cfg.l2.sets}-sets/{cfg.l2.ways}-ways/{cfg.l2_banks}-banks)",
        ],
        ["Min. L2 Access Latency", f"{cfg.l2_latency} cycles"],
        ["Min. DRAM Access Latency", f"{cfg.dram_latency} cycles"],
        ["Warp Size (SIMD Width)", f"{cfg.warp_size} threads"],
    ]
    return "Table 1: simulated GPU configuration\n" + format_table(
        ["parameter", "value"], rows
    )


def table2() -> str:
    """Render the benchmark inventory in Table 2's layout."""
    rows = []
    for name in SENS_WORKLOADS + NON_SENS_WORKLOADS:
        workload = make_workload(name)
        rows.append([name, workload.dataset, workload.category])
    return "Table 2: benchmarks and data sets\n" + format_table(
        ["benchmark", "data set", "category"], rows
    )
