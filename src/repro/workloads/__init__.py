"""Benchmark workloads (Table 2 of the paper).

Each workload re-implements the criticality-relevant structure of its
Rodinia/Parboil namesake as a kernel on the simulator's ISA, together with a
seeded synthetic input generator and a NumPy reference implementation used
to verify functional correctness.
"""

from .base import LaunchSpec, Workload
from .registry import (
    NON_SENS_WORKLOADS,
    SENS_WORKLOADS,
    WORKLOADS,
    make_workload,
    positive_scale,
    workload_names,
)

__all__ = [
    "LaunchSpec",
    "NON_SENS_WORKLOADS",
    "SENS_WORKLOADS",
    "WORKLOADS",
    "Workload",
    "make_workload",
    "positive_scale",
    "workload_names",
]
