"""Measurement and analysis utilities for simulator runs."""

from .accuracy import CriticalityAccuracyTracker
from .counters import RunResult, merge_cache_stats, result_from_dict
from .disparity import block_disparity, max_block_disparity, warp_time_profile
from .reuse import ReuseDistanceProfiler
from .report import format_table
from .sampling import (
    MetricEstimate,
    SampledRunResult,
    SamplingInfo,
    estimate_sampled_result,
)

__all__ = [
    "CriticalityAccuracyTracker",
    "MetricEstimate",
    "ReuseDistanceProfiler",
    "RunResult",
    "SampledRunResult",
    "SamplingInfo",
    "block_disparity",
    "estimate_sampled_result",
    "format_table",
    "max_block_disparity",
    "merge_cache_stats",
    "result_from_dict",
    "warp_time_profile",
]
