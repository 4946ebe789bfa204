"""GPU memory subsystem: functional data store plus timing models.

Data (what a load returns) lives in :class:`~repro.memory.data.GlobalMemory`
and is always functionally correct.  Timing (when the value arrives) is
modeled by the cache hierarchy in :mod:`repro.memory.hierarchy`: per-SM L1
data caches (LRU, or CACP's criticality partitioning), a banked
unified L2, and a DRAM model with minimum latency plus bandwidth queueing —
the structure of Table 1 in the paper.
"""

from .cache import Cache, CacheLine
from .data import GlobalMemory
from .hierarchy import MemoryHierarchy
from .replacement import LRUPolicy, ReplacementPolicy
from .request import MemRequest, make_signature

__all__ = [
    "Cache",
    "CacheLine",
    "GlobalMemory",
    "LRUPolicy",
    "MemRequest",
    "MemoryHierarchy",
    "ReplacementPolicy",
    "make_signature",
]
