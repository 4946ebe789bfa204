"""Workload registry mirroring Table 2 of the paper."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List

from .backprop import BackpropWorkload
from .base import Workload
from .bfs import BFSWorkload
from .btree import BTreeWorkload
from .heartwall import HeartwallWorkload
from .kmeans import KMeansWorkload
from .needle import NeedleWorkload
from .particle import ParticleWorkload
from .pathfinder import PathfinderWorkload
from .srad import SradWorkload
from .streamcluster import StreamclusterWorkload
from .synthetic import DivergenceWorkload, ImbalanceWorkload, MemStressWorkload
from .tpacf import TpacfWorkload

WORKLOADS: Dict[str, Callable[..., Workload]] = {
    # Sens (Table 2): execution-time disparity + L1D sensitivity.
    "bfs": BFSWorkload,
    "b+tree": BTreeWorkload,
    "heartwall": HeartwallWorkload,
    "kmeans": KMeansWorkload,
    "needle": NeedleWorkload,
    "srad_1": SradWorkload,
    # functools.partial (not a lambda) so inspect.signature sees the real
    # constructor parameters — run_sweep validates its kwargs against them.
    "strcltr_small": partial(StreamclusterWorkload, variant="small"),
    # Non-sens (Table 2).
    "backprop": BackpropWorkload,
    "particle": ParticleWorkload,
    "pathfinder": PathfinderWorkload,
    "strcltr_mid": partial(StreamclusterWorkload, variant="mid"),
    "tpacf": TpacfWorkload,
    # Synthetic microbenchmarks (not part of Table 2).
    "synthetic_imbalance": ImbalanceWorkload,
    "synthetic_divergence": DivergenceWorkload,
    "synthetic_memstress": MemStressWorkload,
}

#: The paper's seven scheduling/cache-sensitive applications.
SENS_WORKLOADS: List[str] = [
    "bfs",
    "b+tree",
    "heartwall",
    "kmeans",
    "needle",
    "srad_1",
    "strcltr_small",
]

#: The paper's five non-sensitive applications.
NON_SENS_WORKLOADS: List[str] = [
    "backprop",
    "particle",
    "pathfinder",
    "strcltr_mid",
    "tpacf",
]


def workload_names(include_synthetic: bool = False) -> List[str]:
    """Table 2 workload names; ``include_synthetic`` gives every registered
    workload, the synthetic extras after Table 2's."""
    if include_synthetic:
        return list(WORKLOADS)
    return SENS_WORKLOADS + NON_SENS_WORKLOADS


def positive_scale(value: object) -> float:
    """``value`` as a workload scale, the one rule for the CLI's
    ``--scale`` and serve's ``"scale"``: a positive finite number.  A
    boolean is not one; NaN, an infinity, zero or a negative is refused,
    not clamped to the smallest input every size shares."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise ValueError(f"scale must be a positive finite number, got {value!r}")
    return float(value)


def make_workload(name: str, **kwargs) -> Workload:
    """Instantiate a workload by its Table 2 name."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return factory(**kwargs)
