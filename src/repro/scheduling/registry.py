"""Scheduler factory registry.

Every warp scheduler is registered here by name; ``GPUConfig`` validates
scheduler names eagerly against this table at construction time, so an
unknown name fails when the config is built, not when the device is.
A key equal to its class's ``name`` is the canonical name; any other key
for the same class is an alias.
"""

from __future__ import annotations

from typing import Dict, Type

from .base import WarpScheduler
from .caws import OracleCAWSScheduler
from .ccws import CCWSScheduler
from .gcaws import GCAWSScheduler
from .gto import GTOScheduler
from .lrr import LRRScheduler
from .two_level import TwoLevelScheduler

SCHEDULERS: Dict[str, Type[WarpScheduler]] = {
    "lrr": LRRScheduler,
    "rr": LRRScheduler,  # the paper calls the baseline "RR"
    "gto": GTOScheduler,
    "two_level": TwoLevelScheduler,
    "2lev": TwoLevelScheduler,
    "caws": OracleCAWSScheduler,
    "gcaws": GCAWSScheduler,
    "ccws": CCWSScheduler,
}


def make_scheduler(name: str, **kwargs) -> WarpScheduler:
    """Instantiate a warp scheduler by registry name."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {sorted(SCHEDULERS)}"
        ) from None
    return factory(**kwargs)

