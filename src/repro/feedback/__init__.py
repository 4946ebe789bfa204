"""``repro.feedback`` — one cell's cache decisions, recorded.

A cache decision (miss, fill, eviction) has one record: the
:mod:`repro.obs` ``CACHE_*`` event, whose schema v2 names the warps
involved.  :func:`record_signals` keeps those records of one cell off the
event bus.  It pulls in the GPU and the experiment runner, so it is
exposed via module ``__getattr__``.
"""

from __future__ import annotations

from typing import Any

__all__ = ["record_signals"]


def __getattr__(name: str) -> Any:
    if name == "record_signals":
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
