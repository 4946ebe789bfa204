"""``repro.feedback`` — the scheduler–cache co-design coupling.

A cache decision (miss, fill, eviction) has one record: the
:mod:`repro.obs` ``CACHE_*`` event, whose schema v2 names the warps
involved.  Schedulers subscribe to those records by declaring
``FEEDBACK_KINDS`` (``Ev`` codes) and receive them in ``on_signal``
through their SM's L1 sink (:func:`l1_sink`).  CCWS, WaSP and CIAO
(``repro.scheduling.{ccws,wasp,ciao}``) are pure consumers — see
``docs/schemes.md``.

The recording harness (:func:`record_signals`) pulls in the GPU and the
experiment runner, so it is exposed via module ``__getattr__``.
"""

from __future__ import annotations

from typing import Any

from .fanout import L1Fanout, l1_sink

__all__ = ["L1Fanout", "l1_sink", "record_signals"]


def __getattr__(name: str) -> Any:
    if name == "record_signals":
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
