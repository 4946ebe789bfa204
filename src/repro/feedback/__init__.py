"""``repro.feedback`` — the scheduler–cache co-design plug-in subsystem.

A typed, versioned signal schema (:mod:`~repro.feedback.signals`) and a
per-SM publish/subscribe :class:`FeedbackChannel`
(:mod:`~repro.feedback.channel`): caches publish their miss / fill /
eviction traffic with full warp attribution, schedulers subscribe by
declaring ``FEEDBACK_KINDS``, and the CAWA criticality coupling
(scheduler → CACP) rides the same channel.  CCWS, WaSP, and CIAO
(``repro.scheduling.{ccws,wasp,ciao}``) are pure consumers of this API —
see ``docs/schemes.md``.

Only the leaf modules are imported eagerly — the recording harness
(:func:`record_signals`) pulls in the GPU and the experiment runner, so
it is exposed via module ``__getattr__`` instead.
"""

from __future__ import annotations

from .channel import (
    FeedbackChannel,
    SignalTap,
    attach_signal_tap,
    wire_gpu_feedback,
)
from .signals import (
    LEVEL_L1D,
    LEVEL_L2,
    SCHEMA_VERSION,
    SIGNAL_FIELDS,
    Sig,
    SignalSchemaError,
    schema_table,
    signal_to_dict,
    sort_signals,
    validate_signal,
    validate_signals,
)

__all__ = [
    "Sig",
    "SignalSchemaError",
    "SCHEMA_VERSION",
    "SIGNAL_FIELDS",
    "LEVEL_L1D",
    "LEVEL_L2",
    "validate_signal",
    "validate_signals",
    "signal_to_dict",
    "schema_table",
    "sort_signals",
    "FeedbackChannel",
    "SignalTap",
    "wire_gpu_feedback",
    "attach_signal_tap",
    "record_signals",
]


def __getattr__(name: str):
    if name == "record_signals":
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
