"""Typed feedback-signal schema (the scheduler-facing twin of ``repro.obs``).

A feedback *signal* is one plain tuple, exactly like an obs event::

    (kind, cycle, sm, *fields)

``kind`` is an :class:`Sig` code (stable wire value), ``cycle`` the cache
access's issue cycle (``MemRequest.cycle``), ``sm`` the owning SM for L1
signals or the *requesting* SM for shared-L2 signals, and ``fields`` the
kind-specific payload described by :data:`SIGNAL_FIELDS`.

The schema is deliberately small: the cache levels publish their miss /
fill / eviction traffic with full warp attribution (which warp missed,
which warp's line was victimized, which warp's fill did the evicting), and
every co-design scheme — CCWS victim-tag arrays, WaSP prefetch-lead
control, CIAO interference detection, CAWA's CACP coupling — is a
*consumer-side* policy over these three kinds.  Extending the schema means
appending new kinds or new trailing fields and bumping
:data:`SCHEMA_VERSION`, never renumbering or reordering.

Determinism contract (``tests/test_feedback_determinism.py``): the signal
multiset and the per-SM delivery order are identical across execute/trace
frontends.
Cross-stream comparisons go through :func:`sort_signals` — the same
canonical ``(cycle, sm, kind, fields)`` order the obs layer uses —
because serial emission order is not cycle-sorted (signals are stamped
with the LSU issue time, which can run ahead of the emitting tick).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Sequence, Tuple

#: Bumped when a kind is appended or a payload grows a trailing field.
SCHEMA_VERSION = 1

#: ``level`` payload values (same convention as the obs cache events).
LEVEL_L1D = 0
LEVEL_L2 = 1


class Sig(enum.IntEnum):
    """Feedback signal kinds.  Values are stable wire codes."""

    #: A cache miss: the requesting warp's locality probe point (CCWS
    #: checks the warp's victim tag array exactly here).
    MISS = 1
    #: A line allocated for the requesting warp.
    FILL = 2
    #: A valid line evicted to make room for a fill.  Carries *both*
    #: identities: the victim (the warp whose line is lost — feeds CCWS
    #: victim tag arrays) and the evictor (the warp whose fill displaced
    #: it — feeds CIAO interference scores).
    EVICT = 3


#: Leading fields shared by every signal.
COMMON_FIELDS: Tuple[str, ...] = ("kind", "cycle", "sm")

#: kind -> payload field names (after the common prefix).
SIGNAL_FIELDS: Dict[Sig, Tuple[str, ...]] = {
    Sig.MISS: ("level", "block", "warp", "line_addr", "pc"),
    Sig.FILL: ("level", "block", "warp", "line_addr", "critical"),
    Sig.EVICT: (
        "level",
        "victim_block",
        "victim_warp",
        "line_addr",
        "reused",
        "evictor_block",
        "evictor_warp",
    ),
}


class SignalSchemaError(ValueError):
    """A signal record does not match :data:`SIGNAL_FIELDS`."""


def validate_signal(record: Sequence[object]) -> None:
    """Raise :class:`SignalSchemaError` unless ``record`` fits the schema."""
    if len(record) < len(COMMON_FIELDS):
        raise SignalSchemaError(
            f"signal too short: {record!r} (need at least "
            f"{len(COMMON_FIELDS)} common fields)"
        )
    try:
        kind = Sig(int(record[0]))  # type: ignore[call-overload]
    except (ValueError, TypeError) as exc:
        raise SignalSchemaError(
            f"unknown signal kind {record[0]!r} in {record!r}"
        ) from exc
    expected = len(COMMON_FIELDS) + len(SIGNAL_FIELDS[kind])
    if len(record) != expected:
        raise SignalSchemaError(
            f"{kind.name} signal has {len(record)} fields, schema v"
            f"{SCHEMA_VERSION} expects {expected}: {record!r}"
        )


def validate_signals(records: Iterable[Sequence[object]]) -> int:
    """Validate a stream; returns the number of records checked."""
    count = 0
    for record in records:
        validate_signal(record)
        count += 1
    return count


def signal_to_dict(record: Sequence[object]) -> Dict[str, object]:
    """Expand one record into a field-name dict (exports, debugging)."""
    validate_signal(record)
    kind = Sig(int(record[0]))  # type: ignore[call-overload]
    names = COMMON_FIELDS + SIGNAL_FIELDS[kind]
    out: Dict[str, object] = dict(zip(names, record))
    out["kind"] = kind.name
    return out


def _sort_key(record: Sequence[object]) -> Tuple[object, ...]:
    return (record[1], record[2], record[0], tuple(record[3:]))


def sort_signals(records: Iterable[Sequence[object]]) -> List[tuple]:
    """Canonical deterministic order: ``(cycle, sm, kind, fields)``."""
    return sorted((tuple(r) for r in records), key=_sort_key)


def schema_table() -> str:
    """Human-readable schema dump (``repro schemes --signals``)."""
    lines = [f"feedback signal schema v{SCHEMA_VERSION}"]
    for kind in Sig:
        fields = ", ".join(COMMON_FIELDS + SIGNAL_FIELDS[kind])
        lines.append(f"  {int(kind):2d}  {kind.name:<6} ({fields})")
    return "\n".join(lines)
