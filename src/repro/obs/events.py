"""Typed, versioned event schema for the observability subsystem.

Every probe in the simulator's hot paths (SM issue, stall accounting, L1D,
MSHR, L2 banks, DRAM, CPL, CACP) emits one *event record*: a plain tuple

    (kind, cycle, sm_id, *fields)

where ``kind`` is an :class:`Ev` code, ``cycle`` the device cycle the event
is stamped with, and ``sm_id`` the originating SM (``-1`` for device-level
components such as the shared L2 tag array).  Tuples — not dataclasses —
keep emission near-free on the hot path and make records trivially
JSON-serializable (Chrome-trace and JSON export).

The schema is *versioned* (:data:`SCHEMA_VERSION`): the per-kind field
lists below are a contract checked by :func:`validate_events` and
rendered by :mod:`repro.obs.export`.  Extending the schema means
appending new kinds or new trailing fields and bumping the version.  v2 appended warp
attribution to the cache miss / fill / evict records: they are the one
record of a cache decision (:func:`repro.feedback.record_signals` keeps
them).  v3 added
``CPL_VERDICT``, the one record of CPL's periodic slow-warp verdicts (the
Fig 11 and Fig 12 collectors read it); its ``warps`` field is the one
nested field of the schema.  v4 removed kind 14, the L1 bypass record,
with the bypass extension that was its only emitter; the value stays
retired.

See ``docs/observability.md`` for the full schema table and the
stall-reason taxonomy.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Sequence, Tuple

#: Bump on any change to event kinds or their field lists.
SCHEMA_VERSION = 4

#: ``level`` field values for cache events.
LEVEL_L1D = 0
LEVEL_L2 = 1

LEVEL_NAMES = {LEVEL_L1D: "L1D", LEVEL_L2: "L2"}


class Ev(enum.IntEnum):
    """Event kinds.  Values are stable across releases (wire format)."""

    # -- warp lifecycle / issue ----------------------------------------
    WARP_START = 1
    WARP_ISSUE = 2
    WARP_STALL = 3
    WARP_FINISH = 4
    # -- L1D / L2 tag arrays -------------------------------------------
    CACHE_HIT = 10
    CACHE_MISS = 11
    CACHE_FILL = 12
    CACHE_EVICT = 13
    # 14 was the L1 bypass record (schema v3 and older): never reuse it.
    # -- MSHR file ------------------------------------------------------
    MSHR_ALLOC = 20
    MSHR_MERGE = 21
    MSHR_FULL = 22
    # -- shared memory side ----------------------------------------------
    L2_BANK = 30
    DRAM_ENQ = 31
    DRAM_SERVICE = 32
    # -- CAWA components --------------------------------------------------
    CPL_DELTA = 40
    CACP_INSERT = 41
    CACP_PROMOTE = 42
    CPL_VERDICT = 43
    # -- LSU --------------------------------------------------------------
    LSU_ISSUE = 50


class Stall(enum.IntEnum):
    """Stall-reason taxonomy for :data:`Ev.WARP_STALL` (Paper Fig 2c/§3).

    ``EMPTY_IBUFFER`` is part of the taxonomy for completeness with the
    paper's breakdown but is *reserved* in this simulator: the
    functional-at-issue pipeline has no fetch/decode stage, so an empty
    instruction buffer cannot occur (the count is always zero).
    """

    SCOREBOARD_DEP = 0  # operands waiting on an ALU/SFU scoreboard entry
    NO_SLOT = 1         # operand-ready but lost scheduler arbitration / gated
    MEM_PENDING = 2     # operands waiting on an outstanding load
    BARRIER = 3         # parked at the block barrier
    EMPTY_IBUFFER = 4   # reserved (see class docstring)


STALL_NAMES: Dict[int, str] = {
    Stall.SCOREBOARD_DEP: "scoreboard_dep",
    Stall.NO_SLOT: "no_slot",
    Stall.MEM_PENDING: "mem_pending",
    Stall.BARRIER: "barrier",
    Stall.EMPTY_IBUFFER: "empty_ibuffer",
}


#: Per-kind field names *after* the common ``(kind, cycle, sm_id)`` prefix.
#: This is the schema contract: ``validate_events`` checks arity against it
#: and exporters use the names for CSV headers and slice arguments.
EVENT_FIELDS: Dict[Ev, Tuple[str, ...]] = {
    Ev.WARP_START: ("block", "warp"),
    Ev.WARP_ISSUE: ("block", "warp", "pc", "op"),
    # ``start`` is the first cycle of the stalled interval; ``cycle`` (the
    # common field) is the issue cycle that *ended* the stall.
    Ev.WARP_STALL: ("block", "warp", "reason", "cycles", "start"),
    Ev.WARP_FINISH: ("block", "warp"),
    Ev.CACHE_HIT: ("level", "pc", "line_addr", "critical"),
    # ``block, warp``: the requesting warp.  An eviction names both the
    # warp whose line is lost (``victim_*``, -1 when unattributed) and the
    # warp whose fill displaced it (``evictor_*``).
    Ev.CACHE_MISS: ("level", "pc", "line_addr", "critical", "block", "warp"),
    Ev.CACHE_FILL: ("level", "line_addr", "critical", "block", "warp"),
    Ev.CACHE_EVICT: ("level", "line_addr", "reused", "victim_block",
                     "victim_warp", "evictor_block", "evictor_warp"),
    Ev.MSHR_ALLOC: ("line_addr", "completion", "outstanding"),
    Ev.MSHR_MERGE: ("line_addr", "completion"),
    Ev.MSHR_FULL: ("outstanding", "free_at"),
    Ev.L2_BANK: ("bank", "hit", "wait"),
    Ev.DRAM_ENQ: ("wait",),
    Ev.DRAM_SERVICE: ("completion",),
    Ev.CPL_DELTA: ("block", "warp", "delta", "criticality"),
    Ev.CACP_INSERT: ("signature", "critical", "rrpv"),
    Ev.CACP_PROMOTE: ("signature", "critical"),
    # Emitted at the end of an issue that refreshed ``block``'s verdicts:
    # ``warps`` is one ``(warp, criticality, critical)`` triple per
    # unfinished warp of the block, in warp order (empty once it commits).
    Ev.CPL_VERDICT: ("block", "warps"),
    Ev.LSU_ISSUE: ("block", "warp", "pc", "lines", "completion"),
}

#: Common prefix of every record.
COMMON_FIELDS: Tuple[str, ...] = ("kind", "cycle", "sm")


class SchemaError(ValueError):
    """An event record (or the schema itself) is malformed."""


def validate_schema() -> None:
    """Internal consistency check of the schema tables.

    Raises :class:`SchemaError` on any inconsistency; the CI lint job runs
    this via ``repro events schema --check``.
    """
    for kind in Ev:
        if kind not in EVENT_FIELDS:
            raise SchemaError(f"event kind {kind.name} has no field list")
    for kind in EVENT_FIELDS:
        if not isinstance(kind, Ev):
            raise SchemaError(f"EVENT_FIELDS key {kind!r} is not an Ev")
    for reason in Stall:
        if reason not in STALL_NAMES:
            raise SchemaError(f"stall reason {reason.name} has no name")
    seen = set()
    for kind in Ev:
        if kind.value in seen:  # pragma: no cover - IntEnum forbids dupes
            raise SchemaError(f"duplicate event code {kind.value}")
        seen.add(kind.value)


def validate_events(events: Iterable[Sequence]) -> int:
    """Check every record against the schema; returns the record count.

    Raises :class:`SchemaError` on the first unknown kind, wrong arity, or
    non-numeric cycle/sm field.
    """
    count = 0
    for ev in events:
        count += 1
        if len(ev) < 3:
            raise SchemaError(f"record #{count} too short: {ev!r}")
        try:
            kind = Ev(ev[0])
        except ValueError:
            raise SchemaError(
                f"record #{count} has unknown event kind {ev[0]!r}"
            ) from None
        expected = 3 + len(EVENT_FIELDS[kind])
        if len(ev) != expected:
            raise SchemaError(
                f"record #{count} ({kind.name}) has {len(ev)} fields, "
                f"schema v{SCHEMA_VERSION} expects {expected}"
            )
        if not isinstance(ev[1], (int, float)):
            raise SchemaError(f"record #{count} cycle is not numeric: {ev[1]!r}")
        if not isinstance(ev[2], int):
            raise SchemaError(f"record #{count} sm is not an int: {ev[2]!r}")
        if kind is Ev.WARP_STALL:
            try:
                Stall(ev[5])
            except ValueError:
                raise SchemaError(
                    f"record #{count} has unknown stall reason {ev[5]!r}"
                ) from None
    return count


def event_to_dict(ev: Sequence) -> Dict[str, object]:
    """Name the fields of one record (debugging / JSON metric dumps)."""
    kind = Ev(ev[0])
    out: Dict[str, object] = {
        "kind": kind.name,
        "cycle": ev[1],
        "sm": ev[2],
    }
    for name, value in zip(EVENT_FIELDS[kind], ev[3:]):
        if name == "reason":
            value = STALL_NAMES.get(int(value), str(value))
        elif name == "level":
            value = LEVEL_NAMES.get(int(value), str(value))
        out[name] = value
    return out


def schema_table() -> List[Tuple[str, int, Tuple[str, ...]]]:
    """(name, code, fields) rows for docs and ``repro events schema``."""
    return [(kind.name, int(kind), EVENT_FIELDS[kind]) for kind in Ev]
