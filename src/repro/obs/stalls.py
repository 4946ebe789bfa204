"""Per-warp stall-cycle accounting from the event stream.

:class:`StallAccounting` is a bus collector (attach with
:meth:`~repro.obs.bus.EventBus.attach`) that decomposes each warp's
lifetime into *issue* cycles and per-reason *stall* buckets — the paper's
Fig 2c / §3 "why is the critical warp slow" breakdown, reconstructed
purely from :data:`~repro.obs.events.Ev.WARP_ISSUE` /
:data:`~repro.obs.events.Ev.WARP_STALL` events.

The accounting identity: for every issued instruction the gap since the
warp's previous issue is split into ``barrier`` (parked at the block
barrier), ``mem_pending`` / ``scoreboard_dep`` (operands not ready —
waiting on a load vs an ALU/SFU scoreboard entry), and ``no_slot``
(operand-ready but not selected: lost arbitration, MSHR gating).  Summing
issue cycles (one per issue) and all stall buckets therefore reproduces
each warp's active lifetime exactly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .events import Ev, STALL_NAMES, Stall

WarpKey = Tuple[int, int, int]  # (sm, block, warp)

_ISSUE = int(Ev.WARP_ISSUE)
_STALL = int(Ev.WARP_STALL)
_FINISH = int(Ev.WARP_FINISH)


class StallAccounting:
    """Aggregates issue counts and per-reason stall cycles per warp."""

    def __init__(self) -> None:
        #: warp -> issue count.
        self.issues: Dict[WarpKey, int] = {}
        #: warp -> {reason code -> stalled cycles}.
        self.stalls: Dict[WarpKey, Dict[int, float]] = {}
        #: warp -> finish cycle (from WARP_FINISH).
        self.finishes: Dict[WarpKey, float] = {}

    # -- bus collector protocol -----------------------------------------
    def append(self, ev: Sequence) -> None:
        kind = ev[0]
        if kind == _ISSUE:
            key = (ev[2], ev[3], ev[4])
            self.issues[key] = self.issues.get(key, 0) + 1
        elif kind == _STALL:
            key = (ev[2], ev[3], ev[4])
            buckets = self.stalls.get(key)
            if buckets is None:
                buckets = self.stalls[key] = {}
            reason = ev[5]
            buckets[reason] = buckets.get(reason, 0.0) + ev[6]
        elif kind == _FINISH:
            self.finishes[(ev[2], ev[3], ev[4])] = ev[1]

    # -- aggregation ------------------------------------------------------
    def reason_totals(self) -> Dict[str, float]:
        """Total stalled cycles per reason name across all warps."""
        totals: Dict[int, float] = {}
        for buckets in self.stalls.values():
            for reason, cycles in buckets.items():
                totals[reason] = totals.get(reason, 0.0) + cycles
        return {
            STALL_NAMES.get(reason, str(reason)): cycles
            for reason, cycles in totals.items()
        }

    def issue_cycles(self) -> float:
        """Total issue cycles (one per issued warp instruction)."""
        return float(sum(self.issues.values()))

    def warp_cycles(self) -> float:
        """Total accounted warp-cycles: issue + every stall bucket.

        This is the denominator for the Fig 2c-style shares: each warp's
        active lifetime equals its issue cycles plus its stall cycles, so
        the sum over warps is the device's warp-cycle budget.
        """
        return self.issue_cycles() + sum(self.reason_totals().values())

    def shares(self) -> Dict[str, float]:
        """Fraction of total warp-cycles per stall reason (plus 'issue')."""
        total = self.warp_cycles()
        if total <= 0:
            return {}
        out = {"issue": self.issue_cycles() / total}
        for name, cycles in self.reason_totals().items():
            out[name] = cycles / total
        return out

    def top_reasons(self, n: int = 3) -> List[Tuple[str, float, float]]:
        """Top-``n`` stall reasons as ``(name, cycles, share_of_warp_cycles)``.

        Sorted by cycles descending, name ascending on ties (deterministic).
        """
        total = self.warp_cycles()
        rows = sorted(
            self.reason_totals().items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            (name, cycles, cycles / total if total > 0 else 0.0)
            for name, cycles in rows[:n]
        ]

    def per_warp(self) -> Dict[WarpKey, Dict[str, float]]:
        """Per-warp breakdown: issue cycles plus named stall buckets."""
        keys = set(self.issues) | set(self.stalls)
        out: Dict[WarpKey, Dict[str, float]] = {}
        for key in sorted(keys):
            row: Dict[str, float] = {"issue": float(self.issues.get(key, 0))}
            for reason, cycles in self.stalls.get(key, {}).items():
                row[STALL_NAMES.get(reason, str(reason))] = cycles
            out[key] = row
        return out

    def critical_warp(self) -> Tuple[WarpKey, Dict[str, float]]:
        """The warp with the largest accounted lifetime and its breakdown.

        The critical warp in the paper's sense: the one whose cycles
        dominate its block — ``repro events stats`` prints its breakdown
        next to the device-wide one.
        """
        per_warp = self.per_warp()
        if not per_warp:
            raise ValueError("no warp events recorded")
        key = max(per_warp, key=lambda k: (sum(per_warp[k].values()), k))
        return key, per_warp[key]

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (CLI ``--format json``, metric dumps)."""
        return {
            "warps": len(set(self.issues) | set(self.stalls)),
            "issue_cycles": self.issue_cycles(),
            "warp_cycles": self.warp_cycles(),
            "reason_totals": self.reason_totals(),
            "shares": self.shares(),
            "top_reasons": [
                {"reason": name, "cycles": cycles, "share": share}
                for name, cycles, share in self.top_reasons()
            ],
        }

    def format_table(self) -> str:
        """Device-wide stall breakdown as an aligned text table."""
        total = self.warp_cycles()
        lines = [
            f"{'bucket':<16} {'warp-cycles':>14} {'share':>8}",
        ]
        rows: List[Tuple[str, float]] = [("issue", self.issue_cycles())]
        rows.extend(
            sorted(self.reason_totals().items(), key=lambda kv: (-kv[1], kv[0]))
        )
        for name, cycles in rows:
            share = cycles / total if total > 0 else 0.0
            lines.append(f"{name:<16} {cycles:>14.0f} {share:>7.1%}")
        lines.append(f"{'total':<16} {total:>14.0f} {1.0:>7.1%}" if total > 0
                     else f"{'total':<16} {0.0:>14.0f} {'-':>8}")
        return "\n".join(lines)


#: Re-exported for collectors that want to name reasons themselves.
__all__ = [
    "StallAccounting",
    "Stall",
    "STALL_NAMES",
]
