"""Per-warp SIMT reconvergence stack.

Implements the classic immediate-post-dominator stack used by GPGPU-sim: the
top-of-stack entry holds the warp's current PC and active mask.  On a
divergent branch the current entry is replaced by a reconvergence entry (at
the branch's reconvergence PC, with the merged mask) plus one entry per
distinct outcome; paths execute serially and pop when they reach their
reconvergence PC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import SimulationError

#: Sentinel reconvergence PC for the base stack entry (never popped by PC match).
NO_RECONV = -1


@dataclass(slots=True)
class StackEntry:
    """One level of the reconvergence stack."""

    pc: int
    mask: int
    reconv_pc: int = NO_RECONV


class SIMTStack:
    """Reconvergence stack for one warp."""

    def __init__(self, entry_pc: int, mask: int) -> None:
        self._entries: List[StackEntry] = [StackEntry(entry_pc, mask)]

    @property
    def depth(self) -> int:
        return len(self._entries)

    @property
    def top(self) -> StackEntry:
        if not self._entries:
            raise SimulationError("SIMT stack underflow: warp has no active state")
        return self._entries[-1]

    @property
    def pc(self) -> int:
        try:
            return self._entries[-1].pc
        except IndexError:
            raise SimulationError(
                "SIMT stack underflow: warp has no active state"
            ) from None

    @property
    def active_mask(self) -> int:
        try:
            return self._entries[-1].mask
        except IndexError:
            raise SimulationError(
                "SIMT stack underflow: warp has no active state"
            ) from None

    @property
    def empty(self) -> bool:
        """True once every lane has exited."""
        return not self._entries or all(e.mask == 0 for e in self._entries)

    def advance(self, next_pc: int) -> None:
        """Move the top entry to ``next_pc``, popping at reconvergence points.

        Popping merges execution back into the parent entry, which by
        construction is parked at the same reconvergence PC.
        """
        entries = self._entries
        top = entries[-1]  # never empty: every pop keeps the base entry
        top.pc = next_pc
        if next_pc == top.reconv_pc:
            while len(entries) > 1 and entries[-1].pc == entries[-1].reconv_pc:
                entries.pop()

    def diverge(self, taken_pc: int, fallthrough_pc: int, taken_mask: int, reconv_pc: int) -> None:
        """Split the top entry on a divergent branch.

        Lanes in ``taken_mask`` go to ``taken_pc``; the rest fall through.
        Both subsets reconverge at ``reconv_pc``.  The fall-through subset is
        pushed last so it executes first (matching GPGPU-sim's ordering).
        """
        top = self.top
        current_mask = top.mask
        not_taken_mask = current_mask & ~taken_mask
        if taken_mask == 0 or not_taken_mask == 0:
            raise SimulationError(
                "diverge() called on a uniform branch "
                f"(taken={taken_mask:x} of {current_mask:x})"
            )
        # Repurpose the current entry as the reconvergence entry: it waits at
        # reconv_pc with the merged mask and keeps its own reconvergence PC.
        top.pc = reconv_pc
        self._entries.append(StackEntry(taken_pc, taken_mask, reconv_pc))
        self._entries.append(StackEntry(fallthrough_pc, not_taken_mask, reconv_pc))
        # A path that starts at its own reconvergence point (e.g. a loop-exit
        # branch targeting the loop end) has nothing to execute; pop it now.
        while len(self._entries) > 1 and self.top.pc == self.top.reconv_pc:
            self._entries.pop()

    def kill_lanes(self, mask: int) -> None:
        """Remove lanes in ``mask`` from every entry (thread EXIT)."""
        keep = ~mask
        for entry in self._entries:
            entry.mask &= keep
        # Drop dead entries on top so the warp does not "execute" with an
        # all-zero mask.
        while len(self._entries) > 1 and self.top.mask == 0:
            self._entries.pop()

    def active_lane_count(self) -> int:
        return self.active_mask.bit_count()

    def snapshot(self) -> List[StackEntry]:
        """Copy of the entries, bottom to top (for tests/debugging)."""
        return [StackEntry(e.pc, e.mask, e.reconv_pc) for e in self._entries]
