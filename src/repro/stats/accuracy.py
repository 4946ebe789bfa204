"""Accuracy metrics: CPL prediction scoring.

:class:`CriticalityAccuracyTracker` is the paper's Figure 11 protocol:
sample CPL verdicts during the run and check, after the block commits, how
often the *actually* critical warp (slowest by measured execution time)
had been flagged as a slow warp (criticality above the block median).  An
event-bus collector: a sample is one ``CPL_VERDICT`` record, emitted at
each refresh of a block's verdicts (every ``cpl_update_period`` = 64
issues of the block).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..obs.events import Ev

BlockKey = Tuple[int, int]  # (sm_id, block_id)

_EV_CPL_VERDICT = int(Ev.CPL_VERDICT)


@dataclass
class _BlockSamples:
    samples: int = 0
    flagged_slow: Dict[int, int] = field(default_factory=dict)  # warp_id -> count


class CriticalityAccuracyTracker:
    """Bus collector counting, per block, CPL's verdict samples and how
    often each warp was flagged slow in them."""

    def __init__(self) -> None:
        self._samples: Dict[BlockKey, _BlockSamples] = {}

    # Event-bus collector interface --------------------------------------
    def append(self, ev: tuple) -> None:
        """``(CPL_VERDICT, cycle, sm, block, warps)`` records count; every
        other record is ignored."""
        if ev[0] != _EV_CPL_VERDICT:
            return
        record = self._samples.setdefault((ev[2], ev[3]), _BlockSamples())
        record.samples += 1
        flagged = record.flagged_slow
        for warp, _, critical in ev[4]:
            if critical:
                flagged[warp] = flagged.get(warp, 0) + 1

    # Post-run scoring ---------------------------------------------------
    def accuracy(self, result) -> float:
        """Fraction of samples in which the true critical warp was flagged.

        Blocks with fewer than two warps are trivially predicted (the
        paper's footnote on needle: 100% accuracy when a block has only one
        or two warps); they score 1 per sample.
        """
        total_samples = 0
        correct = 0.0
        for block in result.blocks:
            times = [(w.execution_time, w.warp_id_in_block) for w in block.warps]
            if not times:
                continue
            critical_id = max(times)[1]
            for key, record in self._samples.items():
                if key[1] != block.block_id:
                    continue
                total_samples += record.samples
                if len(block.warps) <= 2:
                    correct += record.samples
                else:
                    correct += record.flagged_slow.get(critical_id, 0)
        return correct / total_samples if total_samples else 1.0
