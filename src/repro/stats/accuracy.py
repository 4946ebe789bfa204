"""Accuracy metrics: CPL prediction scoring and estimator error measures.

Two families live here:

* :class:`CriticalityAccuracyTracker` — the paper's Figure 11 protocol:
  sample CPL verdicts during the run and check, after the block commits,
  how often the *actually* critical warp (slowest by measured execution
  time) had been flagged as a slow warp (criticality above the block
  median).  An event-bus collector: a sample is one ``CPL_VERDICT``
  record, emitted at each refresh of a block's verdicts (every
  ``cpl_update_period`` = 64 issues of the block).
* Estimator error measures (:func:`relative_error`,
  :class:`EstimateError`) — shared by the sampling calibration harness
  (:mod:`repro.sampling.calibrate`) and the sampled-replay reports: how
  far a :class:`~repro.stats.sampling.SampledRunResult` estimate landed
  from the exact run, and whether the exact value fell inside the
  estimate's confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

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


# ----------------------------------------------------------------------
# Estimator error measures (sampled replay calibration)
# ----------------------------------------------------------------------
def relative_error(estimate: float, exact: float) -> float:
    """``|estimate - exact| / |exact|``, with the zero-denominator edge.

    An exact value of zero scores 0.0 when the estimate agrees and
    ``inf`` otherwise — an infinite relative error can never pass a
    calibration target, which is the safe failure mode.
    """
    if exact == 0:
        return 0.0 if estimate == 0 else float("inf")
    return abs(estimate - exact) / abs(exact)


def interval_covers(lo: float, hi: float, exact: float) -> bool:
    """True when ``exact`` lies inside the closed interval ``[lo, hi]``."""
    return lo <= exact <= hi


@dataclass
class EstimateError:
    """One metric's sampled-vs-exact comparison (JSON round-trippable)."""

    metric: str
    exact: float
    estimate: float
    lo: float
    hi: float

    @property
    def rel_error(self) -> float:
        return relative_error(self.estimate, self.exact)

    @property
    def covered(self) -> bool:
        return interval_covers(self.lo, self.hi, self.exact)

    def to_dict(self) -> Dict:
        return {
            "metric": self.metric,
            "exact": self.exact,
            "estimate": self.estimate,
            "lo": self.lo,
            "hi": self.hi,
            "rel_error": self.rel_error,
            "covered": self.covered,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "EstimateError":
        return cls(
            metric=data["metric"],
            exact=data["exact"],
            estimate=data["estimate"],
            lo=data["lo"],
            hi=data["hi"],
        )


def compare_results(
    sampled, exact, metrics: Iterable[str]
) -> Dict[str, EstimateError]:
    """Per-metric :class:`EstimateError` for a sampled/exact result pair.

    ``sampled`` is a :class:`~repro.stats.sampling.SampledRunResult`
    (metrics answered from its ``ci`` point estimates and intervals);
    ``exact`` is any :class:`~repro.stats.counters.RunResult`.
    """
    from .sampling import metric_value

    errors: Dict[str, EstimateError] = {}
    for name in metrics:
        estimate = metric_value(sampled, name)
        ci = getattr(sampled, "ci", {}).get(name)
        lo = ci.lo if ci is not None else estimate
        hi = ci.hi if ci is not None else estimate
        errors[name] = EstimateError(
            metric=name,
            exact=metric_value(exact, name),
            estimate=estimate,
            lo=lo,
            hi=hi,
        )
    return errors


def max_rel_error(errors: Dict[str, EstimateError]) -> float:
    """Largest relative error across a comparison set (0.0 when empty)."""
    if not errors:
        return 0.0
    return max(err.rel_error for err in errors.values())
