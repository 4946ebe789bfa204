"""Warp scheduler interface and the state every scheme shares."""

from __future__ import annotations

from typing import ClassVar, List, Optional

from ..simt.warp import Warp


def rotate(ready: List[Warp], last: Optional[Warp]) -> Warp:
    """Round robin: the first candidate past ``last`` (the warp the slot
    issued last), else the oldest."""
    if last is not None:
        last_id = last.dynamic_id
        for warp in ready:
            if warp.dynamic_id > last_id:
                return warp
    return ready[0]


class WarpScheduler:
    """Selects which ready warp issues next on one SM scheduler slot.

    The SM calls :meth:`select` once per issue opportunity with the warps
    whose next instruction has all operands ready, issues the warp it
    returns, and writes :attr:`last`.  A scheme is a pick over ``ready``
    and what the base keeps: greedy order (``last`` if it is a candidate
    again) and round-robin order (:func:`rotate`) derive from
    :attr:`last`.

    ``ready`` is in ascending ``dynamic_id`` (dispatch) order, so the
    oldest candidate is ``ready[0]``, an order-preserving filter of it is
    ordered too, and ``max`` / ``min`` break ties oldest-first.
    :meth:`select` neither mutates nor retains it: the SM may hand over
    its own ready pool.  Only RUNNING warps are candidates, so :attr:`last`
    may name a warp that has since exited without ever being picked again.
    """

    name = "base"

    #: One-line human description shown by ``repro list``.
    DESCRIPTION: ClassVar[str] = ""

    def __init__(self) -> None:
        #: The warp this slot issued last (written by the SM).
        self.last: Optional[Warp] = None

    def select(self, ready: List[Warp], now: float) -> Warp:
        """Pick one warp from ``ready`` (non-empty, ascending
        ``dynamic_id``, read-only) to issue at ``now``."""
        raise NotImplementedError
