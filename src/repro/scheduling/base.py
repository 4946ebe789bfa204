"""Warp scheduler interface and the state every scheme shares."""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from ..simt.warp import Warp


def warp_key(warp: Warp) -> Tuple[int, int]:
    """``(block_id, warp_id_in_block)``: the warp identity cache records
    and the CAWS oracle carry."""
    return warp.block.block_id, warp.warp_id_in_block


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
    whose next instruction has all operands ready, and writes :attr:`last`
    when the selected warp issues.  A scheme is a filter plus a pick over
    what the base keeps: greedy order (``last`` if it is a candidate
    again) and round-robin order (:func:`rotate`) derive from
    :attr:`last`, and :attr:`warps` holds the slot's resident warps (or
    the per-warp state ``TRACK`` builds).

    ``ready`` is in ascending ``dynamic_id`` (dispatch) order, so the
    oldest candidate is ``ready[0]``, an order-preserving filter of it is
    ordered too, and ``max`` / ``min`` break ties oldest-first.
    :meth:`select` neither mutates nor retains it: the SM may hand over
    its own ready pool.  Only RUNNING warps are candidates, so :attr:`last`
    may name a warp that has since exited without ever being picked again.

    Cache co-design schemes additionally declare the L1 cache record kinds
    they consume in :attr:`FEEDBACK_KINDS`; the device wiring
    (:func:`repro.feedback.l1_sink`) hands :meth:`on_signal` the SM's L1
    records of exactly those kinds, in scheduler-slot order.  ``select``
    may return ``None`` to decline the issue slot (active-warp
    throttling); the device loop treats a decline as "re-tick this SM
    next cycle".
    """

    name = "base"

    #: One-line human description shown by ``repro schemes``.
    DESCRIPTION: ClassVar[str] = ""

    #: L1 cache record kinds (``repro.obs.Ev`` codes) this scheme
    #: subscribes to; empty means the scheme reads no cache records.
    FEEDBACK_KINDS: ClassVar[Tuple[int, ...]] = ()

    #: Builds a resident warp's entry in :attr:`warps`; ``None`` stores
    #: the warp itself.
    TRACK: ClassVar[Optional[Callable[[Warp], Any]]] = None

    def __init__(self) -> None:
        #: The warp this slot issued last (written by the SM).
        self.last: Optional[Warp] = None
        #: ``warp_key -> TRACK(warp)`` for the slot's resident warps.
        self.warps: Dict[Tuple[int, int], Any] = {}

    def on_signal(self, record: tuple) -> None:
        """Receive one subscribed L1 record (schema v2), in decision order."""

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        """Pick one warp from ``ready`` (non-empty, ascending
        ``dynamic_id``, read-only) to issue at ``now``."""
        raise NotImplementedError

    def notify_warp_added(self, warp: Warp) -> None:
        """Called when a block dispatch makes ``warp`` resident."""
        track = type(self).TRACK  # read off the class: a function stays unbound
        self.warps[warp_key(warp)] = warp if track is None else track(warp)

    def notify_warp_finished(self, warp: Warp) -> None:
        """Called when ``warp`` exits."""
        self.warps.pop(warp_key(warp), None)
