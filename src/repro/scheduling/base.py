"""Warp scheduler interface."""

from __future__ import annotations

from typing import ClassVar, List, Optional, Tuple

from ..simt.warp import Warp


class WarpScheduler:
    """Selects which ready warp issues next on one SM scheduler slot.

    The SM calls :meth:`select` once per issue opportunity with the warps
    whose next instruction has all operands ready.  Schedulers are stateful
    (round-robin pointers, greedy targets, criticality ranks) and are
    notified of issues and warp lifecycle events.

    ``ready`` is in ascending ``dynamic_id`` (dispatch) order, so the
    oldest candidate is ``ready[0]``, an order-preserving filter of it is
    ordered too, and a first-best scan breaks ties oldest-first.
    :meth:`select` neither mutates nor retains it: the SM may hand over
    its own ready pool.

    Cache co-design schemes additionally declare the feedback signal kinds
    they consume in :attr:`FEEDBACK_KINDS`; the device wiring
    (:func:`repro.feedback.wire_gpu_feedback`) subscribes
    :meth:`on_signal` to the SM's FeedbackChannel for exactly those kinds,
    in scheduler-slot order.  ``select`` may return ``None`` to decline the
    issue slot (active-warp throttling); the device loop treats a decline
    as "re-tick this SM next cycle".
    """

    name = "base"

    #: One-line human description shown by ``repro schemes``.
    DESCRIPTION: ClassVar[str] = ""

    #: Feedback signal kinds (``repro.feedback.Sig`` values) this scheme
    #: subscribes to; empty means the scheme never touches the channel.
    FEEDBACK_KINDS: ClassVar[Tuple[int, ...]] = ()

    def on_signal(self, record: tuple) -> None:
        """Receive one subscribed feedback signal (publish order)."""

    def select(self, ready: List[Warp], now: float) -> Optional[Warp]:
        """Pick one warp from ``ready`` (non-empty, ascending
        ``dynamic_id``, read-only) to issue at ``now``."""
        raise NotImplementedError

    def notify_issue(self, warp: Warp, now: float) -> None:
        """Called after ``warp`` issues an instruction."""

    def notify_warp_added(self, warp: Warp) -> None:
        """Called when a block dispatch makes ``warp`` resident."""

    def notify_warp_finished(self, warp: Warp) -> None:
        """Called when ``warp`` exits."""
