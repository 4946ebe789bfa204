"""FeedbackChannel: the scheduler–cache co-design coupling point.

One :class:`FeedbackChannel` per SM (plus one device-level channel for the
shared L2 when a tap is attached).  Caches *publish* plain signal tuples
(see :mod:`repro.feedback.signals`); schedulers *subscribe* by declaring
the signal kinds they care about (``WarpScheduler.FEEDBACK_KINDS``) and
receive each matching record synchronously, in publish order, via
``on_signal``.

Determinism contract
--------------------
Delivery order per SM is the cache access order of that SM's timing
model, which the parity grid already pins down as identical across
execute/trace frontends.  Handler order within one
record is scheduler-slot order — a fixed function of the config.  L2
signals are only ever *recorded* (schedulers are per-SM and subscribe to
L1 locality, never to the shared L2).

Criticality
-----------
CAWA's scheduler→CACP coupling (the MSHR-reserve gate and the LSU asking
"is this warp critical?") rides the channel too: it carries a
``criticality`` provider — the CPL predictor's ``is_critical`` bound
method — and :func:`wire_gpu_feedback` is the one place that binds the
SM's ``_is_critical`` query from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from .signals import Sig, validate_signal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..gpu.gpu import GPU
    from ..simt.warp import Warp

#: A subscriber callback: receives one signal record tuple.
Handler = Callable[[tuple], None]

#: A criticality provider: ``fn(warp) -> bool``.
CriticalityFn = Callable[["Warp"], bool]


class SignalTap:
    """Passive recorder attached to channels (tests, ``record_signals``);
    appends are O(1) on the hot path."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[tuple] = []

    def append(self, record: tuple) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)


class FeedbackChannel:
    """Per-SM typed publish/subscribe bus between caches and schedulers."""

    __slots__ = ("sm_id", "_handlers", "tap", "criticality")

    def __init__(self, sm_id: int) -> None:
        self.sm_id = sm_id
        #: kind -> handlers in subscription (= scheduler slot) order.
        self._handlers: Dict[int, List[Handler]] = {}
        self.tap: Optional[SignalTap] = None
        self.criticality: Optional[CriticalityFn] = None

    # -- subscription side -------------------------------------------------

    def subscribe(self, kinds: Iterable[int], handler: Handler) -> None:
        """Register ``handler`` for each kind in ``kinds``.

        Subscription order is delivery order; callers subscribe in
        scheduler-slot order so delivery is a pure function of config.
        """
        for kind in kinds:
            kind_i = int(Sig(kind))  # validate: unknown kinds fail loudly
            self._handlers.setdefault(kind_i, []).append(handler)

    def has_subscribers(self) -> bool:
        return bool(self._handlers)

    def subscribed_kinds(self) -> Tuple[int, ...]:
        return tuple(sorted(self._handlers))

    def provide_criticality(self, fn: CriticalityFn) -> None:
        """Publish a warp-criticality oracle (the CAWA CPL predictor)."""
        self.criticality = fn

    # -- publish side (hot path) -------------------------------------------

    def publish(self, record: tuple) -> None:
        """Deliver ``record`` to subscribers of its kind, then the tap.

        The caller guarantees the record matches the signal schema; the
        schema is enforced by the FBK001 sanitize rule at the publish
        sites and by ``validate_signal`` in the test harness, not here —
        this is the per-access hot path.
        """
        handlers = self._handlers.get(record[0])
        if handlers is not None:
            for handler in handlers:
                handler(record)
        tap = self.tap
        if tap is not None:
            tap.append(record)

    def publish_checked(self, record: tuple) -> None:
        """Schema-validating publish (harness/debug use only)."""
        validate_signal(record)
        self.publish(record)


# -- device wiring ----------------------------------------------------------


def wire_gpu_feedback(gpu: "GPU") -> None:
    """Build per-SM channels and connect caches and schedulers.

    Called by ``GPU.__init__`` after SM construction.  L1 publish hooks
    are only armed when at least one scheduler on that SM declared an
    interest (or a tap is attached later) so schemes that ignore feedback
    pay nothing.
    """
    for sm in gpu.sms:
        ch = FeedbackChannel(sm.sm_id)
        sm.feedback = ch
        if sm.cpl is not None:
            ch.provide_criticality(sm.cpl.is_critical)
            sm._is_critical = ch.criticality
        subscribed = False
        for sched in sm.schedulers:
            kinds = getattr(sched, "FEEDBACK_KINDS", ())
            if kinds:
                ch.subscribe(kinds, sched.on_signal)
                subscribed = True
        if subscribed:
            _wire_l1(sm, ch)


def _wire_l1(sm: object, ch: FeedbackChannel) -> None:
    l1d = getattr(sm, "l1d", None)
    if l1d is not None:
        l1d.fb = ch
        l1d.fb_owner = ch.sm_id
        l1d.fb_level = 0


def attach_signal_tap(gpu: "GPU", tap: SignalTap) -> FeedbackChannel:
    """Record every published signal (L1 of each SM + shared L2) to ``tap``.

    Returns the device-level channel created for the L2.
    """
    for sm in gpu.sms:
        ch = sm.feedback
        ch.tap = tap
        _wire_l1(sm, ch)
    device_ch = FeedbackChannel(-1)
    device_ch.tap = tap
    l2 = gpu.hierarchy.l2.cache
    l2.fb = device_ch
    l2.fb_owner = -1  # L2 signals carry the *requesting* SM id
    l2.fb_level = 1
    return device_ch

