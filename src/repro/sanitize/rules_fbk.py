"""FBK001 — every feedback signal kind has a publish site, and vice versa.

The scheduler–cache co-design contract (docs/schemes.md) is the same
shape as the observability one: schedulers (ccws/wasp/ciao) change issue
decisions based on the signals the caches publish, so a kind nobody
publishes is a scheme silently starved of its input, not a missing log
line.

This rule reuses the OBS001 coverage engine
(:func:`repro.sanitize.rules_obs.iter_coverage_hits`) parameterized for the
channel idiom:

    fb.publish((_SIG_EVICT, ...))        # module-level alias
    ch.publish((Sig.FILL, ...))          # direct enum head
    _SIG_EVICT = int(Sig.EVICT)          # the alias declaration

and enforces **kind coverage** — when the tree defines ``Sig``, every
member has at least one publish site and every published kind is a
member.
"""

from __future__ import annotations

from typing import Iterator

from ..analysis.common import Severity
from .registry import Hit, SanitizeContext, rule
from .rules_obs import KindSpec, iter_coverage_hits

FBK_SPEC = KindSpec(
    enum_name="Sig",
    methods=frozenset({"publish", "publish_checked"}),
    dead_msg="dead schema entries rot the channel and its subscribers",
)


@rule(
    "FBK001",
    Severity.ERROR,
    "signal kind without a publish site, or publish of an unknown kind",
)
def check_signal_coverage(ctx: SanitizeContext) -> Iterator[Hit]:
    yield from iter_coverage_hits(ctx, FBK_SPEC)
