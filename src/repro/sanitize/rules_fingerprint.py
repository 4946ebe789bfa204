"""FPR001 — fingerprint soundness of GPUConfig reads on the timing path.

The persistent result cache keys on :meth:`GPUConfig.fingerprint`, which
hashes every field *except* the declared
:data:`GPUConfig.FINGERPRINT_EXCLUDED` set — knobs that are bit-identical
by contract (frontend, events).  The
soundness invariant is:

    **timing-path code may read fingerprinted fields freely, but every
    read of an excluded field must be waived with a written rationale** —
    because if an excluded knob ever influenced cycle counts, two
    configurations sharing a cache entry would disagree about the result.

Two checks enforce it, both parsed statically (the analyzed tree is never
imported):

1. Every attribute read ``<config>.<field>`` in a timing-path module
   (``sm/``, ``memory/``, ``gpu/``, ``core/``, ``scheduling/``,
   ``simt/``; receiver named ``config``/``cfg``/``_config``/
   ``gpu_config``) where ``field`` is excluded must carry an FPR001
   waiver.
2. Every FPR001 waiver must actually cover an excluded-field read —
   otherwise it is **stale** and reported unwaivably.  This is what makes
   the exclusion list and the waivers move in lockstep: deleting an entry
   from ``FINGERPRINT_EXCLUDED`` (making the field fingerprinted, hence
   freely readable) turns its waivers stale and fails the run until they
   are removed too.

A new config field is fingerprinted by default (``fingerprint()`` hashes
everything not excluded), so new knobs are born sound; adding one to the
exclusion list is the reviewed, waiver-documented act.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..analysis.common import Severity
from .registry import Hit, SanitizeContext, hit, rule
from .source import terminal_name

#: Receiver names treated as "a GPUConfig instance".
CONFIG_RECEIVERS = frozenset({"config", "cfg", "_config", "gpu_config"})


@rule(
    "FPR001",
    Severity.ERROR,
    "unfingerprinted GPUConfig read on the timing path",
)
def check_fingerprint_soundness(ctx: SanitizeContext) -> Iterator[Hit]:
    facts = ctx.config
    if not facts.fields:
        # No GPUConfig in the analyzed tree: nothing to be sound about.
        return
    for module in ctx.tree.timing_modules():
        excluded_read_lines: Set[int] = set()
        hits: List[Hit] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            if node.attr not in facts.fields:
                continue
            receiver = terminal_name(node.value)
            if receiver not in CONFIG_RECEIVERS:
                continue
            if node.attr not in facts.excluded:
                continue  # fingerprinted: always sound to read
            excluded_read_lines.add(node.lineno)
            # Waived reads are still yielded — the driver marks them
            # suppressed, so JSON reports list every excluded read.
            hits.append(
                hit(
                    module,
                    node.lineno,
                    f"read of {node.attr!r}, which is excluded from "
                    "GPUConfig.fingerprint(), in a timing-path module; "
                    "excluded knobs must be timing-transparent — waive "
                    "with a rationale or fingerprint the field",
                )
            )
        yield from hits
        # Stale waivers: an FPR001 waiver that covers no excluded-field
        # read justifies nothing — most likely the exclusion list changed
        # under it.  Unwaivable by construction.
        for waiver in module.waivers.values():
            if "FPR001" not in waiver.rules:
                continue
            covered = {waiver.line, waiver.line + 1}
            if not covered & excluded_read_lines:
                yield hit(
                    module,
                    waiver.line,
                    "stale FPR001 waiver: no read of a "
                    "FINGERPRINT_EXCLUDED field on this or the next line "
                    "(was the field removed from the exclusion list?)",
                    waivable=False,
                )
