"""Named CAWA schemes: config transforms for every scheme the paper evaluates.

A *scheme* bundles a warp scheduler choice with the L1D management choice,
e.g. ``"cawa"`` = gCAWS + CACP (the full coordinated design), ``"gto+cacp"``
= the Figure 16/17 sweep point where CACP assists a criticality-oblivious
scheduler (criticality verdicts still come from CPL, as in the paper).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from ..config import GPUConfig

#: scheme name -> (scheduler name, use CACP)
SCHEMES: Dict[str, tuple] = {
    "rr": ("lrr", False),
    "gto": ("gto", False),
    "two_level": ("two_level", False),
    "caws": ("caws", False),
    "gcaws": ("gcaws", False),
    "cawa": ("gcaws", True),
    "rr+cacp": ("lrr", True),
    "gto+cacp": ("gto", True),
    "two_level+cacp": ("two_level", True),
    # Extension: CAWA plus L1 bypass of non-critical no-reuse fills.
    "cawa+bypass": ("gcaws", True),
    # Extension: CAWA plus MSHR entries reserved for critical warps.
    "cawa+mshr": ("gcaws", True),
    # Co-design schemes consuming L1 cache records (repro.feedback):
    # CCWS locality-aware throttling, WaSP prefetch-mimicking priority,
    # CIAO interference-aware throttling.  See docs/schemes.md.
    "ccws": ("ccws", False),
    "wasp": ("wasp", False),
    "ciao": ("ciao", False),
}


def apply_scheme(config: GPUConfig, scheme: str) -> GPUConfig:
    """Return ``config`` reconfigured for the named scheme.

    Equal to ``config.with_scheduler(s).with_cacp(c)`` plus the extension
    knobs, built with one ``replace`` so validation runs once.
    """
    try:
        scheduler, use_cacp = SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}"
        ) from None
    l1d = config.l1d
    critical_ways = l1d.ways // 2 if use_cacp else 0
    if l1d.critical_ways != critical_ways:
        l1d = replace(l1d, critical_ways=critical_ways)
    changes = dict(scheduler_name=scheduler, use_cacp=use_cacp, l1d=l1d)
    if scheme.endswith("+bypass"):
        changes["cacp_bypass"] = True
    if scheme.endswith("+mshr"):
        changes["critical_mshr_reserve"] = max(1, l1d.mshr_entries // 4)
    return replace(config, **changes)
