"""repro.analysis — static analysis of finalized kernels.

A correctness layer over :mod:`repro.isa` programs.  CAWA's criticality
predictor (paper Section 3.1, Algorithm 2) infers remaining path length
purely from static PCs — branch target and reconvergence point — so the
whole scheme silently depends on structural invariants of the PTX-like
kernels.  This package checks those invariants *at build/lint time* instead
of letting them surface as obscure SIMT-stack corruption deep inside a
simulation:

:mod:`repro.analysis.cfg`
    Basic-block control-flow graph construction from BRA/RECONV/BAR/EXIT,
    with dominators, reachability, and reconvergence-region computation.

:mod:`repro.analysis.dataflow`
    Forward def-before-use analysis for registers and predicates, backward
    liveness (dead-write detection), block-uniformity (divergence)
    analysis, and an affine abstract interpretation of address arithmetic.

:mod:`repro.analysis.common`
    Shared finding/report/registry machinery — stable rule IDs,
    severities, waiver-aware pass/fail logic, text/JSON rendering — used
    both by the kernel linter below and by :mod:`repro.sanitize`, the
    static checker that points the same design at the simulator's own
    source tree.

:mod:`repro.analysis.lints`
    A rule registry with stable IDs and severities: unreachable blocks,
    ill-nested reconvergence, barrier-divergence hazards, infinite-loop
    candidates, coalescing-hostile strides, out-of-bounds constant
    addressing, and CPL path-size consistency.

:mod:`repro.analysis.pathlen`
    Static min/max remaining-instruction bounds per PC (interval analysis
    over the CFG), exported both as a lint and as
    :class:`~repro.analysis.pathlen.CheckedCriticalityPredictor`, a
    drop-in CPL predictor that asserts at runtime that the dynamic
    ``nInst`` term never escapes the static envelope.

See ``docs/static_analysis.md`` for the rule catalogue and suppression
syntax.  The names below load on first use (module ``__getattr__``), so
building the command line does not import the analyses.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the submodule defining it.
_EXPORTS = {
    "CFG": "cfg",
    "BasicBlock": "cfg",
    "BranchSite": "cfg",
    "build_cfg": "cfg",
    "pc_successors": "cfg",
    "BaseFinding": "common",
    "ReportBase": "common",
    "Rule": "common",
    "RuleRegistry": "common",
    "DataflowResult": "dataflow",
    "analyze_dataflow": "dataflow",
    "Finding": "lints",
    "LintReport": "lints",
    "LintRule": "lints",
    "RULES": "lints",
    "Severity": "lints",
    "lint_kernel": "lints",
    "CheckedCriticalityPredictor": "pathlen",
    "PathBounds": "pathlen",
    "compute_path_bounds": "pathlen",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value
