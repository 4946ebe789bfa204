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
syntax.
"""

from .cfg import CFG, BasicBlock, BranchSite, build_cfg, pc_successors
from .common import BaseFinding, ReportBase, Rule, RuleRegistry
from .dataflow import DataflowResult, analyze_dataflow
from .lints import (
    Finding,
    LintReport,
    LintRule,
    RULES,
    Severity,
    lint_kernel,
)
from .pathlen import (
    CheckedCriticalityPredictor,
    PathBounds,
    compute_path_bounds,
)

__all__ = [
    "BaseFinding",
    "BasicBlock",
    "BranchSite",
    "CFG",
    "CheckedCriticalityPredictor",
    "DataflowResult",
    "Finding",
    "LintReport",
    "LintRule",
    "PathBounds",
    "RULES",
    "ReportBase",
    "Rule",
    "RuleRegistry",
    "Severity",
    "analyze_dataflow",
    "build_cfg",
    "compute_path_bounds",
    "lint_kernel",
    "pc_successors",
]
