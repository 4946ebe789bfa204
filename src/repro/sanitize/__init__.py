"""repro.sanitize — static invariant checking of the simulator's own source.

PR 3 pointed AST/CFG analysis at the *kernels* the simulator runs
(:mod:`repro.analysis`); this package points the same machinery — stable
rule IDs, severities, waivers, text/JSON reports, one shared registry
design (:mod:`repro.analysis.common`) — at ``src/repro`` itself.  The
correctness story of this codebase is a matrix of bit-identical modes
(frontend x events) guarded at runtime by
parity grids; these rules guard the *conventions* that keep the matrix
honest, at lint time, without importing the analyzed tree:

=========  ========  ======================================================
rule id    severity  what it catches
=========  ========  ======================================================
FPR001     error     GPUConfig reads on the timing path that are neither
                     fingerprinted nor waived-excluded (result-cache
                     aliasing), plus stale FPR001 waivers
DET001     error     unseeded randomness (global ``random``/``np.random``)
DET002     error     wall-clock reads outside declared domains (serve/)
DET003     error     order-unstable iteration: unsorted glob/listdir,
                     set iteration, id()-based ordering
OBS001     error     probe coverage: Ev kinds never emitted / unknown
                     kinds emitted
FBK001     error     feedback publish coverage: Sig kinds never published
                     / unknown kinds published
=========  ========  ======================================================

Entry points: ``repro sanitize`` (CLI), ``make sanitize``,
:func:`sanitize_tree`.  See docs/static_analysis.md ("Sanitizing the
simulator") for the waiver syntax and the FPR001 / new-config-field
interaction.
"""

from .registry import (
    REGISTRY,
    RULES,
    SanitizeContext,
    SanitizeFinding,
    SanitizeReport,
    Severity,
    default_root,
    sanitize_tree,
)
from .source import ConfigFacts, SourceModule, SourceTree, parse_config_facts

# Import for effect: each module registers its rules in REGISTRY.
from . import rules_fingerprint  # noqa: E402,F401  (registration)
from . import rules_determinism  # noqa: E402,F401  (registration)
from . import rules_obs  # noqa: E402,F401  (registration)
from . import rules_fbk  # noqa: E402,F401  (registration)

__all__ = [
    "ConfigFacts",
    "REGISTRY",
    "RULES",
    "SanitizeContext",
    "SanitizeFinding",
    "SanitizeReport",
    "Severity",
    "SourceModule",
    "SourceTree",
    "default_root",
    "parse_config_facts",
    "sanitize_tree",
]
