"""repro.sanitize — static invariant checking of the simulator's own source.

PR 3 pointed AST/CFG analysis at the *kernels* the simulator runs
(:mod:`repro.analysis`); this package points the same machinery — stable
rule IDs, severities, waivers, text/JSON reports, one shared registry
design (:mod:`repro.analysis.common`) — at ``src/repro`` itself.  These
rules guard the *conventions* that keep the simulator deterministic and
its probes covered, at lint time, without importing the analyzed tree:

=========  ========  ======================================================
rule id    severity  what it catches
=========  ========  ======================================================
DET001     error     unseeded randomness (global ``random``/``np.random``)
DET002     error     wall-clock reads outside declared domains (serve/)
DET003     error     order-unstable iteration: unsorted glob/listdir,
                     set iteration, id()-based ordering
OBS001     error     probe coverage: Ev kinds never emitted / unknown
                     kinds emitted
=========  ========  ======================================================

Entry points: ``repro sanitize`` (CLI), ``make sanitize``,
:func:`sanitize_tree`.  See docs/static_analysis.md ("Sanitizing the
simulator") for the waiver syntax.  There is no fingerprint rule:
:meth:`repro.config.GPUConfig.fingerprint` hashes every field, so a new
config knob is fingerprinted by construction.

The names below load on first use (module ``__getattr__``), so building
the command line does not parse the rule modules.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the submodule defining it.
_EXPORTS = {
    "REGISTRY": "registry",
    "RULES": "registry",
    "SanitizeContext": "registry",
    "SanitizeFinding": "registry",
    "SanitizeReport": "registry",
    "Severity": "registry",
    "default_root": "registry",
    "sanitize_tree": "registry",
    "SourceModule": "source",
    "SourceTree": "source",
}

#: Modules that register their rules in ``REGISTRY`` when imported.
_RULE_MODULES = ("rules_determinism", "rules_obs")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in _RULE_MODULES:
        importlib.import_module(f"{__name__}.{module}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value
