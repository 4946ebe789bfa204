"""Shared finding/report/registry machinery for the static-analysis layers.

Two analyzers live in this codebase: :mod:`repro.analysis.lints` checks
*kernels* (CFG/dataflow invariants of the PTX-like programs the simulator
runs) and :mod:`repro.sanitize` checks the *simulator's own source*
(fingerprint soundness, determinism, probe coverage, protocol conformance).
Both need the same bookkeeping — stable rule IDs, severities, waivers that
report-but-don't-fail, pass/fail summary logic, text/JSON rendering — and
this module is the single implementation both import.

The pieces:

:class:`Severity`
    ``INFO < WARNING < ERROR``; only unsuppressed ERROR findings fail.

:class:`BaseFinding`
    One hit of one rule.  Subclasses add their location fields (kernel+pc
    for lints, path+line for sanitize) by overriding :meth:`location` and
    extending :meth:`to_dict`.

:class:`ReportBase`
    Mixin with the severity filtering, ``ok`` logic, and rendering shared
    by :class:`~repro.analysis.lints.LintReport` and
    :class:`~repro.sanitize.registry.SanitizeReport`.

:class:`RuleRegistry`
    A named catalogue of :class:`Rule` entries with duplicate-ID
    detection and ID-based selection.  Each analyzer owns one instance;
    rule IDs are unique *per registry* (the two catalogues use disjoint
    prefixes by convention, documented in ``docs/static_analysis.md``).

Waiver semantics are uniform: a waived finding is still produced — with
``suppressed=True``, rendered ``(waived)`` in text and ``"suppressed":
true`` in JSON — but never fails a run.  How a waiver is *declared* is
per-layer (``KernelBuilder.waive_lint`` for kernels, ``# sanitize: waive
RULE -- reason`` comments for source files).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    TypeVar,
)


class Severity(enum.IntEnum):
    """How bad a finding is.  Only ERROR findings fail a run."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class BaseFinding:
    """One rule hit.  Subclasses carry the layer's location fields."""

    rule: str
    severity: Severity
    message: str
    suppressed: bool = False

    def location(self) -> str:
        """Rendered location prefix (``kernel:pc=N`` / ``path:line``)."""
        return ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "suppressed": self.suppressed,
        }

    def __str__(self) -> str:
        mark = " (waived)" if self.suppressed else ""
        where = self.location()
        prefix = f"{where}: " if where else ""
        return f"{prefix}{self.severity} [{self.rule}]{mark} {self.message}"


class ReportBase:
    """Severity filtering, pass/fail logic, and rendering for a report.

    Mixed into the per-layer report dataclasses; expects a ``findings``
    list attribute and a :meth:`subject` implementation naming what was
    analyzed (a kernel name, a source-tree root).
    """

    #: Covariant so report dataclasses may redeclare with their concrete
    #: finding type (``List[Finding]``, ``List[SanitizeFinding]``).
    findings: Sequence[BaseFinding]

    @property
    def subject(self) -> str:
        raise NotImplementedError

    @property
    def errors(self) -> List[BaseFinding]:
        return [
            f
            for f in self.findings
            if f.severity is Severity.ERROR and not f.suppressed
        ]

    @property
    def warnings(self) -> List[BaseFinding]:
        return [
            f
            for f in self.findings
            if f.severity is Severity.WARNING and not f.suppressed
        ]

    @property
    def ok(self) -> bool:
        """True when no unsuppressed ERROR finding exists."""
        return not self.errors

    def by_rule(self, rule_id: str) -> List[BaseFinding]:
        return [f for f in self.findings if f.rule == rule_id]

    def format_text(self) -> str:
        if not self.findings:
            return f"{self.subject}: clean"
        lines = [str(f) for f in self.findings]
        lines.append(
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


CheckerT = TypeVar("CheckerT", bound=Callable[..., object])


@dataclass(frozen=True)
class Rule(Generic[CheckerT]):
    """One registered rule: stable ID, severity, title, and its checker."""

    rule_id: str
    severity: Severity
    title: str
    check: CheckerT


class RuleRegistry(Generic[CheckerT]):
    """A named catalogue of rules with duplicate-ID detection.

    ``registry.rules`` is the live ``{rule_id: Rule}`` mapping (exposed
    directly — :data:`repro.analysis.lints.RULES` aliases it for backward
    compatibility).  Registration order is preserved; selection by ID list
    silently drops unknown IDs, matching the historical ``lint_kernel``
    behaviour.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.rules: Dict[str, Rule[CheckerT]] = {}

    def rule(
        self, rule_id: str, severity: Severity, title: str
    ) -> Callable[[CheckerT], CheckerT]:
        """Decorator registering a checker under ``rule_id``."""

        def register(fn: CheckerT) -> CheckerT:
            if rule_id in self.rules:  # pragma: no cover - programming error
                raise ValueError(
                    f"duplicate {self.name} rule id {rule_id!r}"
                )
            self.rules[rule_id] = Rule(rule_id, severity, title, fn)
            return fn

        return register

    def select(
        self, rule_ids: Optional[Iterable[str]] = None
    ) -> Dict[str, Rule[CheckerT]]:
        """The full catalogue, or the subset named by ``rule_ids``."""
        if rule_ids is None:
            return self.rules
        return {rid: self.rules[rid] for rid in rule_ids if rid in self.rules}
