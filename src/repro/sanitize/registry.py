"""Finding/report types, the sanitize rule registry, and the driver.

Built on the same machinery as the kernel linter
(:mod:`repro.analysis.common`): stable rule IDs, severities, waivers that
report-but-don't-fail, text/JSON rendering.  Where :func:`lint_kernel`
takes one finalized kernel, :func:`sanitize_tree` takes a source-tree
root and hands every registered checker one shared
:class:`SanitizeContext`.

Checkers yield :func:`hit` tuples; a ``# sanitize: waive`` comment on
the hit's line (or the line above) suppresses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..analysis.common import BaseFinding, ReportBase, Rule, RuleRegistry, Severity
from .source import SourceModule, SourceTree

__all__ = [
    "Severity",
    "SanitizeFinding",
    "SanitizeReport",
    "SanitizeContext",
    "REGISTRY",
    "RULES",
    "rule",
    "hit",
    "sanitize_tree",
    "default_root",
]


@dataclass(frozen=True)
class SanitizeFinding(BaseFinding):
    """One sanitize hit, tied to a rule ID and a source line."""

    path: str = ""
    line: int = 0
    #: The offending source line, stripped.
    source: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        out = super().to_dict()
        out.update(path=self.path, line=self.line, source=self.source)
        return out

    def __str__(self) -> str:
        line = f" | {self.source}" if self.source else ""
        return super().__str__() + line


@dataclass
class SanitizeReport(ReportBase):
    """All findings for one analyzed tree, plus pass/fail summary logic."""

    root: str
    findings: List[SanitizeFinding] = field(default_factory=list)

    @property
    def subject(self) -> str:
        return self.root

    def to_dict(self) -> Dict[str, object]:
        out = super().to_dict()
        # Sanitize reports name their subject "root".
        out["root"] = out.pop("subject")
        return out


@dataclass
class SanitizeContext:
    """Everything a rule checker may consult."""

    tree: SourceTree


#: ``(module, lineno, message)`` as built by :func:`hit`.
Hit = Tuple[SourceModule, int, str]
Checker = Callable[[SanitizeContext], Iterator[Hit]]


def hit(module: SourceModule, lineno: int, message: str) -> Hit:
    """Build one checker hit."""
    return (module, lineno, message)

REGISTRY: RuleRegistry[Checker] = RuleRegistry("sanitize")

#: The live rule catalogue, keyed by stable ID.
RULES: Dict[str, Rule[Checker]] = REGISTRY.rules

#: Decorator registering a checker under a stable ID in :data:`RULES`.
rule = REGISTRY.rule


def default_root() -> Path:
    """The shipped ``src/repro`` tree (the package this module lives in)."""
    return Path(__file__).resolve().parent.parent


def sanitize_tree(
    root: Optional[Path] = None,
    *,
    rules: Optional[Iterable[str]] = None,
) -> SanitizeReport:
    """Run the sanitize rule catalogue over the tree at ``root``.

    Args:
        root: directory to analyze (default: the installed ``repro``
            package source).
        rules: restrict to these rule IDs (default: every registered rule).

    Returns:
        A :class:`SanitizeReport`; ``report.ok`` is False when any
        unsuppressed ERROR-severity finding exists.
    """
    tree = SourceTree.load(root if root is not None else default_root())
    ctx = SanitizeContext(tree=tree)
    report = SanitizeReport(root=str(tree.root))
    for rule_def in REGISTRY.select(rules).values():
        for module, lineno, message in rule_def.check(ctx):
            report.findings.append(
                SanitizeFinding(
                    rule=rule_def.rule_id,
                    severity=rule_def.severity,
                    message=message,
                    path=module.rel,
                    line=lineno,
                    source=module.source_line(lineno),
                    suppressed=module.waived(rule_def.rule_id, lineno),
                )
            )
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
