"""Source-tree loading, waiver parsing, and shared AST facts.

:mod:`repro.sanitize` rules all consume the same picture of the analyzed
tree: every module parsed once (:class:`SourceModule`), a class index by
name, and the ``# sanitize: waive`` comments.  This module builds that
picture; the rules in the ``rules_*`` modules only read it.

Waiver syntax (documented in ``docs/static_analysis.md``)::

    stamp = time.time()  # sanitize: waive DET002 -- host bookkeeping

    # sanitize: waive DET003 -- order is irrelevant: every entry is removed
    for entry in directory.glob(pattern):

A waiver on line *L* applies to line *L* (inline form) and to line *L+1*
(comment-above form).  Waived findings are still reported — with
``suppressed=True`` — but do not fail the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

_WAIVER_RE = re.compile(
    r"#\s*sanitize:\s*waive\s+"
    r"(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
    r"\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Waiver:
    """One ``# sanitize: waive`` comment."""

    line: int
    rules: FrozenSet[str]
    reason: str


@dataclass
class SourceModule:
    """One parsed Python module of the analyzed tree."""

    path: Path
    #: Path relative to the analyzed root, ``/``-separated ("sm/sm.py").
    rel: str
    lines: List[str]
    tree: ast.Module
    #: Waivers keyed by the line the comment appears on.
    waivers: Dict[int, Waiver] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, rel: str) -> "SourceModule":
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        module = cls(
            path=path,
            rel=rel,
            lines=lines,
            tree=ast.parse(text, filename=str(path)),
        )
        for lineno, line in enumerate(lines, start=1):
            match = _WAIVER_RE.search(line)
            if match is None:
                continue
            rules = frozenset(
                r.strip() for r in match.group("rules").split(",")
            )
            module.waivers[lineno] = Waiver(
                line=lineno, rules=rules, reason=match.group("reason") or ""
            )
        return module

    def waived(self, rule_id: str, lineno: int) -> bool:
        """True when a waiver for ``rule_id`` covers ``lineno``."""
        for waiver_line in (lineno, lineno - 1):
            waiver = self.waivers.get(waiver_line)
            if waiver is not None and rule_id in waiver.rules:
                return True
        return False

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class SourceTree:
    """Every module under one root, plus cross-module indexes."""

    def __init__(self, root: Path, modules: List[SourceModule]) -> None:
        self.root = root
        self.modules = modules
        #: Class name -> (defining module, ClassDef).  Class names are
        #: unique across the tree in practice; on a clash the first
        #: module (sorted ``rel`` order) wins, which keeps resolution
        #: deterministic.
        self.classes: Dict[str, Tuple[SourceModule, ast.ClassDef]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, (module, node))

    @classmethod
    def load(cls, root: Path) -> "SourceTree":
        root = root.resolve()
        modules = [
            SourceModule.load(path, path.relative_to(root).as_posix())
            for path in sorted(root.rglob("*.py"))
        ]
        return cls(root, modules)


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))
