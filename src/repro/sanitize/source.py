"""Source-tree loading, waiver parsing, and shared AST facts.

:mod:`repro.sanitize` rules all consume the same picture of the analyzed
tree: every module parsed once (:class:`SourceModule`), a class index by
name, the ``# sanitize: waive`` comments, and
the fingerprint ground truth parsed statically out of ``config.py``
(:class:`ConfigFacts`).  This module builds that picture; the rules in the
``rules_*`` modules only read it.

Waiver syntax (documented in ``docs/static_analysis.md``)::

    if self.config.events != "off":  # sanitize: waive FPR001 -- why

    # sanitize: waive DET003 -- order is irrelevant: every entry is removed
    for entry in directory.glob(pattern):

A waiver on line *L* applies to line *L* (inline form) and to line *L+1*
(comment-above form).  Waived findings are still reported — with
``suppressed=True`` — but do not fail the run; rules may declare specific
findings unwaivable (FPR001's stale-waiver check is, by design: a waiver
cannot vouch for itself).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

#: Module prefixes (relative to the analyzed root, ``/``-separated) that
#: form the *timing path*: code here decides cycle counts, so FPR001
#: scopes to it.
TIMING_PREFIXES: Tuple[str, ...] = (
    "sm/",
    "memory/",
    "gpu/",
    "core/",
    "scheduling/",
    "simt/",
)

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

    def in_timing_path(self) -> bool:
        return self.rel.startswith(TIMING_PREFIXES)

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


@dataclass(frozen=True)
class ConfigFacts:
    """Fingerprint ground truth, parsed statically from ``config.py``.

    ``fields`` are the ``GPUConfig`` dataclass field names; ``excluded``
    is the declared :data:`GPUConfig.FINGERPRINT_EXCLUDED` set.  Parsed
    from the *analyzed* tree's AST (never imported) so fixture trees can
    carry their own miniature ``config.py`` and tests can doctor the
    facts to simulate exclusion-list edits.
    """

    fields: FrozenSet[str] = frozenset()
    excluded: FrozenSet[str] = frozenset()

    @property
    def fingerprinted(self) -> FrozenSet[str]:
        return self.fields - self.excluded


def _is_classvar(annotation: ast.expr) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id == "ClassVar"
    if isinstance(node, ast.Attribute):
        return node.attr == "ClassVar"
    return False


def _string_elements(node: ast.expr) -> FrozenSet[str]:
    """The string constants inside a set/list/tuple display."""
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        return frozenset(
            e.value
            for e in node.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        )
    return frozenset()


def parse_config_facts(module: SourceModule) -> ConfigFacts:
    """Extract :class:`ConfigFacts` from a ``config.py`` module."""
    for node in module.tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == "GPUConfig"):
            continue
        fields: List[str] = []
        excluded: FrozenSet[str] = frozenset()
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            if _is_classvar(stmt.annotation):
                if (
                    stmt.target.id == "FINGERPRINT_EXCLUDED"
                    and isinstance(stmt.value, ast.Call)
                    and stmt.value.args
                ):
                    excluded = _string_elements(stmt.value.args[0])
                continue
            fields.append(stmt.target.id)
        return ConfigFacts(fields=frozenset(fields), excluded=excluded)
    return ConfigFacts()


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

    def timing_modules(self) -> Iterator[SourceModule]:
        for module in self.modules:
            if module.in_timing_path():
                yield module

    def config_facts(self) -> ConfigFacts:
        for module in self.modules:
            if module.rel == "config.py":
                return parse_config_facts(module)
        return ConfigFacts()


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


def terminal_name(node: ast.expr) -> Optional[str]:
    """The last component of a receiver expression.

    ``self.config`` -> "config", ``cfg`` -> "cfg", ``gpu.config`` ->
    "config"; anything else (calls, subscripts) -> None.
    """
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
