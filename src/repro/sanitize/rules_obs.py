"""OBS001 — every event kind has an emission site, and vice versa.

The observability contract (docs/observability.md) is that every mode of
the bit-identical matrix produces *byte-identical* event streams.  Every
component has exactly one implementation, so one static invariant is
left to keep the schema and the probes in step:

**Kind coverage.**  When the analyzed tree defines the ``Ev`` enum, every
member must have at least one emission site somewhere in the tree (a kind
nobody emits is dead schema), and every emitted kind must be an ``Ev``
member (an unknown kind would fail schema validation at runtime).

Emission sites are recognized by the established probe idioms::

    self.obs.emit((_EV_WARP_ISSUE, ...))     # module-level alias
    emit((Ev.WARP_ISSUE, ...))               # local binding of bus.emit
    _EV_WARP_ISSUE = int(Ev.WARP_ISSUE)      # the alias declaration
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from ..analysis.common import Severity
from .registry import Hit, SanitizeContext, hit, rule
from .source import SourceModule

#: The kind enum and the call that emits a record of it.
ENUM = "Ev"
EMIT = "emit"


def _kind_from_enum_attr(node: ast.expr) -> Optional[str]:
    """``Ev.X`` or ``int(Ev.X)`` -> "X"."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and len(node.args) == 1
    ):
        node = node.args[0]
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == ENUM
    ):
        return node.attr
    return None


def _module_aliases(module: SourceModule) -> Dict[str, str]:
    """Module-level ``_EV_X = int(Ev.X)`` / ``= Ev.X`` alias bindings."""
    aliases: Dict[str, str] = {}
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        kind = _kind_from_enum_attr(stmt.value)
        if kind is not None:
            aliases[target.id] = kind
    return aliases


def _site_kinds(
    node: ast.AST, aliases: Dict[str, str]
) -> Iterator[Tuple[str, int]]:
    """``(kind, lineno)`` for every recognizable site under ``node``."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        is_site = (isinstance(func, ast.Name) and func.id == EMIT) or (
            isinstance(func, ast.Attribute) and func.attr == EMIT)
        if not is_site or not sub.args:
            continue
        record = sub.args[0]
        if not isinstance(record, ast.Tuple) or not record.elts:
            continue
        head = record.elts[0]
        kind = _kind_from_enum_attr(head)
        if kind is None and isinstance(head, ast.Name):
            kind = aliases.get(head.id)
        if kind is not None:
            yield kind, sub.lineno


@rule(
    "OBS001",
    Severity.ERROR,
    "event kind without an emission site, or emission of an unknown kind",
)
def check_event_coverage(ctx: SanitizeContext) -> Iterator[Hit]:
    enum_entry = ctx.tree.classes.get(ENUM)
    if enum_entry is None:
        return
    enum_module, enum_cls = enum_entry
    members: Dict[str, int] = {}
    for stmt in enum_cls.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                members[target.id] = stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            members[stmt.target.id] = stmt.lineno

    sites: Dict[str, Tuple[SourceModule, int]] = {}
    for module in ctx.tree.modules:
        aliases = _module_aliases(module)
        for kind, lineno in _site_kinds(module.tree, aliases):
            sites.setdefault(kind, (module, lineno))

    for kind, lineno in members.items():
        if kind not in sites:
            yield hit(
                enum_module,
                lineno,
                f"{ENUM}.{kind} has no site anywhere in the tree; dead "
                "schema entries rot the exporter and collectors",
            )
    for kind, (module, lineno) in sorted(sites.items()):
        if kind not in members:
            yield hit(
                module,
                lineno,
                f"uses kind {kind!r}, which is not a {ENUM} member; the "
                "record would fail schema validation",
            )
