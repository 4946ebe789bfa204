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

The same machinery, parameterized over (enum class, call-site method
names), backs FBK001 in :mod:`repro.sanitize.rules_fbk` for the feedback
channel's ``Sig``/``publish`` idiom — one engine, two schemas.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from ..analysis.common import Severity
from .registry import Hit, SanitizeContext, hit, rule
from .source import SourceModule


@dataclass(frozen=True)
class KindSpec:
    """One (enum, call idiom) pairing the coverage engine checks.

    ``enum_name`` is the kind-enum class (``Ev``, ``Sig``); ``methods``
    the attribute/name call targets recognized as sites (``emit``,
    ``publish``); ``dead_msg`` is the tail of the dead-schema finding.
    """

    enum_name: str
    methods: FrozenSet[str]
    dead_msg: str


def _kind_from_enum_attr(node: ast.expr, enum_name: str) -> Optional[str]:
    """``<Enum>.X`` or ``int(<Enum>.X)`` -> "X"."""
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
        and node.value.id == enum_name
    ):
        return node.attr
    return None


def _module_aliases(module: SourceModule, enum_name: str) -> Dict[str, str]:
    """Module-level ``_EV_X = int(Ev.X)`` / ``= Ev.X`` alias bindings."""
    aliases: Dict[str, str] = {}
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        kind = _kind_from_enum_attr(stmt.value, enum_name)
        if kind is not None:
            aliases[target.id] = kind
    return aliases


def _site_kinds(
    node: ast.AST, aliases: Dict[str, str], spec: KindSpec
) -> Iterator[Tuple[str, int]]:
    """``(kind, lineno)`` for every recognizable site under ``node``."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        is_site = (
            isinstance(func, ast.Name) and func.id in spec.methods
        ) or (isinstance(func, ast.Attribute) and func.attr in spec.methods)
        if not is_site or not sub.args:
            continue
        record = sub.args[0]
        if not isinstance(record, ast.Tuple) or not record.elts:
            continue
        head = record.elts[0]
        kind = _kind_from_enum_attr(head, spec.enum_name)
        if kind is None and isinstance(head, ast.Name):
            kind = aliases.get(head.id)
        if kind is not None:
            yield kind, sub.lineno


def iter_coverage_hits(
    ctx: SanitizeContext, spec: KindSpec
) -> Iterator[Hit]:
    """Kind-coverage findings for one :class:`KindSpec`."""
    enum_entry = ctx.tree.classes.get(spec.enum_name)
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
        aliases = _module_aliases(module, spec.enum_name)
        for kind, lineno in _site_kinds(module.tree, aliases, spec):
            sites.setdefault(kind, (module, lineno))

    for kind, lineno in members.items():
        if kind not in sites:
            yield hit(
                enum_module,
                lineno,
                f"{spec.enum_name}.{kind} has no site anywhere in the "
                f"tree; {spec.dead_msg}",
            )
    for kind, (module, lineno) in sorted(sites.items()):
        if kind not in members:
            yield hit(
                module,
                lineno,
                f"uses kind {kind!r}, which is not a {spec.enum_name} "
                "member; the record would fail schema validation",
            )


OBS_SPEC = KindSpec(
    enum_name="Ev",
    methods=frozenset({"emit"}),
    dead_msg="dead schema entries rot the exporter and collectors",
)


@rule(
    "OBS001",
    Severity.ERROR,
    "event kind without an emission site, or emission of an unknown kind",
)
def check_event_coverage(ctx: SanitizeContext) -> Iterator[Hit]:
    yield from iter_coverage_hits(ctx, OBS_SPEC)
