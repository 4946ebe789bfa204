"""CLK001 — clock-protocol conformance of timing components.

The skip clock (``GPUConfig.clock='skip'``) advances the device between
*events*: the skip loop (:meth:`repro.gpu.gpu.GPU._run_skip_loop`; design
in :mod:`repro.gpu.clock`) asks every component it drives for its
``next_event_time(now)`` (or an SM's ``next_wake_time``), jumps to the
minimum, and ticks only what can act.
A timing component that participates in simulation — anything defining
``tick`` or ``access`` in a timing-path module — but answers no
next-event query is invisible to the heap: the skip clock would jump
straight over its work, silently diverging from the cycle clock.

The check is structural and inheritance-aware: defining *or* inheriting
(through bases resolvable inside the analyzed tree) either protocol
method satisfies it.  Classes with unresolvable non-trivial bases are
skipped — an external base may well provide the method, and guessing
would produce noise, not soundness.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..analysis.common import Severity
from .registry import Hit, SanitizeContext, hit, rule

#: Method names that mark a class as clock-driven.
TRIGGERS = frozenset({"tick", "access"})
#: Method names satisfying the protocol.
PROVIDERS = frozenset({"next_event_time", "next_wake_time"})
#: Base names that never provide the protocol and never resolve in-tree.
_TRIVIAL_BASES = frozenset({
    "object",
    "ABC",
    "Protocol",
    "Generic",
    "Enum",
    "IntEnum",
    "NamedTuple",
    "Exception",
})


def _method_names(cls_node: ast.ClassDef) -> Set[str]:
    return {
        stmt.name
        for stmt in cls_node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _base_names(cls_node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in cls_node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


@rule(
    "CLK001",
    Severity.ERROR,
    "clock-driven component without next_event_time()",
)
def check_clock_protocol(ctx: SanitizeContext) -> Iterator[Hit]:
    for module in ctx.tree.timing_modules():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _method_names(node)
            triggers = methods & TRIGGERS
            if not triggers:
                continue
            if methods & PROVIDERS:
                continue
            chain = ctx.tree.resolve_bases(node)
            if any(
                _method_names(base_cls) & PROVIDERS for _, base_cls in chain
            ):
                continue
            resolved = {base_cls.name for _, base_cls in chain}
            unresolved = _base_names(node) - resolved - _TRIVIAL_BASES
            if unresolved:
                # External base classes may provide the protocol.
                continue
            yield hit(
                module,
                node.lineno,
                f"class {node.name} defines {sorted(triggers)} but "
                "neither defines nor inherits next_event_time()/"
                "next_wake_time(); the skip clock cannot schedule it "
                "(see repro.gpu.clock)",
            )
