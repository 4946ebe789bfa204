"""The simulator's own source, checked: determinism and probe coverage.

CAWA's comparisons, the bit-identical events mode and the
fingerprint-keyed result cache all assume a run's output is a pure
function of its configuration.  Four rules police the Python idioms that
silently break that, over every module of the ``repro`` package:

=======  ==========================================================
rule     what it catches
=======  ==========================================================
DET001   unseeded randomness (global ``random`` / ``np.random``)
DET002   wall-clock reads outside the declared domains (``serve/``)
DET003   order-unstable iteration: unsorted glob/listdir, set
         iteration, id()-based ordering
OBS001   an ``Ev`` kind with no emission site, or an emitted kind
         that is not an ``Ev`` member
=======  ==========================================================

Each rule is a function from the parsed modules to ``(rel, line,
message)`` hits.  A ``# sanitize: waive RULE[,RULE] -- reason`` comment
on the hit's line, or on the line above, waives it; a waiver that waives
nothing fails :func:`test_every_waiver_in_src_suppresses_a_hit`.  Each
rule has a seeded-violation tree under ``tests/fixtures/sanitize/<rule>/``
that fires it and no other rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

import pytest

import repro
import repro.sampling

FIXTURES = Path(__file__).parent / "fixtures" / "sanitize"

_WAIVER_RE = re.compile(
    r"#\s*sanitize:\s*waive\s+"
    r"(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
    r"\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)

#: ``(rel, line, message)``: one rule hit in one module.
Hit = Tuple[str, int, str]


@dataclass
class Module:
    """One parsed module of the checked tree."""

    #: Path relative to the checked root, ``/``-separated ("sm/sm.py").
    rel: str
    lines: List[str]
    tree: ast.Module
    #: Rule IDs waived by the comment on each line that carries one.
    waivers: Dict[int, FrozenSet[str]]

    def waived(self, rule_id: str, lineno: int) -> bool:
        """True when a waiver for ``rule_id`` covers ``lineno``."""
        return any(rule_id in self.waivers.get(line, ())
                   for line in (lineno, lineno - 1))


def parse_tree(root: Path) -> List[Module]:
    """Every ``*.py`` under ``root``, parsed once, in sorted path order."""
    modules = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        waivers = {}
        for lineno, line in enumerate(lines, start=1):
            match = _WAIVER_RE.search(line)
            if match is not None:
                waivers[lineno] = frozenset(
                    r.strip() for r in match.group("rules").split(","))
        modules.append(Module(path.relative_to(root).as_posix(), lines,
                              ast.parse(text, filename=str(path)), waivers))
    return modules


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


# --------------------------------------------------------------------
# DET001 — unseeded randomness
# --------------------------------------------------------------------
#: ``random``-module functions that use the process-global RNG.
_GLOBAL_RANDOM = frozenset({
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
})
#: ``numpy.random`` module-level functions (global RandomState).
_GLOBAL_NP_RANDOM = frozenset({
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
})
#: RNG constructors that are unseeded when called without arguments.
_RNG_CONSTRUCTORS = ("random.Random", "random.RandomState", "random.default_rng")


def det001(modules: List[Module]) -> Iterator[Hit]:
    """Calls through the process-global ``random`` / ``numpy.random``
    state, or RNG constructors without a seed argument."""
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in _GLOBAL_RANDOM:
                yield (
                    module.rel,
                    node.lineno,
                    f"{dotted}() draws from the process-global RNG; "
                    "use an explicitly seeded generator",
                )
            elif (
                dotted.startswith(("np.random.", "numpy.random."))
                and dotted.rsplit(".", 1)[1] in _GLOBAL_NP_RANDOM
            ):
                yield (
                    module.rel,
                    node.lineno,
                    f"{dotted}() draws from numpy's global RandomState; "
                    "use np.random.RandomState(seed)",
                )
            elif (
                dotted.endswith(_RNG_CONSTRUCTORS)
                and not node.args
                and not node.keywords
            ):
                yield (
                    module.rel,
                    node.lineno,
                    f"{dotted}() constructed without a seed seeds from "
                    "the OS entropy pool; pass an explicit seed",
                )


# --------------------------------------------------------------------
# DET002 — wall-clock reads
# --------------------------------------------------------------------
_WALLCLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
})

#: Module prefixes where wall-clock reads are the point: the HTTP service
#: measures real elapsed time (timeouts, uptime, job timestamps).
WALLCLOCK_DOMAINS: Tuple[str, ...] = ("serve/",)


def det002(modules: List[Module]) -> Iterator[Hit]:
    """Host wall-clock reads outside :data:`WALLCLOCK_DOMAINS`: simulated
    time comes from the device clock, never the host's."""
    for module in modules:
        if module.rel.startswith(WALLCLOCK_DOMAINS):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            if dotted in _WALLCLOCK:
                yield (
                    module.rel,
                    node.lineno,
                    f"{dotted} reads the host wall clock; simulated time "
                    "comes from the device clock (waive only for "
                    "host-side bookkeeping that never reaches results)",
                )


# --------------------------------------------------------------------
# DET003 — order-unstable iteration
# --------------------------------------------------------------------
_SCAN_METHODS = frozenset({"glob", "rglob", "iterdir"})
_SCAN_FUNCTIONS = frozenset({"os.listdir", "os.scandir"})


def _unstable_iter(node: ast.expr) -> Optional[str]:
    """Describe why iterating ``node`` is order-unstable, or None."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SCAN_METHODS:
            return (
                f".{func.attr}() yields entries in filesystem order, "
                "which is platform-dependent; wrap in sorted()"
            )
        dotted = dotted_name(func)
        if dotted in _SCAN_FUNCTIONS:
            return (
                f"{dotted}() yields entries in filesystem order, which is "
                "platform-dependent; wrap in sorted()"
            )
        if isinstance(func, ast.Name) and func.id == "set":
            return (
                "iteration over a set is hash-ordered (randomized for "
                "strings across processes); wrap in sorted()"
            )
        return None
    if isinstance(node, (ast.Set, ast.SetComp)):
        return (
            "iteration over a set is hash-ordered (randomized for "
            "strings across processes); wrap in sorted()"
        )
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set(a) | set(b) and friends: unstable if either side is.
        return _unstable_iter(node.left) or _unstable_iter(node.right)
    return None


def det003(modules: List[Module]) -> Iterator[Hit]:
    """Unsorted filesystem enumeration or set iteration in a loop or
    comprehension, and ``id()``-based ordering."""
    for module in modules:
        for node in ast.walk(module.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                reason = _unstable_iter(it)
                if reason is not None:
                    yield (module.rel, it.lineno, reason)
            if isinstance(node, ast.Call):
                func = node.func
                is_order_fn = (
                    isinstance(func, ast.Name)
                    and func.id in ("sorted", "min", "max")
                ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
                if is_order_fn and any(
                    kw.arg == "key"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id == "id"
                    for kw in node.keywords
                ):
                    yield (
                        module.rel,
                        node.lineno,
                        "ordering by id() varies between runs and "
                        "processes; order by a stable key",
                    )


# --------------------------------------------------------------------
# OBS001 — every event kind has an emission site, and vice versa
# --------------------------------------------------------------------
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


def _module_aliases(module: Module) -> Dict[str, str]:
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
    """``(kind, lineno)`` for every recognizable site under ``node``:
    ``emit((_EV_X, ...))`` through a module alias, ``emit((Ev.X, ...))``."""
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


def _enum_class(modules: List[Module]) -> Optional[Tuple[Module, ast.ClassDef]]:
    """The first ``Ev`` class in sorted path order, or None."""
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == ENUM:
                return module, node
    return None


def obs001(modules: List[Module]) -> Iterator[Hit]:
    """When the tree defines ``Ev``: a member nobody emits is dead schema,
    and an emitted non-member would fail schema validation at runtime."""
    enum_entry = _enum_class(modules)
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

    sites: Dict[str, Tuple[Module, int]] = {}
    for module in modules:
        aliases = _module_aliases(module)
        for kind, lineno in _site_kinds(module.tree, aliases):
            sites.setdefault(kind, (module, lineno))

    for kind, lineno in members.items():
        if kind not in sites:
            yield (
                enum_module.rel,
                lineno,
                f"{ENUM}.{kind} has no site anywhere in the tree; dead "
                "schema entries rot the exporter and collectors",
            )
    for kind, (module, lineno) in sorted(sites.items()):
        if kind not in members:
            yield (
                module.rel,
                lineno,
                f"uses kind {kind!r}, which is not a {ENUM} member; the "
                "record would fail schema validation",
            )


RULES: Dict[str, Callable[[List[Module]], Iterator[Hit]]] = {
    "DET001": det001,
    "DET002": det002,
    "DET003": det003,
    "OBS001": obs001,
}


def unwaived(modules: List[Module], rule_id: str) -> List[Hit]:
    """``rule_id``'s hits that no waiver covers."""
    by_rel = {module.rel: module for module in modules}
    return [(rel, line, message) for rel, line, message in RULES[rule_id](modules)
            if not by_rel[rel].waived(rule_id, line)]


@pytest.fixture(scope="module")
def shipped() -> List[Module]:
    return parse_tree(Path(repro.__file__).parent)


# ----------------------------------------------------------------------
# The shipped tree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_shipped_tree_is_clean(shipped, rule_id):
    by_rel = {module.rel: module for module in shipped}
    hits = [
        f"{rel}:{line}: {rule_id} {message} | "
        f"{by_rel[rel].lines[line - 1].strip()}"
        for rel, line, message in unwaived(shipped, rule_id)
    ]
    assert not hits, "\n" + "\n".join(hits)


def test_every_waiver_in_src_suppresses_a_hit(shipped):
    # A waiver that suppresses nothing would hide the next real hit on
    # its line, so each one must cover a hit of every rule it names.
    hit_lines = {(rule_id, rel, line) for rule_id, check in RULES.items()
                 for rel, line, _ in check(shipped)}
    stale = [
        f"{module.rel}:{line}: waiver of {rule_id} suppresses nothing"
        for module in shipped
        for line, rules in sorted(module.waivers.items())
        for rule_id in sorted(rules)
        if not {(rule_id, module.rel, line),
                (rule_id, module.rel, line + 1)} & hit_lines
    ]
    assert not stale, "\n" + "\n".join(stale)
    assert sum(len(module.waivers) for module in shipped) >= 1


def test_sampling_tree_is_det001_clean_without_waivers():
    # The sampler is seeded by construction (repro.sampling.spec): no
    # hit at all, waived or not.
    modules = parse_tree(Path(repro.sampling.__file__).parent)
    assert list(det001(modules)) == []


# ----------------------------------------------------------------------
# Seeded-violation fixtures: each fires its rule and only its rule
# ----------------------------------------------------------------------
def test_every_rule_has_a_fixture():
    assert sorted(p.name.upper() for p in FIXTURES.iterdir()) == sorted(RULES)


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_fixture_fires_exactly_its_rule(rule_id):
    modules = parse_tree(FIXTURES / rule_id.lower())
    assert {r for r in RULES if unwaived(modules, r)} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_fixture_clean_under_every_other_rule(rule_id):
    modules = parse_tree(FIXTURES / rule_id.lower())
    for other in sorted(RULES):
        if other != rule_id:
            assert unwaived(modules, other) == [], other


def test_det001_names_the_seed_of_an_unseeded_sampler():
    modules = parse_tree(FIXTURES / "det001")
    assert any(rel == "block_sampler.py" and "seed" in message
               for rel, _, message in unwaived(modules, "DET001"))


# ----------------------------------------------------------------------
# Waiver semantics
# ----------------------------------------------------------------------
def test_inline_and_line_above_forms(tmp_path):
    (tmp_path / "a.py").write_text(
        "import time\n"
        "t1 = time.time()  # sanitize: waive DET002 -- host bookkeeping\n"
        "# sanitize: waive DET002 -- host bookkeeping\n"
        "t2 = time.time()\n"
    )
    modules = parse_tree(tmp_path)
    assert len(list(det002(modules))) == 2
    assert unwaived(modules, "DET002") == []


def test_waiver_for_other_rule_does_not_suppress(tmp_path):
    (tmp_path / "a.py").write_text(
        "import time\n"
        "t = time.time()  # sanitize: waive DET003 -- wrong rule\n"
    )
    assert len(unwaived(parse_tree(tmp_path), "DET002")) == 1


def test_multi_rule_waiver(tmp_path):
    (tmp_path / "a.py").write_text(
        "import time, random\n"
        "# sanitize: waive DET001,DET002 -- seeded fixture\n"
        "t = time.time() + random.random()\n"
    )
    modules = parse_tree(tmp_path)
    assert len(list(det001(modules))) == len(list(det002(modules))) == 1
    assert unwaived(modules, "DET001") == unwaived(modules, "DET002") == []
