"""DET001–DET003 — determinism of the simulator's own source.

The bit-identical mode matrix (frontend x events) and
the fingerprint-keyed result cache both assume a run's output is a pure
function of its configuration.  Three classes of Python idiom
silently break that:

DET001
    Unseeded randomness — calls through the process-global ``random`` /
    ``numpy.random`` state, or RNG constructors without a seed argument.
    Workloads must thread an explicit seed (``np.random.RandomState(seed)``
    is fine; ``np.random.rand()`` is not).

DET002
    Wall-clock reads (``time.time``, ``time.monotonic``,
    ``time.perf_counter``, ``datetime.now``, ...) anywhere outside the
    declared wall-clock domains — the service layer (``serve/``), which
    legitimately measures real elapsed time.  Simulated time comes from
    the device clock, never the host's.

DET003
    Order-unstable iteration feeding anything: unsorted
    ``Path.glob``/``iterdir``/``os.listdir``/``os.scandir`` results in a
    loop or comprehension (filesystem enumeration order is
    platform-dependent), iteration directly over a ``set`` expression
    (hash-randomized for strings across processes), and ``id()``-based
    ordering (``sorted(key=id)``), which varies run to run.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..analysis.common import Severity
from .registry import Hit, SanitizeContext, hit, rule
from .source import dotted_name

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


@rule("DET001", Severity.ERROR, "unseeded random number generation")
def check_unseeded_random(ctx: SanitizeContext) -> Iterator[Hit]:
    for module in ctx.tree.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in _GLOBAL_RANDOM:
                yield hit(
                    module,
                    node.lineno,
                    f"{dotted}() draws from the process-global RNG; "
                    "use an explicitly seeded generator",
                )
            elif (
                dotted.startswith(("np.random.", "numpy.random."))
                and dotted.rsplit(".", 1)[1] in _GLOBAL_NP_RANDOM
            ):
                yield hit(
                    module,
                    node.lineno,
                    f"{dotted}() draws from numpy's global RandomState; "
                    "use np.random.RandomState(seed)",
                )
            elif (
                dotted.endswith(_RNG_CONSTRUCTORS)
                and not node.args
                and not node.keywords
            ):
                yield hit(
                    module,
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


@rule("DET002", Severity.ERROR, "wall-clock read outside a declared domain")
def check_wallclock(ctx: SanitizeContext) -> Iterator[Hit]:
    for module in ctx.tree.modules:
        if module.rel.startswith(WALLCLOCK_DOMAINS):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            if dotted in _WALLCLOCK:
                yield hit(
                    module,
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


@rule("DET003", Severity.ERROR, "order-unstable iteration or id()-ordering")
def check_unstable_order(ctx: SanitizeContext) -> Iterator[Hit]:
    for module in ctx.tree.modules:
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
                    yield hit(module, it.lineno, reason)
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
                    yield hit(
                        module,
                        node.lineno,
                        "ordering by id() varies between runs and "
                        "processes; order by a stable key",
                    )
