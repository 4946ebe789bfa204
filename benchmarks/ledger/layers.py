"""Where the timing wrappers go: the layer boundaries of ``repro``.

Everything here shadows *public* names on instances the harness built
itself, or public module-level entry points, and puts them back; no file
under ``src/`` changes.  A boundary that a later commit removes is skipped
(its metrics read zero) instead of breaking the benchmark.
"""

from __future__ import annotations

from contextlib import contextmanager

from spans import Tracer, shadow


def _issued(result) -> int:
    return 1 if result else 0


def _issued_fused(result) -> int:
    # VectorSM.tick_wake returns (issued, next_wake).
    return 1 if result[0] else 0


def _declined(result) -> int:
    return 1 if result is None else 0


def _lines(result) -> int:
    # LoadStoreUnit.issue returns (completion_cycle, line_accesses).
    return result[1]


def instrument_gpu(tracer: Tracer, gpu) -> None:
    """Shadow the per-layer bound methods of one ``GPU`` instance."""
    shadow(tracer, gpu, "launch", "gpu.launch")
    executors = set()
    for sm in gpu.sms:
        # The vector SM's tick() is a thin shell over tick_wake(); wrapping
        # the inner one alone counts each tick once under either loop.
        if not shadow(tracer, sm, "tick_wake", "sm.tick", _issued_fused):
            shadow(tracer, sm, "tick", "sm.tick", _issued)
        shadow(tracer, sm, "next_wake_time", "sm.next_wake_time")
        shadow(tracer, sm.lsu, "issue", "sm.lsu.issue", _lines)
        for scheduler in sm.schedulers:
            shadow(tracer, scheduler, "select", "scheduling.select", _declined)
            shadow(tracer, scheduler, "notify_issue", "scheduling.notify_issue")
        if getattr(sm, "cpl", None) is not None:
            shadow(tracer, sm.cpl, "on_issue", "core.cpl.on_issue")
            shadow(tracer, sm.cpl, "on_branch", "core.cpl.on_branch")
        shadow(tracer, sm.l1d, "access", "memory.cache.l1d.access")
        policy = getattr(sm.l1d, "policy", None)
        if type(policy).__module__.endswith("core.cacp"):
            shadow(tracer, policy, "choose_way", "core.cacp.choose_way")
        if id(sm.executor) not in executors:  # one executor serves every SM
            executors.add(id(sm.executor))
            shadow(tracer, sm.executor, "execute", "simt.executor.execute")
    hierarchy = gpu.hierarchy
    shadow(tracer, hierarchy, "access", "memory.hierarchy.access")
    shadow(tracer, hierarchy.l2, "access", "memory.l2.access")
    shadow(tracer, hierarchy.dram, "access", "memory.dram.access")


#: ``(module path, attribute, layer)`` of the module-level entry points the
#: runner reaches through their modules (``trace_mod.load_program(...)``,
#: ``result_cache.load(...)``), so shadowing the module attribute is enough.
MODULE_BOUNDARIES = (
    ("repro.trace", "load_program", "trace.store.load_program"),
    ("repro.trace", "store_program", "trace.store.store_program"),
    ("repro.trace", "replay_program", "trace.replay_program"),
    ("repro.experiments.result_cache", "load", "experiments.result_cache.load"),
    ("repro.experiments.result_cache", "store", "experiments.result_cache.store"),
)


@contextmanager
def module_boundaries(tracer: Tracer):
    """Shadow the module-level entry points; restore them on exit."""
    import importlib

    saved = []
    try:
        for module_name, attr, layer in MODULE_BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, layer))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
