"""Executor-process entry point: run one job, report progress, return data.

:func:`execute_job` is the only function the server ever submits to its
:class:`~concurrent.futures.ProcessPoolExecutor`.  It is deliberately
top-level and takes only plain-data arguments (the job payload dict, the
progress-file path, an optional cache-dir override), so it pickles under
any multiprocessing start method.  All heavy lifting is delegated to the
existing library machinery — :func:`repro.experiments.runner.run_scheme`
and friends — which means executor processes share the persistent result
and trace caches with every other client of ``.repro_cache/`` (hardened
for exactly this concurrency in :mod:`repro.fslock`).

Return values and exceptions cross the process boundary, so results are
plain dicts and failures are re-raised as :class:`RuntimeError` with the
original type folded into the message (arbitrary exception classes may
not unpickle in the server process).
"""

from __future__ import annotations

import os
from typing import Optional

from .jobs import JobSpec
from .progress import ObsProgressCollector, ProgressWriter


def execute_job(
    payload: dict,
    progress_path: str,
    cache_dir: Optional[str] = None,
) -> dict:
    """Run the job described by ``payload``; return its result payload."""
    from ..experiments import result_cache

    if cache_dir is not None:
        result_cache.set_cache_dir(cache_dir)

    writer = ProgressWriter(progress_path)
    writer.emit("started", pid=os.getpid())
    try:
        spec = JobSpec.from_payload(payload)
        if spec.kind == "run":
            result_payload = _run_job(spec, writer)
        elif spec.kind == "sweep":
            result_payload = _sweep_job(spec, writer)
        else:
            result_payload = _figure_job(spec, writer)
        writer.emit("finished")
        return result_payload
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        writer.emit("failed", error=message)
        raise RuntimeError(message) from None
    finally:
        writer.close()


def _run_job(spec: JobSpec, writer: ProgressWriter) -> dict:
    workload, scheme = spec.workloads[0], spec.schemes[0]
    base = spec.build_config()
    if spec.events:
        # Stream live obs progress: run through the event-recording
        # harness with a snapshotting collector on the bus.  Recording
        # runs bypass the result cache by design (the cached entry could
        # not carry the stream), so this path always simulates.
        from ..obs import harness

        collector = ObsProgressCollector(writer)
        result, _bus = harness.record_events(
            workload, scheme, scale=spec.scale, config=base,
            collectors=(collector,), check=spec.check, events="ring:1",
        )
        collector.finalize()
    else:
        from ..experiments.runner import run_scheme

        result = run_scheme(
            workload, scheme, scale=spec.scale, config=base,
            check=spec.check,
        )
    return {
        "kind": "run",
        "workload": workload,
        "scheme": scheme,
        "summary": result.summary(),
        "result": result.to_dict(),
    }


def _cell_reporter(writer: ProgressWriter):
    """The ``on_cell`` of a sweep or figure job: one ``cell`` record per
    cell, written as its result is known."""
    def on_cell(cell, result) -> None:
        writer.emit("cell", workload=cell[0], scheme=cell[1],
                    cycles=result.cycles)

    return on_cell


# Sweep and figure jobs resolve their cells on one process (``jobs=1``):
# the worker pool is the parallelism budget.
def _sweep_job(spec: JobSpec, writer: ProgressWriter) -> dict:
    from ..experiments.runner import run_sweep

    results = run_sweep(
        list(spec.workloads), list(spec.schemes), scale=spec.scale,
        config=spec.build_config(), jobs=1, on_cell=_cell_reporter(writer),
        check=spec.check,
    )
    return {"kind": "sweep", "cells": [
        {"workload": workload, "scheme": scheme, "result": result.to_dict()}
        for (workload, scheme), result in results.items()
    ]}


def _figure_job(spec: JobSpec, writer: ProgressWriter) -> dict:
    from ..experiments import figure_module, run_figure

    data = run_figure(spec.figure, scale=spec.scale,
                      config=spec.build_config(), jobs=1,
                      on_cell=_cell_reporter(writer))
    return {
        "kind": "figure",
        "figure": spec.figure,
        "text": figure_module(spec.figure).render(data),
    }
