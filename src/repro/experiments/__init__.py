"""Experiment harness: one module per figure of the paper.

A figure module is either a grid or a one-call run, plus ``render(data)``,
which prints the data in the paper's row/series layout:

* a **grid** figure (1, 4, 9, 10 and 13-17) declares ``cells(...)``, its
  ``(workload, scheme)`` pairs, and a pure ``reduce(results)`` that turns
  ``{cell: RunResult}`` into the figure's data;
* a **one-call** figure (2, 3, 11 and 12) has ``run(scale, config, ...)``,
  which makes one cached :func:`~repro.experiments.runner.run_scheme` or
  :func:`~repro.experiments.runner.cell_report` call per cell.

:func:`run_figure` runs either kind; it resolves a grid's cells as one plan,
as :func:`~repro.experiments.runner.run_sweep` does.  The shared machinery
(plans, oracle construction, result caching) lives in
:mod:`repro.experiments.runner`; Tables 1 and 2 in
:mod:`repro.experiments.tables`.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import Callable, Optional

from ..config import GPUConfig
from ..stats.counters import RunResult
from . import runner
from .runner import Cell, build_oracle, run_scheme, run_sweep, sweep_table

#: Figure numbers with a dedicated experiment module (``figNN``).
FIGURES = (1, 2, 3, 4, 9, 10, 11, 12, 13, 14, 15, 16, 17)


def figure_module(number: int) -> ModuleType:
    """The ``figNN`` module of figure ``number``; a :class:`ValueError`
    names the figures there are."""
    if number not in FIGURES:
        raise ValueError(f"no module for figure {number}; available: {FIGURES}")
    return importlib.import_module(f".fig{number:02d}", __name__)


def run_figure(number: int, scale: float = 1.0,
               config: Optional[GPUConfig] = None, jobs: Optional[int] = None,
               on_cell: Optional[Callable[[Cell, RunResult], None]] = None,
               **figure_kwargs):
    """Figure ``number``'s data (what its module's ``render`` takes).

    A grid figure's ``cells(**figure_kwargs)`` are one plan on ``jobs``
    processes, this one included (``None``: the usable cores, as in
    :func:`~repro.experiments.runner.run_sweep`), and ``on_cell(cell,
    result)`` sees each cell as its result is known.  A one-call figure
    runs here alone and calls no ``on_cell``.
    """
    module = figure_module(number)
    if not hasattr(module, "cells"):
        return module.run(scale=scale, config=config, **figure_kwargs)
    results = runner._resolve(module.cells(**figure_kwargs), scale,
                              config or GPUConfig.default_sim(), jobs, {},
                              on_cell)
    return module.reduce(results)


__all__ = ["FIGURES", "build_oracle", "figure_module", "run_figure",
           "run_scheme", "run_sweep", "sweep_table"]
