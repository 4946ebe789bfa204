"""Experiment harness: one module per table/figure of the paper.

Each ``figNN`` module exposes a ``run(...)`` function that regenerates the
corresponding figure's data and a ``render(...)`` helper that prints it in
the paper's row/series layout.  The shared machinery (scheme sweeps, oracle
construction, result caching) lives in :mod:`repro.experiments.runner`.
"""

from .runner import build_oracle, run_scheme, run_sweep, sweep_table

#: Figure numbers with a dedicated experiment module (``figNN``).
FIGURES = (1, 2, 3, 4, 9, 10, 11, 12, 13, 14, 15, 16, 17)

__all__ = ["FIGURES", "build_oracle", "run_scheme", "run_sweep", "sweep_table"]
