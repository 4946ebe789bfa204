"""Co-design scheme head-to-head: IPC / L1-MPKI table vs. the CAWA lineup.

The comparison the feedback subsystem exists for: the three schemes that
consume the L1's cache records (``ccws``, ``wasp``, ``ciao``) against
the criticality lineup (``gto``, ``caws``, ``cawa``) on the same workload
grid.  ``repro schemes --compare`` renders it from the CLI; the sweep
goes through :func:`~repro.experiments.runner.run_sweep`, so cells land
in (and replay from) the persistent result cache like any figure.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..config import GPUConfig
from ..stats.counters import RunResult
from ..stats.report import format_table
from .runner import run_sweep

#: The head-to-head lineup: established baselines, the paper's coordinated
#: design, and the three feedback-channel schemes.
HEAD_TO_HEAD_SCHEMES: Tuple[str, ...] = (
    "gto", "caws", "cawa", "ccws", "wasp", "ciao",
)

#: Default workload pair: one cache-sensitive, one non-sensitive (Table 2
#: classification) — small enough for a smoke run, contrasting enough
#: that throttling schemes separate from criticality schemes.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("backprop", "kmeans")


def schemes_head_to_head(
    workloads: Optional[Iterable[str]] = None,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, str], RunResult]:
    """Run the head-to-head grid on ``jobs`` processes (see
    :func:`~repro.experiments.runner.run_sweep`); returns
    ``{(workload, scheme): result}``."""
    wl = list(workloads) if workloads is not None else list(DEFAULT_WORKLOADS)
    return run_sweep(
        wl,
        list(HEAD_TO_HEAD_SCHEMES),
        scale=scale,
        config=config,
        jobs=jobs,
    )


def format_head_to_head(
    results: Dict[Tuple[str, str], RunResult],
    workloads: Iterable[str],
) -> str:
    """Render the IPC / L1-MPKI / speedup-over-gto comparison tables."""
    wl = list(workloads)
    schemes = list(HEAD_TO_HEAD_SCHEMES)
    ipc_rows = []
    mpki_rows = []
    speedup_rows = []
    for workload in wl:
        ipc_rows.append(
            [workload]
            + [f"{results[(workload, s)].ipc:.3f}" for s in schemes]
        )
        mpki_rows.append(
            [workload]
            + [f"{results[(workload, s)].l1_mpki:.2f}" for s in schemes]
        )
        base = results[(workload, "gto")].ipc
        speedup_rows.append(
            [workload]
            + [f"{results[(workload, s)].ipc / base:.2f}x" for s in schemes]
        )
    header = ["workload"] + schemes
    return "\n\n".join([
        "IPC:\n" + format_table(header, ipc_rows),
        "L1 MPKI:\n" + format_table(header, mpki_rows),
        "Speedup over gto:\n" + format_table(header, speedup_rows),
    ])
