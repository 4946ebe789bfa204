"""Runtime CPL-bounds checking with the checked predictor installed.

The ``install_checked_predictor`` fixture (the "flag" of the test names)
makes every SM's predictor a
:class:`~tests.kernel_lint.pathlen.CheckedCriticalityPredictor` by patching
the predictor class :mod:`repro.gpu.gpu` builds: each dynamic Algorithm-2
branch delta must lie inside the static path-length envelope (the
``nInst`` counter is non-negative by construction).  These tests run real
workloads end-to-end under it — if CPL accounting ever drifts from what the
CFG allows, they fail with a
:class:`~tests.kernel_lint.pathlen.CPLBoundsError` instead of a silently
mis-ranked warp.
"""

from __future__ import annotations

import pytest

from repro import GPU, GPUConfig, apply_scheme
from repro.core.cawa import SCHEMES
from repro.core.cpl import CriticalityPredictor
from repro.gpu import gpu as gpu_module
from repro.workloads import make_workload, workload_names
from tests.kernel_lint.pathlen import CheckedCriticalityPredictor

#: Scales matching tests/test_workloads.py (each cell well under ~1s).
FAST_SCALE = {
    "bfs": 0.25,
    "b+tree": 0.25,
    "heartwall": 0.5,
    "kmeans": 0.25,
    "needle": 0.5,
    "srad_1": 0.5,
    "strcltr_small": 0.5,
    "backprop": 0.25,
    "particle": 0.5,
    "pathfinder": 0.25,
    "strcltr_mid": 0.5,
    "tpacf": 0.5,
    "synthetic_imbalance": 1.0,
    "synthetic_divergence": 1.0,
    "synthetic_memstress": 1.0,
}

#: Fast tier-1 grid: divergence-heavy workloads across the scheme space.
FAST_GRID = [
    ("bfs", "cawa"),
    ("kmeans", "gcaws"),
    ("needle", "cawa"),
    ("synthetic_divergence", "gto"),
    ("b+tree", "cawa"),
]


@pytest.fixture
def install_checked_predictor(monkeypatch):
    """Every GPU built in the test gets the checked predictor."""
    monkeypatch.setattr(gpu_module, "CriticalityPredictor", CheckedCriticalityPredictor)


def run_checked(name: str, scheme: str) -> GPU:
    gpu = GPU(apply_scheme(GPUConfig.default_sim(), scheme))
    wl = make_workload(name, scale=FAST_SCALE[name])
    wl.run(gpu, scheme=scheme, check=True)  # raises CPLBoundsError on drift
    return gpu


@pytest.mark.parametrize("name,scheme", FAST_GRID)
def test_cpl_deltas_stay_in_static_envelope(install_checked_predictor, name, scheme):
    gpu = run_checked(name, scheme)
    predictors = [sm.cpl for sm in gpu.sms]
    assert all(isinstance(p, CheckedCriticalityPredictor) for p in predictors)
    # The run must actually have exercised the checker, including at least
    # one branch whose envelope is finite (a real two-arm region).
    assert sum(p.bound_checks for p in predictors) > 0
    assert sum(p.finite_checks for p in predictors) > 0


def test_flag_off_installs_plain_predictor():
    gpu = GPU(GPUConfig.default_sim())
    for sm in gpu.sms:
        assert type(sm.cpl) is CriticalityPredictor


def test_flag_does_not_change_timing(monkeypatch):
    # The checker is observational: cycle counts are bit-identical.
    results = {}
    for predictor in (CriticalityPredictor, CheckedCriticalityPredictor):
        monkeypatch.setattr(gpu_module, "CriticalityPredictor", predictor)
        gpu = GPU(apply_scheme(GPUConfig.default_sim(), "gcaws"))
        assert type(gpu.sms[0].cpl) is predictor
        wl = make_workload("kmeans", scale=FAST_SCALE["kmeans"])
        results[predictor] = wl.run(gpu, scheme="gcaws", check=True)
    plain, checked = results.values()
    assert plain.cycles == checked.cycles
    assert plain.ipc == checked.ipc


@pytest.mark.slow
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", workload_names(include_synthetic=True))
def test_full_grid_stays_in_envelope(install_checked_predictor, name, scheme):
    gpu = run_checked(name, scheme)
    assert sum(sm.cpl.bound_checks for sm in gpu.sms) >= 0
