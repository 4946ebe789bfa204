"""Calibration harness: measure sampling error, persist safe rates.

Sampled replay is only as trustworthy as its error model, so the
calibration protocol (``repro sample calibrate``) is empirical: for each
workload it runs the scheme grid **exactly** once, then again under every
candidate sampling rate, and records the worst relative error each rate
produced across all schemes and reported metrics.  The smallest rate
whose worst error stays under the target becomes the workload's *safe
rate*; the measured error at that rate — inflated by a safety factor and
floored — becomes the workload's confidence envelope, folded into every
subsequent sampled CI (:mod:`repro.stats.sampling`).

The resulting table persists under ``<cache_dir>/sampling/rates.json``
(same directory resolution as the result cache and trace store) and is
consumed by ``run_sweep(sampled=True)``.  Because subset selection is
deterministic given the config, a sampled run at the calibrated rate
replays the *same* subset calibration measured — the recorded envelope is
an observed error for that exact estimate, not merely a statistical hope.
A workload whose candidate rates all miss the target gets ``spec: null``
and is run exactly by sampled sweeps (the honest fallback).

Speedups are recorded as the deterministic *replay fraction* (records
replayed / records total) rather than host wall time: simulator source
never reads the wall clock (source rule DET002,
``tests/test_source_rules.py``), and the fraction is the quantity a
wall-clock measurement estimates anyway.  The CI benchmark
(``benchmarks/``, outside the checked tree) measures real wall time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import math

from .. import fslock
from ..config import GPUConfig
from ..stats.accuracy import compare_results, relative_error
from .spec import parse_sampling_spec

#: Table schema version; bump on incompatible layout changes.
TABLE_FORMAT = 1
#: Subdirectory of the result cache holding the safe-rate table.
SAMPLING_SUBDIR = "sampling"
TABLE_NAME = "rates.json"

#: Default candidate rates, smallest first (the sweep stops caring once
#: one meets the target).
DEFAULT_RATES = (0.05, 0.1, 0.25, 0.5)
#: Default worst-case relative-error target for rate selection.
DEFAULT_TARGET = 0.08
#: Envelope inflation over the worst measured error at the chosen rate.
DEFAULT_SAFETY = 2.0
#: Envelope floor: never promise tighter than this relative half-width.
ENVELOPE_FLOOR = 0.01
#: Metrics the calibration scores (the timing-dependent subset of
#: :data:`repro.stats.sampling.REPORT_METRICS`; instruction totals are
#: exact by construction and never miss).
CAL_METRICS = (
    "cycles",
    "ipc",
    "l1_mpki",
    "l1_misses",
    "l2_misses",
    "dram_accesses",
    "total_stall_cycles",
    "mem_stall_cycles",
    "sched_stall_cycles",
)
#: Spec used by ``run_sweep(sampled=True)`` for uncalibrated workloads.
DEFAULT_SPEC = "blocks:0.25"


def table_path() -> Path:
    """Location of the persisted safe-rate table."""
    from ..experiments.result_cache import cache_dir

    return cache_dir() / SAMPLING_SUBDIR / TABLE_NAME


def load_table() -> Dict:
    """The persisted table, or an empty skeleton on miss/corruption."""
    try:
        with open(table_path(), "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {"format": TABLE_FORMAT, "workloads": {}}
    if not isinstance(data, dict) or data.get("format") != TABLE_FORMAT:
        return {"format": TABLE_FORMAT, "workloads": {}}
    data.setdefault("workloads", {})
    return data


def save_table(table: Dict) -> Optional[Path]:
    """Atomically persist ``table``; returns the path (None if unwritable)."""
    path = table_path()
    try:
        fslock.atomic_write_json(path, table)
    except OSError:
        return None
    return path


def safe_spec(workload: str) -> Optional[str]:
    """The calibrated sampling spec for ``workload``.

    ``None`` means either "never calibrated" (callers fall back to
    :data:`DEFAULT_SPEC`) or "calibration explicitly failed the target"
    (``spec: null`` entry — callers must run exactly).  Use
    :func:`lookup` to distinguish the two.
    """
    entry = load_table()["workloads"].get(workload)
    if entry is None:
        return None
    return entry.get("spec")


def lookup(workload: str) -> Tuple[Optional[str], Optional[float], str]:
    """Resolve ``(spec, envelope_rel, source)`` for one workload.

    * calibrated workload: its safe spec, measured envelope, and the
      table path as source;
    * calibrated-but-failed workload: ``(None, None, "calibration-failed")``
      — run exactly;
    * unknown workload: ``(DEFAULT_SPEC, None, "default")`` — sample at
      the default rate under the conservative default envelope.
    """
    table = load_table()
    entry = table["workloads"].get(workload)
    if entry is None:
        return DEFAULT_SPEC, None, "default"
    spec = entry.get("spec")
    if spec is None:
        return None, None, "calibration-failed"
    return spec, entry.get("envelope"), f"calibrated:{table_path()}"


def envelope_for(workload: str, spec: str) -> Tuple[Optional[Dict], str]:
    """Calibrated per-metric envelope for ``workload`` sampled at ``spec``.

    The measured envelope only vouches for the rate it was measured at, so
    a sampled run at any other spec falls back to the conservative default
    (:data:`repro.stats.sampling.DEFAULT_ENVELOPE_REL`), signalled by
    ``(None, "default")``.
    """
    entry = load_table()["workloads"].get(workload)
    if (
        entry is not None
        and entry.get("spec") == str(spec)
        and entry.get("envelope") is not None
    ):
        return dict(entry["envelope"]), "calibrated"
    return None, "default"


def calibrate(
    workloads: Iterable[str],
    schemes: Iterable[str] = ("rr", "gto"),
    rates: Iterable[float] = DEFAULT_RATES,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    mode: str = "blocks",
    target_rel_err: float = DEFAULT_TARGET,
    safety: float = DEFAULT_SAFETY,
    metrics: Iterable[str] = CAL_METRICS,
    use_cache: bool = True,
    persist: bool = True,
) -> Dict:
    """Sweep sampling rates against exact runs; persist the safe rates.

    Returns the calibration report (the same structure that is merged
    into the on-disk table).  ``config`` supplies the device; its
    ``sampling`` field is ignored (the harness sets it per rate).
    """
    from ..experiments.runner import run_scheme

    workloads = list(workloads)
    schemes = list(schemes)
    rates = sorted(float(r) for r in rates)
    metrics = list(metrics)
    # Exact runs replay full traces: record once, replay every scheme.
    base = (config or GPUConfig.default_sim()).with_sampling("off")

    report: Dict = {
        "format": TABLE_FORMAT,
        "target_rel_err": target_rel_err,
        "safety": safety,
        "scale": scale,
        "schemes": schemes,
        "mode": mode,
        "workloads": {},
    }
    for workload in workloads:
        exact = {
            scheme: run_scheme(
                workload, scheme, scale=scale, config=base,
                use_cache=use_cache,
            )
            for scheme in schemes
        }
        per_rate: Dict[str, Dict] = {}
        chosen: Optional[float] = None
        for rate in rates:
            spec = str(parse_sampling_spec(f"{mode}:{rate:g}"))
            cfg = base.with_sampling(spec)
            # Per-metric worst error across the scheme grid at this rate.
            per_metric: Dict[str, float] = {name: 0.0 for name in metrics}
            # Envelope errors are measured relative to the *estimate*
            # (the number the interval is centered on), not the exact
            # value: a half-width of ``safety * env * |estimate|`` then
            # always spans ``safety * |estimate - exact|`` and coverage
            # on the calibrated cells is a guarantee for any safety >= 1,
            # even when the estimate undershoots badly.
            env_metric: Dict[str, float] = {name: 0.0 for name in metrics}
            fractions: List[float] = []
            covered = True
            for scheme in schemes:
                # Probe runs must NOT populate the result caches: their
                # envelopes are computed *before* the table exists, so a
                # cached probe would later serve default-envelope CIs for
                # a calibrated cell.  Replaying the subset again later is
                # cheap — that is the whole point of sampling.
                sampled = run_scheme(
                    workload, scheme, scale=scale, config=cfg,
                    use_cache=False, persistent=False,
                )
                errors = compare_results(sampled, exact[scheme], metrics)
                for name, err in errors.items():
                    per_metric[name] = max(per_metric[name], err.rel_error)
                    env_err = relative_error(err.exact, err.estimate)
                    if not math.isfinite(env_err):
                        # Zero estimate, nonzero exact: a multiplicative
                        # envelope cannot cover it; fall back to the
                        # exact-relative error (the table's ``covered``
                        # flag records the miss honestly).
                        env_err = err.rel_error
                    env_metric[name] = max(env_metric[name], env_err)
                    covered = covered and err.covered
                info = getattr(sampled, "info", None)
                if info is not None:
                    fractions.append(info.replay_fraction)
            worst_metric = max(per_metric, key=lambda n: per_metric[n])
            worst = per_metric[worst_metric]
            per_rate[f"{rate:g}"] = {
                "max_rel_err": worst,
                "worst_metric": worst_metric,
                "per_metric": per_metric,
                "envelope_err": env_metric,
                "covered": covered,
                "replay_fraction": (
                    sum(fractions) / len(fractions) if fractions else 1.0
                ),
            }
            if chosen is None and worst <= target_rel_err:
                chosen = rate
        entry: Dict = {
            "scale": scale,
            "mode": mode,
            "schemes": schemes,
            "target_rel_err": target_rel_err,
            "safety": safety,
            "config_fingerprint": base.fingerprint(),
            "rates": per_rate,
        }
        if chosen is None:
            entry["spec"] = None
            entry["envelope"] = None
        else:
            stats = per_rate[f"{chosen:g}"]
            entry["spec"] = f"{mode}:{chosen:g}"
            # Per-metric envelope: each metric's interval only pays for its
            # own measured error (estimate-relative, floored, safety-
            # inflated).  Same-seed determinism makes this a guarantee,
            # not a hope, for the calibrated (workload, scheme, rate)
            # cells themselves.
            entry["envelope"] = {
                name: max(ENVELOPE_FLOOR, safety * err)
                for name, err in stats["envelope_err"].items()
            }
            entry["replay_fraction"] = stats["replay_fraction"]
        report["workloads"][workload] = entry

    if persist:
        table = load_table()
        table["workloads"].update(report["workloads"])
        table["format"] = TABLE_FORMAT
        save_table(table)
    return report
