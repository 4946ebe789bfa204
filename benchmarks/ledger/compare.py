#!/usr/bin/env python3
"""Compare two sets of ledger runs, metric by metric, against the bounds.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py base1.json,base2.json,base3.json new_runs/

Each side is one ``run.py --out`` file, several joined by commas, or a
directory of them.  For every (workload, end-to-end metric) it prints the
base median, the new median, their ratio and a verdict using the bound
``BENCHMARK.json`` fixes for that metric:

* ``ok``          the new median is no worse than the base by more than the bound;
* ``worse``       it is — the exit status is then non-zero;
* ``unresolved``  the run-to-run spread of either side is wider than the bound,
                  so the medians cannot tell (unless every new run beats, or
                  loses by more than the bound to, every base run).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median: interquartile distance
    from four runs up, the full range below that, 0 for a single run."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(median)
    return (max(values) - min(values)) / abs(median)


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload."""
    # Work in "cost": bigger is worse whichever way the metric points.
    sign = 1.0 if better == "lower" else -1.0
    base_cost = [sign * v for v in base]
    new_cost = [sign * v for v in new]
    scale = abs(statistics.median(base))
    margin = bound * scale
    if max(spread(base), spread(new)) <= bound:
        got_worse = statistics.median(new_cost) - statistics.median(base_cost)
        return "worse" if got_worse > margin else "ok"
    # Too noisy for the medians to decide; only a clean separation does.
    if min(new_cost) > max(base_cost) + margin:
        return "worse"
    if max(new_cost) < min(base_cost):
        return "ok"
    return "unresolved"


def load_side(argument: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values``, one per run found."""
    paths: List[Path] = []
    for part in argument.split(","):
        path = Path(part)
        paths += sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for result in document["results"]:
            if result["trace"]:
                continue
            for metric, value in result["metrics"].items():
                values.setdefault((result["workload"], metric), []).append(value)
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    base, new = load_side(argv[0]), load_side(argv[1])
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<12} {'metric':<20} {'base':>12} {'new':>12} {'new/base':>9} "
          f"{'spread':>13} {'bound':>6}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in metrics:
            continue
        metric = metrics[name]
        result = verdict(base[key], new[key], metric["better"], metric["bound"])
        counts[result] += 1
        base_median, new_median = statistics.median(base[key]), statistics.median(new[key])
        print(f"{workload:<12} {name:<20} {base_median:>12.5g} {new_median:>12.5g} "
              f"{new_median / base_median if base_median else float('nan'):>9.4f} "
              f"{spread(base[key]):>6.3f}/{spread(new[key]):<6.3f} {metric['bound']:>6.2f}  "
              f"{result} (n={len(base[key])}/{len(new[key])}, {metric['better']} is better)")
    print(f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
