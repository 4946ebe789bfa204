#!/usr/bin/env python3
"""Alternating base/change ledger pairs: the protocol behind a claimed gain.

    python3 tools/ledger_pairs.py --base HEAD~1 --workload narrow_figs --pairs 10
    make ledger-pairs BASE=HEAD~1 WORKLOAD=narrow_figs PAIRS=10

Checks ``--base`` out into a temporary ``git worktree``, then for each pair
``i`` runs ``benchmarks/ledger/run.py --trace 0 --seconds S --seed i`` once in
the base tree and once in this one (which side goes first alternates per
pair), each tree running its own copy of the benchmark against its own
``src/``.  Both sets of results go to ``benchmarks/ledger/compare.py`` (the
``BENCHMARK.json`` bounds verdicts); after that, per end-to-end metric:
the two medians, the base's quartiles, pairs won and failed operations —
what choosing-metrics asks of a gain (>= 9/10 pairs, medians apart by more
than the base's interquartile distance).  The worktree and both trees'
``.ledger_tmp`` are removed on exit.  Exit status is ``compare.py``'s.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_ledger(tree: Path, out: Path, seed: int, seconds: float, workload: str | None) -> None:
    command = [sys.executable, str(tree / "benchmarks" / "ledger" / "run.py"), "--trace", "0",
               "--seconds", str(seconds), "--seed", str(seed), "--out", str(out)]
    if workload:
        command += ["--workload", workload]
    subprocess.run(command, cwd=tree, check=True, stdout=subprocess.DEVNULL)


def load_runs(directory: Path) -> list:
    """One ``{(workload, metric): value}`` per pair, plus the failure counts."""
    runs = []
    for path in sorted(directory.glob("*.json"), key=lambda p: int(p.stem)):
        with open(path, encoding="utf-8") as handle:
            results = json.load(handle)["results"]
        values = {(r["workload"], m): v for r in results for m, v in r["metrics"].items()}
        runs.append((values, sum(r["failed"] for r in results),
                     sum(r["attempted"] for r in results)))
    return runs


def summarize(base_runs: list, change_runs: list) -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    print(f"\n{'workload':<12} {'metric':<20} {'base med':>10} {'base q1..q3':>23} "
          f"{'change med':>10} {'ratio':>7}  pairs won")
    for key in sorted(base_runs[0][0]):
        workload, metric = key
        if metric not in better or any(key not in run[0] for run in base_runs + change_runs):
            continue   # a side failed its check and reported no end-to-end metrics
        base = [run[0][key] for run in base_runs]
        change = [run[0][key] for run in change_runs]
        sign = 1.0 if better[metric] == "lower" else -1.0
        won = sum(sign * c < sign * b for b, c in zip(base, change))
        lost = sum(sign * c > sign * b for b, c in zip(base, change))
        q1, q3 = ((min(base), max(base)) if len(base) < 4
                  else statistics.quantiles(base, n=4)[::2])
        base_median, change_median = statistics.median(base), statistics.median(change)
        print(f"{workload:<12} {metric:<20} {base_median:>10.5g} {q1:>11.5g}..{q3:<10.5g} "
              f"{change_median:>10.5g} {change_median / base_median if base_median else 0:>7.3f}  "
              f"{won}/{len(base)} ({lost} lost, {better[metric]} is better)")
    for name, runs in (("base", base_runs), ("change", change_runs)):
        print(f"{name}: {sum(r[1] for r in runs)} failed of {sum(r[2] for r in runs)} operations")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare this tree against")
    parser.add_argument("--workload", default=None, help="one ledger workload (default: all four)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", default=None,
                        help="keep the per-run JSON files here (base/ and change/)")
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="ledger-pairs-"))
    out = Path(args.out).resolve() if args.out else scratch / "out"
    worktree = scratch / "base"
    trees = {"base": worktree, "change": ROOT}
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(worktree),
                        args.base], check=True, stdout=subprocess.DEVNULL)
        for side in trees:
            (out / side).mkdir(parents=True, exist_ok=True)
        for pair in range(1, args.pairs + 1):
            order = ("base", "change") if pair % 2 else ("change", "base")
            for side in order:
                run_ledger(trees[side], out / side / f"{pair}.json", pair, args.seconds,
                           args.workload)
            print(f"pair {pair}/{args.pairs} done ({order[0]} first)", flush=True)
        status = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "ledger" / "compare.py"),
                                 str(out / "base"), str(out / "change")]).returncode
        summarize(load_runs(out / "base"), load_runs(out / "change"))
        return status
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(worktree)],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], stdout=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(ROOT / ".ledger_tmp", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
