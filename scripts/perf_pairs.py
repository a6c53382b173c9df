#!/usr/bin/env python3
"""Run perfbench in alternating pairs between two source checkouts and
compare their metrics.

Each pair runs perfbench/run.py once in each checkout, one after the
other; the base checkout runs first in odd pairs and the new one in even
pairs, so a drift of the host's speed falls on both sides alike.  For each
metric that BENCHMARK.json declares (the end-to-end ones, or the per-layer
ones with --trace 1) it prints each side's median and quartiles, the
number of pairs the new side won, the relative change of the medians, and
whether the gap between the medians exceeds the base's quartile spread.
For an end-to-end metric it also says whether the new median is worse than
the base's by more than the metric's bound.  Standard library only; each
run writes its results under its own checkout's perfbench/.

Example:
    python scripts/perf_pairs.py --base ../parent --new . --workload ineq_lab \\
        --seed 1 --pairs 10 --seconds 20 --out pairs.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "new")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="checkout compared against")
    p.add_argument("--new", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="write every run's result line here as JSON")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0.0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            p.error(f"--{side}: no perfbench/run.py under {getattr(args, side)}")
    return args


def run_once(checkout: Path, args) -> dict:
    """One perfbench run in checkout: its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=10.0 * args.seconds + 600.0)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as perfbench/run.py takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def compare(runs: list[dict[str, dict]], declared: list[dict]) -> dict:
    """Per-metric summary of the pairs, the new side against the base."""
    summary = {}
    for metric in declared:
        name = metric["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        lower = metric["better"] == "lower"
        (bm, bq1, bq3), (nm, nq1, nq3) = (spread(values[side]) for side in SIDES)
        won = sum((n < b) if lower else (n > b) for b, n in zip(values["base"], values["new"]))
        entry = {
            "base": {"median": bm, "q1": bq1, "q3": bq3},
            "new": {"median": nm, "q1": nq1, "q3": nq3},
            "new_better_in": won,
            "relative_change": (nm - bm) / bm if bm else None,
            "median_gap_exceeds_base_spread": abs(nm - bm) > bq3 - bq1,
        }
        if "bound" in metric:
            worse = (nm - bm) if lower else (bm - nm)
            entry["worse_beyond_bound"] = worse > metric["bound"] * abs(bm)
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    declared = spec["end_to_end" if args.trace == 0 else "per_layer"]
    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args)
        runs.append(pair)
        walls = "  ".join(f"{side} {pair[side]['metrics'][declared[0]['name']]['value']:.4g}"
                          for side in SIDES)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {declared[0]['name']} {walls}",
              flush=True)
    summary = compare(runs, declared)
    failed = {side: sum(r[side]["failed"] for r in runs) for side in SIDES}
    attempted = {side: sum(r[side]["attempted"] for r in runs) for side in SIDES}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s; "
          f"failed jobs: base {failed['base']} of {attempted['base']}, "
          f"new {failed['new']} of {attempted['new']}")
    for name, e in summary.items():
        b, n = e["base"], e["new"]
        rel = "n/a" if e["relative_change"] is None else f"{e['relative_change']:+.1%}"
        flags = ["gap > base spread" if e["median_gap_exceeds_base_spread"] else "gap <= base spread"]
        if e.get("worse_beyond_bound"):
            flags.append("WORSE BEYOND BOUND")
        print(f"  {name}: base {b['median']:.6g} [{b['q1']:.6g}..{b['q3']:.6g}]  "
              f"new {n['median']:.6g} [{n['q1']:.6g}..{n['q3']:.6g}]  {rel}, "
              f"new better in {e['new_better_in']} of {args.pairs}; {', '.join(flags)}")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "failed_jobs": failed,
            "attempted_jobs": attempted, "summary": summary, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
