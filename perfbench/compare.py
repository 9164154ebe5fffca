"""Summarise and compare benchmark result sets.

A result set is a JSON-lines file of run records as ``run.py`` appends them
(``.perfbench/results.jsonl`` by default).  Three commands::

    python3 perfbench/compare.py summary [--json] RESULTS
    python3 perfbench/compare.py compare OLD NEW
    python3 perfbench/compare.py collect --seeds 0-9 --out RESULTS [--workloads a,b] [--trace 1]

``summary`` prints, per (workload, metric), the median, the quartiles, the
spread (quartile distance over median) and the run count.  ``compare``
prints one row per (workload, metric): ``better``, ``worse``, ``unchanged``
or ``unresolved``, by the rule of the choosing-metrics guide:

* better: the new side wins at least 9 of every 10 pairs (runs paired in
  file order, ties count for neither) and the medians differ by more than
  the old side's quartile distance;
* worse: the same, the other way round, or (end-to-end metrics) the new
  median is worse than the old by more than the ``BENCHMARK.json`` bound;
* unresolved: an end-to-end metric whose old spread is wider than its bound,
  unless every new run beats every old run;
* unchanged: otherwise.

Every ratio is printed with its base (the old median and unit).
``collect`` runs ``run.py`` once per (workload, seed) with the benchmark's
``run_seconds`` and appends every record to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per run, in file order]}``."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                values[(record["workload"], name)].append(float(metric["value"]))
    return dict(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; with fewer than 2 values all three are the value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(old: list[float], new: list[float], higher_is_better: bool, bound: float | None) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for one metric."""
    sign = 1.0 if higher_is_better else -1.0
    q1, old_median, q3 = quartiles(old)
    new_median = quartiles(new)[1]
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    losses = sum(1 for o, n in pairs if sign * (n - o) < 0)
    beyond_noise = abs(new_median - old_median) > (q3 - q1)
    if pairs and wins >= 0.9 * len(pairs) and beyond_noise:
        return "better"
    if pairs and losses >= 0.9 * len(pairs) and beyond_noise:
        return "worse"
    if bound is None:
        return "unchanged"
    every_new_better = min(sign * n for n in new) > max(sign * o for o in old)
    if spread(old) > bound and not every_new_better:
        return "unresolved"
    if sign * (new_median - old_median) < -bound * abs(old_median):
        return "worse"
    return "unchanged"


def metric_specs() -> dict[str, dict]:
    bench = load_benchmark()
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def summary(path: str) -> list[dict]:
    """Median, quartiles and spread of every (workload, metric) in ``path``."""
    specs = metric_specs()
    rows = []
    for (workload, name), values in sorted(load(path).items()):
        q1, median, q3 = quartiles(values)
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": specs.get(name, {}).get("unit", ""),
            "runs": len(values),
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread(values),
        })
    return rows


def compare(old_path: str, new_path: str) -> list[dict]:
    """One verdict row per (workload, metric) present in both result sets."""
    specs = metric_specs()
    old, new = load(old_path), load(new_path)
    rows = []
    for key in sorted(set(old) & set(new)):
        workload, name = key
        spec = specs.get(name, {"better": "higher", "unit": ""})
        old_median = quartiles(old[key])[1]
        new_median = quartiles(new[key])[1]
        rows.append({
            "workload": workload,
            "metric": name,
            "verdict": verdict(
                old[key], new[key], spec["better"] == "higher", spec.get("bound")
            ),
            "ratio": new_median / old_median if old_median else None,
            "base": old_median,
            "unit": spec["unit"],
            "runs": (len(old[key]), len(new[key])),
        })
    return rows


def collect(seeds: list[int], workloads: list[str], trace: int, out: str) -> int:
    """Run every (workload, seed) once; returns the number of failed runs."""
    seconds = str(load_benchmark()["run_seconds"])
    failures = 0
    for workload in workloads:
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds", seconds,
                 "--trace", str(trace), "--results", out],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            last = done.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:200]}", flush=True)
            failures += done.returncode != 0
    return failures


def seed_range(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Summarise and compare benchmark results.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summary")
    p.add_argument("results")
    p.add_argument("--json", action="store_true", help="print the rows as one JSON list")
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    p = sub.add_parser("collect")
    p.add_argument("--seeds", type=seed_range, required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in load_benchmark()["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.command == "collect":
        return 1 if collect(args.seeds, args.workloads.split(","), args.trace, args.out) else 0
    if args.command == "summary":
        if args.json:
            print(json.dumps(summary(args.results), indent=1))
            return 0
        for row in summary(args.results):
            print(
                f"{row['workload']:17} {row['metric']:28} median {row['median']:.6g} {row['unit']}"
                f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}"
                f"  runs {row['runs']}"
            )
        return 0
    for row in compare(args.old, args.new):
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}x"
        print(
            f"{row['workload']:17} {row['metric']:28} {row['verdict']:10} new/old {ratio}"
            f" of {row['base']:.6g} {row['unit']}  runs {row['runs'][0]}/{row['runs'][1]}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
