#!/usr/bin/env python3
"""Compares two sets of perfbench results, or reports one set's spread.

    python3 perfbench/compare.py BASE NEW     # verdict per workload x metric
    python3 perfbench/compare.py --spread RUNS

BASE, NEW and RUNS are record files written by perfbench/run.py (under
.bench_out/results/) or directories of them; take several runs per workload,
each with another seed. Untraced records are compared on the end-to-end
metrics against their BENCHMARK.json bounds; traced records are listed per
layer metric with their median change (per-layer metrics carry no bound).

Verdicts (end-to-end metrics, per workload):
  worse         the new median is worse than the base median by more than
                the metric's bound
  improved      the new runs win at least 9/10 of all (base, new) pairs and
                the medians differ by more than the base runs' spread
  unresolved    neither of the above, and the run-to-run spread (quartile
                distance over median, of either side) is wider than the bound
  within_bound  otherwise

Results taken at different CPU counts are never compared: the tool exits
with status 2. Exit status is 1 when any metric is worse, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(paths):
    records = []
    for path in map(Path, paths):
        files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
        for f in files:
            record = json.loads(f.read_text())
            if {"workload", "trace", "stamp", "result"} <= set(record):
                records.append(record)
    return records


def group(records, trace):
    """{(workload, metric): [values]} over the records of one trace mode."""
    out = {}
    for r in records:
        if r["trace"] != trace:
            continue
        for name, metric in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), []).append(metric["value"])
    return out


def spread(values):
    """Quartile distance over the median (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base, new, bound, better):
    """One end-to-end verdict, as documented in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    gain = sign * (mn - mb) / mb if mb else 0.0
    wins = sum(1 for a in base for b in new if sign * (b - a) > 0)
    base_spread, new_spread = spread(base), spread(new)
    if -gain > bound:
        label = "worse"
    elif wins >= 0.9 * len(base) * len(new) and gain > base_spread:
        label = "improved"
    elif max(base_spread, new_spread) > bound:
        label = "unresolved"
    else:
        label = "within_bound"
    return {"label": label, "base_median": mb, "new_median": mn,
            "gain": gain, "base_spread": base_spread,
            "new_spread": new_spread, "bound": bound,
            "base_runs": len(base), "new_runs": len(new)}


def cpu_counts(records):
    return {r["stamp"].get("nproc") for r in records}


def compare(base_records, new_records, spec):
    counts = cpu_counts(base_records) | cpu_counts(new_records)
    if len(counts) > 1:
        raise ValueError(f"results taken at different CPU counts: {sorted(counts)}")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, new = group(base_records, 0), group(new_records, 0)
    rows = []
    for key in sorted(set(base) & set(new)):
        metric = e2e.get(key[1])
        if metric is None:
            continue
        row = verdict(base[key], new[key], metric["bound"], metric["better"])
        rows.append({"workload": key[0], "metric": key[1], **row})
    layers = []
    base_t, new_t = group(base_records, 1), group(new_records, 1)
    for key in sorted(set(base_t) & set(new_t)):
        mb, mn = statistics.median(base_t[key]), statistics.median(new_t[key])
        layers.append({"workload": key[0], "metric": key[1], "base_median": mb,
                       "new_median": mn,
                       "change": (mn - mb) / mb if mb else None})
    return rows, layers


def spread_report(records, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for (workload, name), values in sorted(group(records, 0).items()):
        rows.append({"workload": workload, "metric": name, "runs": len(values),
                     "median": statistics.median(values),
                     "spread": spread(values), "bound": bounds.get(name)})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--spread", action="store_true",
                        help="report the spread of one set of runs")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.spread:
        for r in spread_report(load_records(args.paths), spec):
            flag = ""
            if r["bound"] is not None:
                flag = ("over bound" if r["spread"] > r["bound"] else
                        "over bound/3" if r["spread"] > r["bound"] / 3 else "ok")
            print(f"{r['workload']:16} {r['metric']:14} n={r['runs']:<3} "
                  f"median={r['median']:<14.6g} spread={r['spread']:.4f} {flag}")
        return 0

    if len(args.paths) != 2:
        parser.error("give BASE and NEW, or --spread RUNS")
    try:
        rows, layers = compare(load_records([args.paths[0]]),
                               load_records([args.paths[1]]), spec)
    except ValueError as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    for r in rows:
        print(f"{r['workload']:16} {r['metric']:14} {r['label']:13} "
              f"{r['base_median']:.6g} -> {r['new_median']:.6g} "
              f"(gain {r['gain']:+.3f}, spread {r['base_spread']:.3f}/"
              f"{r['new_spread']:.3f}, bound {r['bound']})")
    for r in layers:
        change = "n/a" if r["change"] is None else f"{r['change']:+.3f}"
        print(f"{r['workload']:16} {r['metric']:34} {r['base_median']:.6g} "
              f"-> {r['new_median']:.6g} ({change})")
    return 1 if any(r["label"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
