#!/usr/bin/env python3
"""Compares two aggregated bench baselines (BENCH_*.json).

Usage: scripts/compare_benches.py OLD NEW

OLD and NEW are files written by scripts/run_benches.sh. For every
google-benchmark row present in both, keyed by bench binary and row name,
the script prints both real times and the ratio NEW / OLD (below 1 means NEW
is faster), each time converted to the row's own unit of OLD. Rows only one
file has are counted, not compared.

The files must record the same top-level "num_cpus". Thread-axis rows from hosts with different counts are not comparable, so
the script refuses them. Exit status: 0 after printing, 2 on unreadable or
malformed input or differing CPU counts.
"""

import argparse
import json
import sys

SCHEMA = "qsyn-bench-baseline-v1"
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class BenchFileError(Exception):
    pass


def load(path):
    """Returns (num_cpus, {(bench, row name): (real_time_ns, unit)})."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise BenchFileError(f"{path}: cannot read JSON: {err}") from err
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise BenchFileError(f"{path}: not a {SCHEMA} file")
    benches = data.get("benches")
    if not isinstance(benches, dict):
        raise BenchFileError(f"{path}: 'benches' is not an object")

    rows = {}
    for bench, report in benches.items():
        if not isinstance(report, dict) or not isinstance(
                report.get("benchmarks"), list):
            raise BenchFileError(f"{path}: {bench} has no 'benchmarks' list")
        for row in report["benchmarks"]:
            if not isinstance(row, dict):
                raise BenchFileError(f"{path}: {bench} has a non-object row")
            name = row.get("name")
            time = row.get("real_time")
            unit = row.get("time_unit")
            if (not isinstance(name, str) or isinstance(time, bool) or
                    not isinstance(time, (int, float)) or
                    unit not in NS_PER_UNIT):
                raise BenchFileError(
                    f"{path}: {bench} row {name!r} lacks a name, a numeric "
                    "real_time or a known time_unit")
            if (bench, name) in rows:
                raise BenchFileError(f"{path}: {bench} repeats row {name}")
            rows[(bench, name)] = (time * NS_PER_UNIT[unit], unit)

    cpus = data.get("num_cpus")
    if isinstance(cpus, bool) or not isinstance(cpus, int) or cpus < 1:
        raise BenchFileError(f"{path}: no CPU count recorded")
    return cpus, rows


def main(argv):
    parser = argparse.ArgumentParser(
        description="Print the real_time ratio NEW / OLD of every bench row "
        "two BENCH_*.json baselines share.")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)

    try:
        old_cpus, old_rows = load(args.old)
        new_cpus, new_rows = load(args.new)
    except BenchFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if old_cpus != new_cpus:
        print(f"error: {args.old} ran on {old_cpus} CPUs and {args.new} on "
              f"{new_cpus}: not comparable", file=sys.stderr)
        return 2

    shared = [key for key in old_rows if key in new_rows]
    print(f"# {args.old} -> {args.new} ({old_cpus} CPUs); ratio = new / old")
    width = max([len(name) for _, name in shared] + [4])
    print(f"{'bench':<20} {'row':<{width}} {'old':>12} {'new':>12} "
          f"{'ratio':>7}")
    for bench, name in sorted(shared):
        old_ns, unit = old_rows[(bench, name)]
        new_ns, _ = new_rows[(bench, name)]
        scale = NS_PER_UNIT[unit]
        ratio = f"{new_ns / old_ns:7.3f}" if old_ns > 0 else "    n/a"
        print(f"{bench:<20} {name:<{width}} {old_ns / scale:>9.3f} {unit:<2} "
              f"{new_ns / scale:>9.3f} {unit:<2} {ratio}")
    print(f"# {len(shared)} shared rows; "
          f"{len(old_rows) - len(shared)} only in old, "
          f"{len(new_rows) - len(shared)} only in new")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
