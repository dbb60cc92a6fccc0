#!/usr/bin/env python3
"""Runs one qsyn benchmark workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qsyn checkout. The script builds the harness
(perfbench/CMakeLists.txt: the qsyn library from ../src plus the harness, in
Release) under .bench_build/perfbench, runs one workload, and prints two
lines on standard output: the host/build stamp, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics (0 for a layer the workload does
not exercise). The full record (stamp + result) is also written under
.bench_out/results/ for perfbench/compare.py, and a traced run leaves its
spans in .bench_out/traces/ (Chrome trace-event JSON).

Exit status is non-zero, with no result printed, when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def child_env():
    """Environment for the build and the harness: temporary files stay in
    the checkout."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures once, then (re)builds the harness; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"qsyn sources not found under {ROOT}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                  "qsyn_perfbench", "perfbench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=child_env())
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def cmake_cache(key):
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    """SHA-256 over the qsyn and harness sources: the build's identity when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt", "cmake"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts)
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def stamp():
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        probe = subprocess.run([compiler, "--version"], capture_output=True,
                               text=True)
        version = probe.stdout.splitlines()[0] if probe.stdout else ""
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "compiler": version or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def complete(result, spec, trace):
    """Checks the harness's metrics against BENCHMARK.json: every end-to-end
    metric present in an untraced run, no unknown names; a traced run reports
    every per-layer metric, 0 for layers the workload does not exercise."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    for name, unit in units.items():
        if name in metrics:
            if metrics[name]["unit"] != unit:
                fail(f"metric {name} reports unit {metrics[name]['unit']}, "
                     f"BENCHMARK.json says {unit}")
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} not reported")
    result["metrics"] = {name: metrics[name] for name in units}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch = OUT_DIR / "scratch" / run_id
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    command = [str(BUILD_DIR / "qsyn_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        shutil.rmtree(scratch, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if args.trace and (scratch / "trace.json").is_file():
        traces = OUT_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        shutil.move(str(scratch / "trace.json"), str(traces / f"{run_id}.json"))
    shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with status {done.returncode}")
    result = complete(json.loads(lines[-1]), spec, args.trace)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stamp": stamp(), "result": result}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}-{int(time.time())}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"stamp": record["stamp"]}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
