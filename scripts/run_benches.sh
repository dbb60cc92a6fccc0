#!/usr/bin/env bash
# Runs every paper-artifact bench binary and aggregates the google-benchmark
# timings into one baseline file so future PRs can diff perf against it.
#
# Usage: scripts/run_benches.sh [BUILD_DIR] [OUT_FILE]
#   BUILD_DIR  build tree containing bench/ binaries   (default: build)
#   OUT_FILE   aggregated baseline JSON                (default: BENCH_seed.json)
#
# BENCH_seed.json is the committed perf baseline. Optimisation PRs should run
#   scripts/run_benches.sh build BENCH_pr<N>.json
# and report deltas vs BENCH_seed.json in the PR description instead of
# overwriting the seed baseline.
#
# Timings are captured via --benchmark_out (see bench/bench_util.h), NOT by
# redirecting stdout: stdout carries the human-readable paper-vs-measured
# tables, which would corrupt redirected JSON. Extra google-benchmark flags
# (e.g. --benchmark_min_time=0.1s) can be passed via QSYN_BENCH_ARGS.
#
# The bench_* glob below picks up every registered bench, including
# bench_sim_batch (the fused/batched simulation engine): its
# bm_cross_check_sweep_reference row is the gate-at-a-time oracle and the
# bm_cross_check_sweep/<fuse_block> rows are the speedup evidence — compare
# them when reporting a PR's perf delta. QSYN_THREADS tunes the engine's
# default thread count, but the bench pins its own knobs per row.
#
# bench_domain_growth carries the out-of-core closure rows
# (bm_closure_outofcore/n:5/threads:{1,2,4}): the 5-wire closure to k=3 under
# a 32 MiB spill budget, and the 4-wire k=4 closure on the same threads axis
# (bm_closure_n4_k4). The closure keeps only one canonical row per
# wire-relabeling orbit of each level (R[k]) and never builds B[k], so at
# n=5, k=3 everything (~1 MiB) stays in RAM under the 32 MiB budget:
# heap_MiB counts it, and disk_MiB reads 0. The aggregate records the
# host's CPU count (num_cpus): thread-axis rows from hosts with different
# counts are not comparable. QSYN_GROWTH_DEPTH=4 opts the same row into
# level 4, whose rep stores seal runs under 32 MiB. The stdout's
# "spill engaged" line reruns the same closure under a 256 KiB budget,
# which its rep stores outgrow, and turns into a DIFFERS failure if that
# run stops sealing runs and draining its last R[k] from them, or reaches
# other stats.
#
# bench_backends races the three SynthesisBackend engines on time to first
# cascade (fresh closure sweep vs catalog open vs topology-search DFS) and
# carries the beyond-closure row (bm_search_5wire_cost4: a 5-wire cost-4
# target answered from a small memo at a level whose full frontier would be
# ~1.2 GiB; the closure stores its ~12 MB of canonical rows instead).
#
# bench_catalog measures the persistent-catalog serving layer:
# bm_catalog_cold_start (open + first locate on a saved cb=7 catalog — the
# number that replaces the multi-hundred-ms closure sweep), bm_catalog_locate
# (steady-state single queries), and bm_catalog_server_batch (pooled batch
# throughput with the witness-cache hit rate as a counter).
#
# bench_serve_soak soaks the multi-tenant serving front end
# (serve/automata_service.h): >= 100k mixed step/sample/distribution
# requests across automaton and QRNG tenants on n=2..4 cascades, with
# tenant churn through CatalogServer synthesis and measurement-backend
# flips mid-traffic. Its counters (rps, p50_us/p99_us from the
# common/metrics recorders, unitary_cache_hit_rate, witness_cache_hit_rate)
# are the serving-layer baseline; the "requests served ... (OK)" stdout row
# flips to DIFFERS if the soak ever falls short of the 100k floor or
# rejects a request.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_FILE="${2:-BENCH_seed.json}"
SCRATCH="bench-out"

if ! compgen -G "$BUILD_DIR/bench/bench_*" > /dev/null; then
  echo "error: no bench binaries under $BUILD_DIR/bench" >&2
  echo "build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

# Fresh scratch dir: stale reports from removed/renamed benches must not
# leak into the aggregated baseline.
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

failures=0
for bin in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$bin" ] && [ -f "$bin" ] || continue
  name="$(basename "$bin")"
  echo "=== running $name ==="
  # shellcheck disable=SC2086  # QSYN_BENCH_ARGS is intentionally word-split
  if ! QSYN_BENCH_OUT="$SCRATCH/$name.bench.json" \
      "$bin" ${QSYN_BENCH_ARGS:-} > "$SCRATCH/$name.stdout.txt"; then
    echo "error: $name exited nonzero (see $SCRATCH/$name.stdout.txt)" >&2
    failures=$((failures + 1))
  fi
done

# Any paper-vs-measured row that disagrees is a regression: fail loudly
# instead of burying "DIFFERS" in scratch output nobody reads.
if grep -q 'DIFFERS' "$SCRATCH"/*.stdout.txt 2>/dev/null; then
  echo "error: paper-vs-measured mismatch (DIFFERS rows):" >&2
  grep -H 'DIFFERS' "$SCRATCH"/*.stdout.txt >&2
  failures=$((failures + 1))
fi
if [ "$failures" -ne 0 ]; then
  echo "error: $failures failure(s); baseline not written" >&2
  exit 1
fi

if ! compgen -G "$SCRATCH/*.bench.json" > /dev/null; then
  echo "error: no bench reports captured in $SCRATCH (was --benchmark_out" >&2
  echo "overridden via QSYN_BENCH_ARGS?); baseline not written" >&2
  exit 1
fi

python3 - "$OUT_FILE" "$SCRATCH"/*.bench.json <<'PYEOF'
import json
import os
import sys

out_file, report_files = sys.argv[1], sys.argv[2:]
aggregate = {"schema": "qsyn-bench-baseline-v1", "num_cpus": os.cpu_count(),
             "benches": {}}
for path in report_files:
    name = os.path.basename(path)[: -len(".bench.json")]
    # Benches that only regenerate a paper artifact register no
    # google-benchmark timings and leave the out-file empty.
    if os.path.getsize(path) == 0:
        aggregate["benches"][name] = {"benchmarks": []}
        continue
    with open(path) as fh:
        aggregate["benches"][name] = json.load(fh)
with open(out_file, "w") as fh:
    json.dump(aggregate, fh, indent=2)
    fh.write("\n")
print(f"wrote {out_file} ({len(report_files)} bench reports)")
PYEOF
