# Script-mode check (ctest: deprecated_names_absent) that deleted names never
# reappear in the tree:
#  * the transitional migration shims `FmcfOptions` and `take_flatten` (a
#    namespace-scope alias cannot be probed with SFINAE the way a member
#    can, so this textual scan backs up the static_asserts in
#    tests/test_deprecation.cpp — the one file allowed to spell old names);
#  * the deleted kernel switches: the `QSYN_SIMD` kill-switch and
#    `force_scalar`, the `QSYN_WITH_BLAS` CMake option and
#    `SimOptions::blas_gemm`, the `SimOptions::gemm_batch` opt-out — each
#    kernel has one implementation, so nothing may choose between engines;
#  * `Stopwatch` — metrics::now_ns() is the one clock;
#  * the writable file backends `GrowableMmapFile`, `FileRowStorage` and
#    `StorageSpec::file_backed` — spill files are written only through
#    io::SpillWriter (buffered write(2)), and writable storage means the
#    heap vector;
#  * the row-storage seam `RowStorage` (with `VectorRowStorage` and
#    `MmapRowStorage`) and its factory `StorageSpec` — a FlatPermStore owns
#    its heap vector or views a mapped window itself;
#  * the second on-disk row format `SealedRun` (magic `QSYNRUN`, a header
#    and a shared-prefix compression) and SpillWriter's `keep_file` policy —
#    a sealed spill run is the shard's raw sorted rows behind a mapped
#    FlatPermStore window, and every spill file is a temporary;
#  * the serving combining queue (`combiner_active_`, `process_round`) and
#    its wave scheduler (`WaveEntry`) — AutomataService serves each request
#    on its caller's thread under the tenant's own mutex, so nothing may
#    elect a combiner or pack tenants into engine waves again;
#  * the materialized frontier: its store's pilot splitters
#    (`frontier_splitters_`, `kPilotRowsPerShard`) and the block-galloping
#    G-key pass over it (`end_of_block`) — the closure keeps only each
#    level's canonical rows and answers every query from them;
#  * the second Hilbert path: the `QSYN_SIM_FUSE` switch, the
#    `run_all_inputs` and `mv_model_matches_hilbert_batch` entry points,
#    `fuse_cascade`, and the closure's `binary_rep_count` bound that bounded
#    nothing — FusedCascade is the one Hilbert evaluator outside the tests,
#    and the G-key pass scans every rep;
#  * the seam's extras: the `ClosureBackend` adapter, `BackendInfo`,
#    `BackendAnswer` and `CatalogServer::locate_batch` — McExpressor is the
#    closure engine, and the seam carries library(), max_cost(),
#    synthesize() and synthesize_batch() alone;
#  * the engines' private label tables (`gate_tables_`, `gate_inv_tables_`,
#    `gate_class_bits_`, `gate_adjoint_`, `label_banned_`,
#    `init_gate_tables`) and the closure's shared `worker_pool()` — the
#    gate library holds the tables, PatternDomain::banned_of the banned
#    test, and count_sequences walks serially.
#
# Usage: cmake -DQSYN_SOURCE_DIR=<repo root> -P CheckDeprecatedNames.cmake
if(NOT DEFINED QSYN_SOURCE_DIR)
  message(FATAL_ERROR "pass -DQSYN_SOURCE_DIR=<repo root>")
endif()

set(deprecated_names
  "FmcfOptions" "take_flatten"
  "QSYN_SIMD" "force_scalar" "QSYN_WITH_BLAS" "blas_gemm" "gemm_batch"
  "Stopwatch"
  "GrowableMmapFile" "FileRowStorage" "file_backed"
  "RowStorage" "StorageSpec"
  "SealedRun" "QSYNRUN" "keep_file"
  "combiner_active_" "process_round" "WaveEntry"
  "frontier_splitters_" "kPilotRowsPerShard" "end_of_block"
  "QSYN_SIM_FUSE" "run_all_inputs" "mv_model_matches_hilbert_batch"
  "fuse_cascade" "binary_rep_count"
  "ClosureBackend" "BackendInfo" "locate_batch"
  "gate_tables_" "gate_inv_tables_" "gate_class_bits_" "gate_adjoint_"
  "label_banned_" "init_gate_tables" "worker_pool")
# Matched as whole identifiers: `BackendAnswer` is also part of a live test
# name (CatalogWeighted.FallbackBackendAnswersBeyondStoredDepth).
set(deprecated_words "BackendAnswer")

file(GLOB_RECURSE sources RELATIVE "${QSYN_SOURCE_DIR}"
  "${QSYN_SOURCE_DIR}/src/*.h"
  "${QSYN_SOURCE_DIR}/src/*.cpp"
  "${QSYN_SOURCE_DIR}/tests/*.cpp"
  "${QSYN_SOURCE_DIR}/bench/*.h"
  "${QSYN_SOURCE_DIR}/bench/*.cpp"
  "${QSYN_SOURCE_DIR}/examples/*.cpp"
  "${QSYN_SOURCE_DIR}/src/CMakeLists.txt"
  "${QSYN_SOURCE_DIR}/.github/*.yml")
list(APPEND sources CMakeLists.txt)

set(violations "")
foreach(source IN LISTS sources)
  if(source STREQUAL "tests/test_deprecation.cpp")
    continue()
  endif()
  file(READ "${QSYN_SOURCE_DIR}/${source}" content)
  foreach(name IN LISTS deprecated_names)
    string(FIND "${content}" "${name}" position)
    if(NOT position EQUAL -1)
      list(APPEND violations "${source}: ${name}")
    endif()
  endforeach()
  foreach(word IN LISTS deprecated_words)
    if(content MATCHES "(^|[^A-Za-z0-9_])${word}([^A-Za-z0-9_]|$)")
      list(APPEND violations "${source}: ${word}")
    endif()
  endforeach()
endforeach()

if(violations)
  list(JOIN violations "\n  " pretty)
  message(FATAL_ERROR
    "deleted names resurfaced (see the list at the top of "
    "cmake/CheckDeprecatedNames.cmake for what replaced each):\n  ${pretty}")
endif()
message(STATUS "no deprecated names in the tree")
